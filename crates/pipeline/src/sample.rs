//! Sampled fast-forward execution: functional warm-up alternating with
//! detailed cycle-accurate windows.
//!
//! A [`SampleSpec`](aim_types::SampleSpec) on [`SimConfig::sample`] switches
//! [`Machine::run`] (and every other run entry point) from simulating each
//! instruction cycle-accurately to a classic sampled schedule: `periods`
//! repetitions of *detail* (`detail_insts` cycle-accurate instructions)
//! followed by *warm* (`warm_insts` functional instructions), with any
//! remainder of the program running functionally. Event statistics are
//! extrapolated from the detailed windows by
//! [`SimStats::extrapolate`](crate::SimStats::extrapolate); the cycle count
//! uses a stratified per-period estimate (see `run_sampled`'s notes on
//! cold-start coverage and non-stationary profiles).
//!
//! # The warm engine
//!
//! The warm engine walks the golden architectural trace record by record —
//! no fetch, rename, scheduling, or reorder buffer — while keeping every
//! *long-lived* structure as warm as a detailed run would:
//!
//! * the I-cache is touched at each instruction's fetch address and the
//!   D-cache hierarchy (including any far-memory tier) at each memory
//!   access;
//! * the gshare predictor trains on every conditional branch through
//!   [`Gshare::warm_train`](aim_predictor::Gshare::warm_train), with the
//!   same oracle repair draw the detailed front end makes;
//! * the architectural register file is kept current through the retired
//!   rename map, so a detailed window starts from exact state;
//! * loads read committed memory and stores commit to it through
//!   [`CoreMemSys::commit_store`](aim_mem::CoreMemSys::commit_store), in
//!   program order, so memory is always current;
//! * the memory backend hears each memory instruction only through
//!   [`MemBackend::warm`](aim_backend::MemBackend::warm). Its SFC, MDT,
//!   queues and filters hold in-flight state that a drained warm stretch
//!   cannot teach (the functional-warming split of SMARTS); a PC-indexed
//!   prediction table — PCAX's — is long-lived and trains there.
//!
//! Because the warm engine executes in program order from architectural
//! values, it can never mis-speculate: architectural state (and therefore
//! [`FinalState`](crate::FinalState)) is *exact* in sampled mode, while
//! timing converges with the detail fraction.
//!
//! # Mode transitions
//!
//! Entering a detail window resets fetch to the trace cursor and rebuilds
//! the gshare history from the actual directions of the retired branches —
//! the same history an empty detailed pipeline would hold. Leaving a window
//! squashes every in-flight instruction (the window boundary is an exact
//! retirement count), then calls [`MemBackend::flush`](aim_backend::MemBackend::flush)
//! so no stale speculative state leaks into the next functional stretch;
//! the backend-conformance harness checks every backend survives exactly
//! this warm↔detail handoff.
//!
//! [`SimConfig::sample`]: crate::SimConfig::sample
//! [`Machine::run`]: crate::Machine::run
//!
//! Multi-core runs ([`crate::MultiMachine`]) schedule cores cycle by cycle
//! and ignore the sampling policy.

use aim_backend::MemKind;
use aim_isa::Retired;
use aim_types::SeqNum;

use crate::machine::{Core, SimError};
use crate::probe::{Probe, Stage};
use crate::stats::SampledStats;

/// Unmeasured detailed warm-up (pipeline fill) at the head of each detail
/// window: the first `min(detail_insts / RAMP_DIVISOR, ramp_cap)`
/// retirements prime the reorder buffer and queues but do not contribute to
/// the extrapolated cycle count. The cap keeps long windows from wasting
/// measurement, and it scales with the machine: a few hundred retirements
/// fill the baseline window, but a kilo-entry-window class (especially
/// behind a far-memory tier, where steady state means a window full of
/// in-flight far misses) needs a couple of window depths of fill before its
/// memory-level parallelism — and therefore its cycles-per-instruction —
/// is representative.
const RAMP_DIVISOR: u64 = 2;
const RAMP_CAP: u64 = 256;

/// Fill stretch before a mid-program detail window is representative, in
/// multiples of the reorder-buffer depth.
const RAMP_WINDOW_DEPTHS: u64 = 2;

/// Fixed-point scale of the warm clock's cycles-per-instruction pace: the
/// warm engine advances `self.cycle` by `cpi_fp / CPI_FP_ONE` cycles per
/// instruction (see [`Core::warm_to`]).
const CPI_FP_ONE: u64 = 256;

/// Floor on the warm clock's pace, so a noisy near-zero window rate can
/// never freeze time (frozen time would park far misses in flight forever).
const CPI_FP_MIN: u64 = CPI_FP_ONE / 32;

/// The warm clock's pace: the most recent window's measured rate, in
/// fixed-point cycles per instruction; one cycle per instruction before any
/// window has measured (only reachable through degenerate policies — the
/// schedule opens with a detail window).
fn warm_rate(windows: &[(u64, u64)]) -> u64 {
    windows
        .iter()
        .rev()
        .find(|w| w.0 > 0)
        .map(|&(r, c)| (c * CPI_FP_ONE / r).max(CPI_FP_MIN))
        .unwrap_or(CPI_FP_ONE)
}

/// Deterministic per-period hash (SplitMix64 finalizer) used to place each
/// detail window at a pseudo-random offset inside its period. Pure function
/// of the period index: sampled runs stay bit-reproducible.
fn window_jitter(period: u32) -> u64 {
    let mut z = (period as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stratified whole-run cycle estimate.
///
/// Every window's measured cycles count exactly once — a one-time transient
/// a window happens to contain (a phase change) is charged at face value,
/// never multiplied by the sampling factor — and `cold_cycles` (the cost of
/// window 0's genuine cold-start ramp, which is real work but a one-time
/// event no gap should inherit as a rate) is likewise added exactly once.
/// Each *gap* (the unmeasured stretch between a window and the next, i.e.
/// the window's ramp plus the warm stretch) is charged at the trapezoid
/// average of the two neighboring windows' cycles-per-instruction, which
/// tracks a drifting execution profile and halves the weight of any single
/// noisy window; the trailing gap after the last window uses that window's
/// rate alone. Returns `None` when no window measured anything (a
/// degenerate policy), leaving the caller's raw cycle count in place.
fn stratified_cycles(
    period_starts: &[u64],
    windows: &[(u64, u64)],
    cold: (u64, u64),
    total: u64,
) -> Option<u64> {
    let (cold_retired, cold_cycles) = cold;
    let mut est: u128 = cold_cycles as u128;
    let mut measured_any = false;
    for (p, &(retired, cycles)) in windows.iter().enumerate() {
        if retired == 0 {
            continue;
        }
        measured_any = true;
        est += cycles as u128;
        let start = period_starts[p];
        let end = period_starts.get(p + 1).copied().unwrap_or(total);
        // Window 0's cold-start ramp retirements are already charged at
        // face value through `cold_cycles`, so they are not part of the
        // gap to interpolate.
        let covered = if p == 0 {
            retired + cold_retired
        } else {
            retired
        };
        let gap = ((end - start).saturating_sub(covered)) as u128;
        let (r0, c0) = (retired as u128, cycles as u128);
        est += match windows.get(p + 1) {
            Some(&(rn, cn)) if rn > 0 => {
                let (rn, cn) = (rn as u128, cn as u128);
                if p == 0 {
                    // Window 0 sits at offset 0 to measure the program's
                    // cold start at face value, so even its post-ramp rate
                    // is cache-cold — far from representative of the
                    // hundreds of times longer gap it would otherwise be
                    // interpolated over. Charge gap 0 at the next window's
                    // (steady, jitter-placed) rate alone.
                    (gap * cn + rn / 2) / rn
                } else {
                    // gap × (c0/r0 + cn/rn) / 2, rounded.
                    let num = gap * (c0 * rn + cn * r0);
                    let den = 2 * r0 * rn;
                    (num + den / 2) / den
                }
            }
            _ => (gap * c0 + r0 / 2) / r0,
        };
    }
    measured_any.then(|| est.min(u64::MAX as u128) as u64)
}

impl Core<'_> {
    /// The sampled-mode driver behind [`Machine::run`](crate::Machine::run):
    /// alternates detail and warm phases per the configured
    /// [`SampleSpec`](aim_types::SampleSpec), then extrapolates whole-run
    /// statistics from the detailed windows.
    ///
    /// Each period runs its *detail window first*, then the warm stretch.
    /// Window 0 therefore opens at instruction 0 on the cold machine —
    /// exactly the state the full-detail run starts from — so the program's
    /// cold-start transient (cold caches, untrained predictors) is measured
    /// rather than silently skipped. Its ramp cycles are real work and are
    /// charged exactly once in the estimate, but they are *not* part of
    /// window 0's rate: a cold start is a one-time event, and letting its
    /// cycles-per-instruction leak into gap interpolation overcharges the
    /// first gap by the whole cold/steady CPI contrast (on a kilo-entry
    /// window behind the far tier that contrast is ~5×, which showed up as
    /// a double-digit whole-run IPC underestimate before the split).
    ///
    /// Cycle extrapolation is stratified: each window's cycles-per-
    /// instruction represents only its own period, so a non-stationary
    /// execution profile (an expensive start-up phase, a slow middle loop)
    /// is weighted by where it actually happened instead of being averaged
    /// into one global rate.
    pub(crate) fn run_sampled<P: Probe>(&mut self, probe: &mut P) -> Result<(), SimError> {
        let spec = self.config.sample.expect("run_sampled requires a policy");
        let wall_start = std::time::Instant::now();
        let total = self.target_retired;
        let mut coverage = SampledStats::default();
        // Per-period strata: the retirement index where each period began,
        // and each window's (measured retirements, measured cycles).
        let mut period_starts: Vec<u64> = Vec::with_capacity(spec.periods as usize);
        let mut windows: Vec<(u64, u64)> = Vec::with_capacity(spec.periods as usize);
        // Window 0's cold-start ramp: (retired, cycles), charged once.
        let mut cold = (0u64, 0u64);
        for period in 0..spec.periods {
            if self.stats.retired >= total {
                break;
            }
            period_starts.push(self.stats.retired);
            let period_begin = self.stats.retired;
            // Jittered (random-start) stratification: each period's window
            // sits at a deterministically pseudo-random offset within the
            // period instead of at its head. Systematic (fixed-offset)
            // placement aliases with periodic program structure — a kernel
            // whose outer loop divides the period parks every window on the
            // same slice of each iteration, turning gap interpolation into
            // a systematic bias. Window 0 stays at offset 0 so the cold
            // start is measured, not interpolated.
            if period > 0 {
                let jitter = window_jitter(period) % (spec.warm_insts + 1);
                if jitter > 0 {
                    let rate = warm_rate(&windows);
                    self.warm_to((period_begin + jitter).min(total), rate, &mut coverage)?;
                    probe.stage(Stage::Warm);
                    if self.stats.retired >= total {
                        // The program ended inside this period's leading
                        // warm stretch: no window measured, so the stretch
                        // belongs to the previous stratum's trailing gap.
                        period_starts.pop();
                        break;
                    }
                }
            }
            let window_target = (self.stats.retired + spec.detail_insts).min(total);
            // Every window opens on an empty pipeline, so measurement for
            // gap-rate purposes starts past a fill ramp (detailed warm-up,
            // SMARTS-style). For later windows the fill is a sampling
            // artifact and its cycles are discarded; window 0's fill is the
            // program's genuine cold start (cold caches, untrained
            // predictors), so its cycles are kept — charged exactly once in
            // the stratified estimate — while still being excluded from the
            // rate that gap interpolation extends over hundreds of times as
            // many instructions.
            let cap = RAMP_CAP.max(self.config.rob_entries as u64 * RAMP_WINDOW_DEPTHS);
            let ramp = (spec.detail_insts / RAMP_DIVISOR).min(cap);
            let ramp_target = (self.stats.retired + ramp).min(window_target);
            self.enter_detail(window_target);
            let ramp_start_cycle = self.cycle;
            let ramp_start_retired = self.stats.retired;
            while !self.halted && self.stats.retired < ramp_target {
                self.step(probe)?;
            }
            if period == 0 {
                cold = (
                    self.stats.retired - ramp_start_retired,
                    self.cycle - ramp_start_cycle,
                );
                coverage.detail_cycles += self.cycle - ramp_start_cycle;
                coverage.detail_retired += self.stats.retired - ramp_start_retired;
            }
            let start_cycle = self.cycle;
            let start_retired = self.stats.retired;
            while !self.halted {
                self.step(probe)?;
            }
            windows.push((self.stats.retired - start_retired, self.cycle - start_cycle));
            coverage.detail_cycles += self.cycle - start_cycle;
            coverage.detail_retired += self.stats.retired - start_retired;
            coverage.periods_run += 1;
            self.quiesce_detail(probe);
            if self.stats.retired < total {
                // Trailing warm stretch to the period boundary (the leading
                // jitter already consumed part of this period's warm
                // budget).
                let warm_target = (period_begin + spec.period_insts()).min(total);
                if warm_target > self.stats.retired {
                    self.warm_to(warm_target, warm_rate(&windows), &mut coverage)?;
                    probe.stage(Stage::Warm);
                }
            }
        }
        // Remainder of the program past the last scheduled period (folded
        // into the last period's stratum below).
        if self.stats.retired < total {
            self.warm_to(total, warm_rate(&windows), &mut coverage)?;
            probe.stage(Stage::Warm);
        }
        self.halted = true;
        self.target_retired = total;
        self.stats.cycles = self.cycle;
        self.stats.host.wall_ns = wall_start.elapsed().as_nanos() as u64;
        self.finalize_stats();
        self.stats.extrapolate(coverage);
        if let Some(est) = stratified_cycles(&period_starts, &windows, cold, total) {
            self.stats.cycles = est;
        }
        Ok(())
    }

    /// Runs the functional warm engine until `target` instructions have
    /// retired (architecturally); nothing is left in flight for the next
    /// detail window.
    ///
    /// `cpi_fp` paces the warm clock in 1/[`CPI_FP_ONE`]-cycle fixed-point
    /// steps per instruction. The hierarchy's timing-dependent state — far
    /// misses completing `latency` cycles after allocation, MSHR occupancy,
    /// replacement timestamps — lives on the same clock the detailed
    /// windows measure, so warm stretches must advance it at roughly the
    /// machine's real rate: a hardwired one-cycle-per-instruction clock
    /// spreads far misses out in time on any machine running above (or
    /// below) IPC 1, handing the next window quieter (or busier) MSHRs and
    /// a different replacement order than a continuous run would hold. The
    /// caller passes the most recent window's measured rate.
    fn warm_to(
        &mut self,
        target: u64,
        cpi_fp: u64,
        coverage: &mut SampledStats,
    ) -> Result<(), SimError> {
        debug_assert!(self.rob.is_empty(), "warm engine requires a drained window");
        // Warm register writes below wake no one: nothing may wait.
        if self.checks_enabled() {
            assert!(
                self.sched.is_idle(),
                "wake lists not empty across a warm stretch"
            );
        }
        let mut clock_acc: u64 = 0;
        // The detailed front end touches the I-cache once per fetch group,
        // not once per instruction, so straight-line code inside one line
        // collapses to a handful of touches. Warm fetch training dedups
        // consecutive same-line touches to match — and since sequential
        // code dominates, this halves the warm engine's hierarchy traffic.
        let line = self.config.hierarchy.l1i.line_bytes() as u64;
        let mut last_fetch_line = u64::MAX;
        while self.stats.retired < target {
            let cursor = self.stats.retired;
            let rec = self.trace.get(cursor).expect("target bounded by trace");
            clock_acc += cpi_fp;
            self.cycle += clock_acc / CPI_FP_ONE;
            clock_acc %= CPI_FP_ONE;
            let fetch_line = self.program.fetch_addr(rec.pc).0 / line;
            if fetch_line != last_fetch_line {
                let _ = self
                    .memsys
                    .access_instr_at(self.program.fetch_addr(rec.pc), self.cycle);
                last_fetch_line = fetch_line;
            }
            if rec.instr.is_cond_branch() {
                self.gshare
                    .warm_train(rec.pc, rec.taken(), Some(&mut self.oracle));
            }
            if let Some((reg, value)) = rec.reg_write {
                if !reg.is_zero() {
                    let p = self.renamer.lookup(reg);
                    self.renamer.write(p, value);
                }
            }
            if let Some((access, _)) = rec.mem_load {
                let value = self.memsys.read(access);
                let _ = self.memsys.access_data_at(access.addr(), self.cycle);
                self.warm_validate_load(&rec, value)?;
                self.backend.warm(MemKind::Load, rec.pc, access);
                self.stats.retired_loads += 1;
            } else if let Some((access, value)) = rec.mem_store {
                let _ = self.memsys.commit_store(access, value, self.cycle);
                self.backend.warm(MemKind::Store, rec.pc, access);
                self.stats.retired_stores += 1;
            }
            self.stats.retired += 1;
            coverage.warm_retired += 1;
        }
        self.last_retire_cycle = self.cycle;
        Ok(())
    }

    /// Checks a warm load's value, read from committed memory, against the
    /// golden trace.
    fn warm_validate_load(&self, rec: &Retired, value: u64) -> Result<(), SimError> {
        if !self.config.validate_retirement {
            return Ok(());
        }
        let (access, expect) = rec.mem_load.expect("load record has an access");
        if value != expect {
            return Err(SimError::Validation(format!(
                "warm load at pc {} (trace {}): expected {access}={expect:#x}, \
                 got {value:#x}",
                rec.pc, self.stats.retired
            )));
        }
        Ok(())
    }

    /// Points the detailed pipeline at the trace cursor with an empty
    /// window: fetch resumes on the correct path, and the gshare history
    /// holds the actual directions of every retired branch — the state an
    /// empty detailed pipeline would hold at this point.
    fn enter_detail(&mut self, window_target: u64) {
        debug_assert!(self.rob.is_empty() && self.fetch_buffer.is_empty());
        let cursor = self.stats.retired;
        self.target_retired = window_target;
        self.halted = false;
        self.fetch_halted = false;
        self.on_correct_path = true;
        self.trace_cursor = cursor;
        self.fetch_pc = self.trace.get(cursor).map_or(0, |r| r.pc);
        self.fetch_stall_until = self.cycle;
        let history = self.rebuild_history(cursor);
        self.gshare.restore_history(history);
        self.last_retire_cycle = self.cycle;
    }

    /// Drains a finished detail window back to architectural state: every
    /// in-flight instruction younger than the last retirement is squashed,
    /// the backend takes a full [`flush`](aim_backend::MemBackend::flush)
    /// (the warm↔detail handoff contract — no stale speculation state may
    /// survive into the functional stretch), and the speculative gshare
    /// history is rebuilt from retired reality.
    fn quiesce_detail<P: Probe>(&mut self, probe: &mut P) {
        let survivor = match self.rob.head() {
            Some(h) => SeqNum(h.seq.0 - 1),
            None => SeqNum(self.next_seq - 1),
        };
        let cursor = self.stats.retired;
        let resume_pc = self.trace.get(cursor).map_or(0, |r| r.pc);
        self.squash_and_redirect(survivor, resume_pc, Some(cursor), 0, probe);
        self.backend.flush();
        self.exec_events.clear();
        self.pending_violations.clear();
        let history = self.rebuild_history(cursor);
        self.gshare.restore_history(history);
        self.halted = false;
    }

    /// The gshare global history as of trace index `cursor`: the taken bits
    /// of the most recent retired conditional branches, oldest first — what
    /// a detailed pipeline's history register holds once every in-flight
    /// branch has resolved (mispredict recovery repairs each speculative
    /// bit to the actual direction).
    fn rebuild_history(&self, cursor: u64) -> u64 {
        let mut dirs = [false; 64];
        let mut n = 0;
        let mut i = cursor;
        while i > 0 && n < dirs.len() {
            i -= 1;
            let rec = self.trace.get(i).expect("cursor bounded by trace");
            if rec.instr.is_cond_branch() {
                dirs[n] = rec.taken();
                n += 1;
            }
        }
        let mut history = 0u64;
        for k in (0..n).rev() {
            history = (history << 1) | dirs[k] as u64;
        }
        history
    }
}
