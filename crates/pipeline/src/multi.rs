//! The multi-core machine: several [`Core`] pipelines over one shared
//! memory system, driven by a deterministic core scheduler.
//!
//! Each core runs its own program (with its own golden trace for fetch
//! steering) and owns private L1 caches. The machine keeps the one
//! [`SharedMemSystem`] (committed memory, the unified L2, the far tier)
//! and lends it to the core it steps, taking it back after the step
//! (round-robin) or the burst (random): one core touches it at a time, as
//! in the litmus harness's operational model. The scheduler decides which
//! core advances next — round-robin for the canonical interleaving, or a
//! seeded random walk so the litmus harness can explore many
//! interleavings reproducibly.
//!
//! A `MultiMachine` with one core is *bit-identical* to the historical
//! single-core [`Machine`]: `Core::sibling` folds the core id into the
//! oracle seed with an identity at core 0, every core walks the same
//! [`CoreMemSys`] latency ladder, and the round-robin scheduler
//! degenerates to the single-core cycle loop. The hostperf `--check` gate
//! asserts this across the full configuration matrix.
//!
//! [`CoreMemSys`]: aim_mem::CoreMemSys
//! [`Machine`]: crate::Machine

use aim_isa::{Interpreter, LitmusTest, Program, Trace};
use aim_mem::{MainMemory, SharedMemSystem};

use crate::config::SimConfig;
use crate::machine::{Core, SimError};
use crate::stats::SimStats;

/// Which core advances on each global scheduling quantum.
///
/// Both schedules are deterministic: the same schedule value over the same
/// programs and configuration reproduces the same execution exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreSchedule {
    /// Every non-halted core steps once per global tick, in core-id order.
    /// With one core this is exactly the single-core cycle loop.
    RoundRobin,
    /// One uniformly chosen non-halted core advances a burst of 1–128
    /// cycles per global quantum, both drawn from a seeded xorshift stream.
    /// Bursts (rather than single cycles) matter: they let one core freeze
    /// at an arbitrary pipeline point — say, between a sibling-visible
    /// store executing and it committing — while another runs far past it,
    /// which is what surfaces the relaxed litmus outcomes. Different seeds
    /// give different interleavings; the litmus harness sweeps hundreds.
    Random {
        /// Stream seed (zero is remapped internally; any value is valid).
        seed: u64,
    },
}

/// Per-core and merged statistics of a multi-core run.
#[derive(Debug, Clone)]
pub struct MultiStats {
    /// One entry per core, in core-id order.
    pub per_core: Vec<SimStats>,
    /// Whole-machine view: counters summed, `cycles` the maximum over
    /// cores, L1 counters summed, the shared L2 counted once, and
    /// [`BackendStats::None`](aim_backend::BackendStats) (per-backend
    /// counters stay per-core — summing different variants is meaningless).
    pub merged: SimStats,
}

/// Architectural end state of a multi-core run.
#[derive(Debug)]
pub struct MultiFinalState {
    /// Final `r0..r31` per core, in core-id order.
    pub regs: Vec<Vec<u64>>,
    /// The shared committed memory image.
    pub mem: MainMemory,
}

/// Several cores over one shared memory system.
///
/// # Examples
///
/// Two cores, each running its own program, round-robin scheduled:
///
/// ```
/// use aim_isa::{Assembler, Interpreter, Reg};
/// use aim_pipeline::{BackendChoice, CoreSchedule, MachineClass, MultiMachine, SimConfig};
///
/// let mut asm = Assembler::new();
/// asm.movi(Reg::new(1), 7);
/// asm.halt();
/// let p0 = asm.assemble().unwrap();
/// let t0 = Interpreter::new(&p0).run(100).unwrap();
/// let p1 = p0.clone();
/// let t1 = Interpreter::new(&p1).run(100).unwrap();
///
/// let cfg = SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build();
/// let mm = MultiMachine::new(&[(&p0, &t0), (&p1, &t1)], cfg);
/// let stats = mm.run(CoreSchedule::RoundRobin).unwrap();
/// assert_eq!(stats.per_core.len(), 2);
/// assert_eq!(stats.merged.retired, 4);
/// ```
pub struct MultiMachine<'a> {
    cores: Vec<Core<'a>>,
    /// The shared tier between steps; `None` while a core holds it.
    shared: Option<SharedMemSystem>,
}

impl<'a> MultiMachine<'a> {
    /// Builds an N-core machine: one `(program, trace)` pair per core, all
    /// cores identically configured (core 0 keeps the seed verbatim,
    /// siblings fold their id in).
    ///
    /// Initial shared memory is the programs' data images written in core
    /// order (later cores win on overlap, which well-formed multi-core
    /// workloads avoid).
    pub fn new(workloads: &[(&'a Program, &'a Trace)], config: SimConfig) -> MultiMachine<'a> {
        let mut mem = MainMemory::new();
        for (program, _) in workloads {
            for (addr, bytes) in program.data() {
                mem.write_bytes(*addr, bytes);
            }
        }
        let shared = Some(SharedMemSystem::new(mem, config.hierarchy));
        let cores = workloads
            .iter()
            .enumerate()
            .map(|(id, (program, trace))| Core::sibling(program, trace, config.clone(), id))
            .collect();
        MultiMachine { cores, shared }
    }

    /// Number of attached cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Runs all cores to completion under `schedule` and returns per-core
    /// plus merged statistics.
    ///
    /// # Errors
    ///
    /// Any core's [`SimError`] aborts the whole run (validation errors name
    /// the offending core's program state).
    pub fn run(mut self, schedule: CoreSchedule) -> Result<MultiStats, SimError> {
        self.run_loop(schedule)?;
        Ok(self.collect_stats())
    }

    /// Like [`MultiMachine::run`], but also returns the architectural end
    /// state (per-core register files and the shared memory image).
    ///
    /// # Errors
    ///
    /// See [`MultiMachine::run`].
    pub fn run_final(
        mut self,
        schedule: CoreSchedule,
    ) -> Result<(MultiStats, MultiFinalState), SimError> {
        self.run_loop(schedule)?;
        let stats = self.collect_stats();
        let regs = self.cores.iter().map(Core::arch_regs).collect();
        let mem = self.shared.expect("the tier is home").into_memory();
        Ok((stats, MultiFinalState { regs, mem }))
    }

    fn run_loop(&mut self, schedule: CoreSchedule) -> Result<(), SimError> {
        let wall_start = std::time::Instant::now();
        // A core with an empty trace has nothing to retire; it is born
        // halted (mirroring the single-core run_loop's early return).
        for core in &mut self.cores {
            if core.target_retired == 0 {
                core.halted = true;
            }
        }
        match schedule {
            CoreSchedule::RoundRobin => loop {
                let mut live = false;
                for core in &mut self.cores {
                    if !core.halted {
                        live = true;
                        lend(&mut self.shared, core, |core| core.step(&mut ()))?;
                    }
                }
                if !live {
                    break;
                }
            },
            CoreSchedule::Random { seed } => {
                let mut rng = Xorshift64Star::new(seed);
                loop {
                    let live: Vec<usize> = (0..self.cores.len())
                        .filter(|&i| !self.cores[i].halted)
                        .collect();
                    if live.is_empty() {
                        break;
                    }
                    let pick = live[(rng.next() % live.len() as u64) as usize];
                    let burst = (rng.next() % 128) + 1;
                    lend(&mut self.shared, &mut self.cores[pick], |core| {
                        for _ in 0..burst {
                            if core.halted {
                                break;
                            }
                            core.step(&mut ())?;
                        }
                        Ok(())
                    })?;
                }
            }
        }
        let wall_ns = wall_start.elapsed().as_nanos() as u64;
        // Re-finalize every core now that the machine is quiescent, so all
        // per-core stats carry the *same* final shared-L2 snapshot (each
        // core froze its own copy at its own halt time above).
        for core in &mut self.cores {
            core.stats.cycles = core.cycle;
            lend(&mut self.shared, core, Core::finalize_stats);
            core.stats.host.wall_ns = wall_ns;
        }
        Ok(())
    }

    fn collect_stats(&self) -> MultiStats {
        let per_core: Vec<SimStats> = self.cores.iter().map(|c| c.stats.clone()).collect();
        let merged = merge_stats(&per_core);
        MultiStats { per_core, merged }
    }
}

/// Lends the shared tier to `core` for `f`, then takes it back.
fn lend<'a, R>(
    shared: &mut Option<SharedMemSystem>,
    core: &mut Core<'a>,
    f: impl FnOnce(&mut Core<'a>) -> R,
) -> R {
    core.memsys
        .receive(shared.take().expect("the tier is home between steps"));
    let result = f(core);
    *shared = Some(core.memsys.hand_back());
    result
}

/// Merges per-core statistics into a whole-machine view (see
/// [`MultiStats::merged`] for the conventions).
fn merge_stats(per_core: &[SimStats]) -> SimStats {
    let mut m = SimStats::default();
    for (i, s) in per_core.iter().enumerate() {
        m.cycles = m.cycles.max(s.cycles);
        m.retired += s.retired;
        m.retired_loads += s.retired_loads;
        m.retired_stores += s.retired_stores;
        m.fetched += s.fetched;
        m.dispatched += s.dispatched;
        m.issued += s.issued;
        m.squashed += s.squashed;
        m.load_executions += s.load_executions;
        m.store_executions += s.store_executions;
        m.loads_forwarded += s.loads_forwarded;
        m.head_bypasses += s.head_bypasses;
        m.mdt_filtered_loads += s.mdt_filtered_loads;
        m.dispatch_stalls.rob_full += s.dispatch_stalls.rob_full;
        m.dispatch_stalls.no_phys_reg += s.dispatch_stalls.no_phys_reg;
        m.dispatch_stalls.lq_full += s.dispatch_stalls.lq_full;
        m.dispatch_stalls.sq_full += s.dispatch_stalls.sq_full;
        m.dispatch_stalls.fifo_full += s.dispatch_stalls.fifo_full;
        m.replays.load_mdt_conflicts += s.replays.load_mdt_conflicts;
        m.replays.store_mdt_conflicts += s.replays.store_mdt_conflicts;
        m.replays.store_sfc_conflicts += s.replays.store_sfc_conflicts;
        m.replays.load_corrupt += s.replays.load_corrupt;
        m.replays.load_partial += s.replays.load_partial;
        m.replays.order_waits += s.replays.order_waits;
        m.flushes.branch += s.flushes.branch;
        m.flushes.true_dep += s.flushes.true_dep;
        m.flushes.anti_dep += s.flushes.anti_dep;
        m.flushes.output_dep += s.flushes.output_dep;
        m.branches_retired += s.branches_retired;
        m.branch_mispredicts += s.branch_mispredicts;
        m.gshare.correct += s.gshare.correct;
        m.gshare.incorrect += s.gshare.incorrect;
        m.dep_predictor.arcs_inserted += s.dep_predictor.arcs_inserted;
        m.dep_predictor.arcs_filtered += s.dep_predictor.arcs_filtered;
        m.dep_predictor.producers_dispatched += s.dep_predictor.producers_dispatched;
        m.dep_predictor.consumers_dispatched += s.dep_predictor.consumers_dispatched;
        m.dep_predictor.merges += s.dep_predictor.merges;
        m.dep_predictor.clears += s.dep_predictor.clears;
        // Private L1s sum; the shared L2 snapshot is identical across cores
        // after the final re-finalization, so it is taken once.
        m.caches.0.hits += s.caches.0.hits;
        m.caches.0.misses += s.caches.0.misses;
        m.caches.1.hits += s.caches.1.hits;
        m.caches.1.misses += s.caches.1.misses;
        if i == 0 {
            m.caches.2 = s.caches.2;
            m.host.wall_ns = s.host.wall_ns;
        }
        // m.backend stays BackendStats::None: per-backend counters are
        // variant-typed and remain meaningful only per core.
    }
    m
}

/// Runs one litmus test on real pipelines under one schedule and returns
/// the observed-register outcome vector (same order as `test.observed`).
///
/// Each core's program is first run through the isolated single-core
/// [`Interpreter`] to produce the trace that steers its fetch stage —
/// litmus programs are straight-line, so steering is value-independent —
/// and golden-trace retirement validation is disabled
/// ([`SimConfig::validate_retirement`]): sibling stores legitimately change
/// the values loads observe.
///
/// # Errors
///
/// [`SimError::Program`] if a litmus program fails under the interpreter;
/// otherwise any [`SimError`] from the pipelines themselves.
pub fn run_litmus(
    test: &LitmusTest,
    config: &SimConfig,
    schedule: CoreSchedule,
) -> Result<Vec<u64>, SimError> {
    let traces: Vec<Trace> = test
        .programs
        .iter()
        .map(|p| {
            Interpreter::new(p)
                .run(100_000)
                .map_err(|e| SimError::Program(format!("litmus {}: {e}", test.name)))
        })
        .collect::<Result<_, _>>()?;
    let workloads: Vec<(&Program, &Trace)> = test.programs.iter().zip(traces.iter()).collect();
    let mut cfg = config.clone();
    cfg.validate_retirement = false;
    let mm = MultiMachine::new(&workloads, cfg);
    let (_, final_state) = mm.run_final(schedule)?;
    Ok(test
        .observed
        .iter()
        .map(|&(core, reg)| final_state.regs[core][reg.index() as usize])
        .collect())
}

/// xorshift64* — tiny deterministic stream for the random core schedule.
struct Xorshift64Star {
    state: u64,
}

impl Xorshift64Star {
    fn new(seed: u64) -> Xorshift64Star {
        Xorshift64Star {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendChoice, Machine, MachineClass};
    use aim_isa::{Assembler, Reg};

    fn cfg(backend: BackendChoice) -> SimConfig {
        SimConfig::machine(MachineClass::Baseline)
            .backend(backend)
            .build()
    }

    fn loop_program_at(iters: i64, base: i64) -> (Program, Trace) {
        let r = Reg::new;
        let mut asm = Assembler::new();
        asm.movi(r(1), iters);
        asm.movi(r(2), base);
        asm.movi(r(4), 0);
        asm.label("loop");
        asm.sd(r(1), r(2), 0);
        asm.ld(r(3), r(2), 0);
        asm.add(r(4), r(4), r(3));
        asm.subi(r(1), r(1), 1);
        asm.bne(r(1), Reg::ZERO, "loop");
        asm.halt();
        let program = asm.assemble().unwrap();
        let trace = Interpreter::new(&program).run(1_000_000).unwrap();
        (program, trace)
    }

    fn loop_program(iters: i64) -> (Program, Trace) {
        loop_program_at(iters, 0x1000)
    }

    #[test]
    fn single_core_multi_matches_machine_exactly() {
        let (program, trace) = loop_program(64);
        let solo = Machine::new(&program, &trace, cfg(BackendChoice::SfcMdt))
            .run()
            .unwrap();
        let multi = MultiMachine::new(&[(&program, &trace)], cfg(BackendChoice::SfcMdt))
            .run(CoreSchedule::RoundRobin)
            .unwrap();
        assert_eq!(multi.per_core.len(), 1);
        assert_eq!(
            format!("{:?}", solo.with_zeroed_host()),
            format!("{:?}", multi.per_core[0].with_zeroed_host()),
            "one-core MultiMachine must be bit-identical to Machine"
        );
    }

    #[test]
    fn merged_stats_sum_counters_and_take_l2_once() {
        // Disjoint working sets: each core validates against its own
        // isolated golden trace, so they must not share mutable words.
        let (p0, t0) = loop_program_at(32, 0x1000);
        let (p1, t1) = loop_program_at(48, 0x8000);
        let multi = MultiMachine::new(&[(&p0, &t0), (&p1, &t1)], cfg(BackendChoice::Lsq))
            .run(CoreSchedule::RoundRobin)
            .unwrap();
        let m = &multi.merged;
        let a = &multi.per_core[0];
        let b = &multi.per_core[1];
        assert_eq!(m.retired, a.retired + b.retired);
        assert_eq!(m.cycles, a.cycles.max(b.cycles));
        assert_eq!(m.caches.1.hits, a.caches.1.hits + b.caches.1.hits);
        // Shared L2: both cores snapshot the same final state.
        assert_eq!(a.caches.2, b.caches.2);
        assert_eq!(m.caches.2, a.caches.2);
        assert!(matches!(m.backend, aim_backend::BackendStats::None));
    }

    #[test]
    fn random_schedule_is_deterministic_per_seed() {
        let suite = aim_isa::litmus_suite();
        let sb = &suite[0];
        let c = cfg(BackendChoice::SfcMdt);
        let a = run_litmus(sb, &c, CoreSchedule::Random { seed: 17 }).unwrap();
        let b = run_litmus(sb, &c, CoreSchedule::Random { seed: 17 }).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn litmus_outcome_has_observed_arity() {
        for test in aim_isa::litmus_suite() {
            let o = run_litmus(&test, &cfg(BackendChoice::Lsq), CoreSchedule::RoundRobin).unwrap();
            assert_eq!(o.len(), test.observed.len(), "{}", test.name);
        }
    }
}
