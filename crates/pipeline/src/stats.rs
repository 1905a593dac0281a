//! Aggregate simulation statistics.

use std::fmt;

use aim_backend::{BackendStats, DispatchStall, MemKind, ReplayCause};
use aim_mem::{CacheStats, FarStats};
use aim_predictor::{GshareStats, PredictorStats};
use aim_types::percent;

/// Why dispatch stalled, cycle by cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DispatchStalls {
    /// Reorder buffer full.
    pub rob_full: u64,
    /// No free physical register.
    pub no_phys_reg: u64,
    /// Load queue full (LSQ backend only).
    pub lq_full: u64,
    /// Store queue full (LSQ backend only).
    pub sq_full: u64,
    /// Store FIFO full (bounded-FIFO configurations only).
    pub fifo_full: u64,
}

impl DispatchStalls {
    /// Records one backend-reported dispatch stall against exactly one
    /// counter. This is the single point where backend stall causes map to
    /// statistics — dispatch must call it once per stalled cycle, never per
    /// queued instruction behind the stall.
    pub fn record(&mut self, stall: DispatchStall) {
        match stall {
            DispatchStall::LoadQueueFull => self.lq_full += 1,
            DispatchStall::StoreQueueFull => self.sq_full += 1,
            DispatchStall::StoreFifoFull => self.fifo_full += 1,
        }
    }
}

/// Why memory instructions were dropped and replayed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Loads replayed on MDT set conflicts.
    pub load_mdt_conflicts: u64,
    /// Stores replayed on MDT set conflicts.
    pub store_mdt_conflicts: u64,
    /// Stores replayed on SFC set conflicts.
    pub store_sfc_conflicts: u64,
    /// Loads replayed on SFC corruption.
    pub load_corrupt: u64,
    /// Loads replayed on SFC partial matches (replay policy only).
    pub load_partial: u64,
    /// Loads replayed waiting for older stores (oracle/no-spec backends).
    pub order_waits: u64,
}

impl ReplayCounts {
    /// Total replays of any cause.
    pub fn total(&self) -> u64 {
        self.load_mdt_conflicts
            + self.store_mdt_conflicts
            + self.store_sfc_conflicts
            + self.load_corrupt
            + self.load_partial
            + self.order_waits
    }

    /// Records one backend-reported replay against exactly one counter.
    pub fn count(&mut self, kind: MemKind, cause: ReplayCause) {
        match (kind, cause) {
            (MemKind::Load, ReplayCause::MdtConflict) => self.load_mdt_conflicts += 1,
            (MemKind::Store, ReplayCause::MdtConflict) => self.store_mdt_conflicts += 1,
            (_, ReplayCause::SfcConflict) => self.store_sfc_conflicts += 1,
            (_, ReplayCause::Corrupt) => self.load_corrupt += 1,
            (_, ReplayCause::Partial) => self.load_partial += 1,
            (_, ReplayCause::OrderWait) => self.order_waits += 1,
        }
    }
}

/// Pipeline-flush counts by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushCounts {
    /// Branch misprediction recoveries.
    pub branch: u64,
    /// True dependence violation recoveries.
    pub true_dep: u64,
    /// Anti dependence violation recoveries.
    pub anti_dep: u64,
    /// Output dependence violation recoveries.
    pub output_dep: u64,
}

impl FlushCounts {
    /// Total flushes.
    pub fn total(&self) -> u64 {
        self.branch + self.true_dep + self.anti_dep + self.output_dep
    }

    /// Memory-ordering flushes only.
    pub fn memory(&self) -> u64 {
        self.true_dep + self.anti_dep + self.output_dep
    }
}

/// Host-side measurement of the simulation run itself (as opposed to the
/// simulated machine): wall-clock time and allocation-tracking counters.
///
/// Everything here depends on the host and is *not* deterministic; code
/// comparing runs for reproducibility should compare
/// [`SimStats::with_zeroed_host`] results instead of raw stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostPerf {
    /// Wall-clock nanoseconds spent inside the cycle loop.
    pub wall_ns: u64,
    /// Always zero since pipeline events became typed probes. Kept because
    /// the stats fingerprint hashes this `Debug` text; it goes with the
    /// canonical stats encoding (ROADMAP item 4).
    pub event_strings_built: u64,
}

/// Coverage record of a sampled (fast-forward) run: how much of the program
/// ran functionally vs cycle-accurately. Present on [`SimStats::sampled`]
/// only when the run sampled, in which case the whole-run event counters and
/// cycle count are *extrapolated* from the detailed windows (see
/// [`SimStats::extrapolate`]); the retired-instruction counts are always
/// exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SampledStats {
    /// Detailed windows actually completed (≤ the configured `periods`:
    /// short programs can end mid-schedule).
    pub periods_run: u32,
    /// Instructions retired by the functional warm-up engine.
    pub warm_retired: u64,
    /// Instructions retired inside detailed cycle-accurate windows.
    pub detail_retired: u64,
    /// Machine cycles spent inside detailed windows (the timing sample the
    /// whole-run cycle count scales up from).
    pub detail_cycles: u64,
}

impl SampledStats {
    /// Fraction of retired instructions that ran cycle-accurately, in
    /// percent.
    pub fn detail_fraction(&self) -> f64 {
        percent(self.detail_retired, self.warm_retired + self.detail_retired)
    }
}

/// Everything a simulation run measured.
#[derive(Clone, Default)]
pub struct SimStats {
    /// Executed machine cycles.
    pub cycles: u64,
    /// Retired (committed) instructions.
    pub retired: u64,
    /// Retired loads.
    pub retired_loads: u64,
    /// Retired stores.
    pub retired_stores: u64,
    /// Instructions fetched (including wrong-path).
    pub fetched: u64,
    /// Instructions dispatched into the window.
    pub dispatched: u64,
    /// Instructions issued to function units (includes replays).
    pub issued: u64,
    /// Instructions squashed by recoveries.
    pub squashed: u64,
    /// Dynamic loads that executed (attempts, including replays).
    pub load_executions: u64,
    /// Dynamic stores that executed (attempts, including replays).
    pub store_executions: u64,
    /// Loads forwarded in full from the SFC or store queue.
    pub loads_forwarded: u64,
    /// Head-of-ROB bypasses of the MDT/SFC (§2.2 lockup avoidance).
    pub head_bypasses: u64,
    /// Loads that skipped the MDT via the §4 search filter.
    pub mdt_filtered_loads: u64,
    /// Dispatch stall causes.
    pub dispatch_stalls: DispatchStalls,
    /// Replay causes.
    pub replays: ReplayCounts,
    /// Flush causes.
    pub flushes: FlushCounts,
    /// Conditional branches retired.
    pub branches_retired: u64,
    /// Conditional branch mispredicts (effective, after oracle).
    pub branch_mispredicts: u64,
    /// Counters from whichever memory-ordering backend ran — exactly one
    /// variant is populated, so reports never carry the other backends'
    /// fields as misleading nulls.
    pub backend: BackendStats,
    /// Gshare accuracy.
    pub gshare: GshareStats,
    /// Producer-set predictor counters.
    pub dep_predictor: PredictorStats,
    /// (L1I, L1D, L2) cache counters.
    pub caches: (CacheStats, CacheStats, CacheStats),
    /// Far-memory tier counters — populated only when the config carries a
    /// [`MemSpec::far`](aim_mem::MemSpec::far) tier. In a multi-core run
    /// the tier is shared, so every core reports the same aggregate.
    pub far: Option<FarStats>,
    /// Sampled-run coverage — populated only when the config carries a
    /// [`SampleSpec`](aim_types::SampleSpec), in which case the event
    /// counters and cycle count above are extrapolated from the detailed
    /// windows (retired counts stay exact).
    pub sampled: Option<SampledStats>,
    /// Host-side throughput measurement (non-deterministic; see
    /// [`HostPerf`]).
    pub host: HostPerf,
}

/// **Compatibility contract** (the hostperf differential gate fingerprints
/// `Debug` text of zeroed-host stats): a run without a far tier renders
/// byte-identically to the pre-far derived output — the `far` field is
/// printed only when populated, in which case the stats describe a machine
/// that could not previously be configured, so a new fingerprint is
/// correct.
impl fmt::Debug for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SimStats");
        d.field("cycles", &self.cycles)
            .field("retired", &self.retired)
            .field("retired_loads", &self.retired_loads)
            .field("retired_stores", &self.retired_stores)
            .field("fetched", &self.fetched)
            .field("dispatched", &self.dispatched)
            .field("issued", &self.issued)
            .field("squashed", &self.squashed)
            .field("load_executions", &self.load_executions)
            .field("store_executions", &self.store_executions)
            .field("loads_forwarded", &self.loads_forwarded)
            .field("head_bypasses", &self.head_bypasses)
            .field("mdt_filtered_loads", &self.mdt_filtered_loads)
            .field("dispatch_stalls", &self.dispatch_stalls)
            .field("replays", &self.replays)
            .field("flushes", &self.flushes)
            .field("branches_retired", &self.branches_retired)
            .field("branch_mispredicts", &self.branch_mispredicts)
            .field("backend", &self.backend)
            .field("gshare", &self.gshare)
            .field("dep_predictor", &self.dep_predictor)
            .field("caches", &self.caches);
        if self.far.is_some() {
            d.field("far", &self.far);
        }
        if self.sampled.is_some() {
            d.field("sampled", &self.sampled);
        }
        d.field("host", &self.host).finish()
    }
}

impl SimStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Memory-ordering violations per retired memory instruction, in percent
    /// (the paper's "rate of memory dependence violations").
    pub fn violation_rate(&self) -> f64 {
        percent(
            self.flushes.memory(),
            self.retired_loads + self.retired_stores,
        )
    }

    /// Fraction of retired loads that were replayed due to SFC corruption.
    pub fn corrupt_replay_rate(&self) -> f64 {
        percent(self.replays.load_corrupt, self.retired_loads)
    }

    /// Fraction of retired stores replayed on SFC set conflicts.
    pub fn sfc_conflict_rate(&self) -> f64 {
        percent(self.replays.store_sfc_conflicts, self.retired_stores)
    }

    /// Fraction of retired loads replayed on MDT set conflicts.
    pub fn mdt_conflict_rate(&self) -> f64 {
        percent(self.replays.load_mdt_conflicts, self.retired_loads)
    }

    /// Host wall-clock seconds spent simulating.
    pub fn host_seconds(&self) -> f64 {
        self.host.wall_ns as f64 / 1e9
    }

    /// Host throughput in simulated kilocycles per wall-clock second.
    pub fn sim_kcycles_per_sec(&self) -> f64 {
        if self.host.wall_ns == 0 {
            0.0
        } else {
            self.cycles as f64 / 1e3 / self.host_seconds()
        }
    }

    /// Host throughput in retired (simulated) million instructions per
    /// wall-clock second.
    pub fn retired_mips(&self) -> f64 {
        if self.host.wall_ns == 0 {
            0.0
        } else {
            self.retired as f64 / 1e6 / self.host_seconds()
        }
    }

    /// A copy with [`SimStats::host`] zeroed — the deterministic portion of
    /// the statistics, suitable for run-to-run equality comparison.
    pub fn with_zeroed_host(&self) -> SimStats {
        SimStats {
            host: HostPerf::default(),
            ..self.clone()
        }
    }

    /// Converts detailed-window measurements into whole-run estimates after
    /// a sampled run: every *event* counter (fetches, issues, replays,
    /// flushes, …) and the cycle count scale by
    /// `retired / sampled.detail_retired` — events accrue per detailed
    /// instruction, so the windows are a proportional sample of the whole
    /// run. The retired-instruction counts are left exact (every
    /// instruction really retired, functionally or in detail), and the
    /// *structure* statistics (backend, gshare, predictor, caches, far) stay
    /// raw whole-run counts — both engines drive those structures, so their
    /// totals are already complete.
    ///
    /// No-op (beyond recording `sampled`) when no detailed instruction
    /// retired.
    pub fn extrapolate(&mut self, sampled: SampledStats) {
        let den = sampled.detail_retired;
        if den > 0 {
            let num = self.retired;
            let scale = |x: u64| ((x as u128 * num as u128 + den as u128 / 2) / den as u128) as u64;
            self.cycles = scale(sampled.detail_cycles);
            self.fetched = scale(self.fetched);
            self.dispatched = scale(self.dispatched);
            self.issued = scale(self.issued);
            self.squashed = scale(self.squashed);
            self.load_executions = scale(self.load_executions);
            self.store_executions = scale(self.store_executions);
            self.loads_forwarded = scale(self.loads_forwarded);
            self.head_bypasses = scale(self.head_bypasses);
            self.mdt_filtered_loads = scale(self.mdt_filtered_loads);
            let d = &mut self.dispatch_stalls;
            d.rob_full = scale(d.rob_full);
            d.no_phys_reg = scale(d.no_phys_reg);
            d.lq_full = scale(d.lq_full);
            d.sq_full = scale(d.sq_full);
            d.fifo_full = scale(d.fifo_full);
            let r = &mut self.replays;
            r.load_mdt_conflicts = scale(r.load_mdt_conflicts);
            r.store_mdt_conflicts = scale(r.store_mdt_conflicts);
            r.store_sfc_conflicts = scale(r.store_sfc_conflicts);
            r.load_corrupt = scale(r.load_corrupt);
            r.load_partial = scale(r.load_partial);
            r.order_waits = scale(r.order_waits);
            let fl = &mut self.flushes;
            fl.branch = scale(fl.branch);
            fl.true_dep = scale(fl.true_dep);
            fl.anti_dep = scale(fl.anti_dep);
            fl.output_dep = scale(fl.output_dep);
            self.branches_retired = scale(self.branches_retired);
            self.branch_mispredicts = scale(self.branch_mispredicts);
        }
        self.sampled = Some(sampled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_computation() {
        let s = SimStats {
            cycles: 100,
            retired: 250,
            ..SimStats::default()
        };
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(SimStats::default().ipc(), 0.0);
    }

    #[test]
    fn rates() {
        let s = SimStats {
            retired_loads: 100,
            retired_stores: 100,
            flushes: FlushCounts {
                branch: 5,
                true_dep: 1,
                anti_dep: 1,
                output_dep: 0,
            },
            replays: ReplayCounts {
                load_corrupt: 20,
                store_sfc_conflicts: 50,
                load_mdt_conflicts: 16,
                ..ReplayCounts::default()
            },
            ..SimStats::default()
        };
        assert_eq!(s.violation_rate(), 1.0);
        assert_eq!(s.corrupt_replay_rate(), 20.0);
        assert_eq!(s.sfc_conflict_rate(), 50.0);
        assert_eq!(s.mdt_conflict_rate(), 16.0);
        assert_eq!(s.flushes.total(), 7);
        assert_eq!(s.replays.total(), 86);
    }

    #[test]
    fn debug_omits_far_until_populated() {
        // The fingerprint-compatibility contract: far-less stats must render
        // exactly as before the field existed.
        let s = SimStats::default();
        let text = format!("{s:?}");
        assert!(!text.contains("far"), "{text}");
        assert!(text.contains("caches: ") && text.contains("host: "), "{text}");
        let with_far = SimStats {
            far: Some(FarStats {
                accesses: 3,
                ..FarStats::default()
            }),
            ..SimStats::default()
        };
        let text = format!("{with_far:?}");
        assert!(text.contains("far: Some(FarStats { accesses: 3"), "{text}");
        // Field order around the optional field is preserved.
        let caches = text.find("caches: ").unwrap();
        let far = text.find("far: ").unwrap();
        let host = text.find("host: ").unwrap();
        assert!(caches < far && far < host);
    }

    #[test]
    fn debug_omits_sampled_until_populated() {
        // Same fingerprint contract as `far`: a non-sampled run renders
        // exactly as before the field existed.
        let s = SimStats::default();
        assert!(!format!("{s:?}").contains("sampled"));
        let with = SimStats {
            far: Some(FarStats::default()),
            sampled: Some(SampledStats {
                periods_run: 2,
                warm_retired: 900,
                detail_retired: 100,
                detail_cycles: 50,
            }),
            ..SimStats::default()
        };
        let text = format!("{with:?}");
        let far = text.find("far: ").unwrap();
        let sampled = text.find("sampled: Some(SampledStats").unwrap();
        let host = text.find("host: ").unwrap();
        assert!(far < sampled && sampled < host, "{text}");
    }

    #[test]
    fn extrapolate_scales_events_and_keeps_retired_exact() {
        let mut s = SimStats {
            cycles: 1_000_000, // warm-inflated; replaced by the estimate
            retired: 1_000,
            retired_loads: 300,
            retired_stores: 200,
            fetched: 120,
            issued: 110,
            loads_forwarded: 7,
            flushes: FlushCounts {
                branch: 3,
                ..FlushCounts::default()
            },
            ..SimStats::default()
        };
        s.extrapolate(SampledStats {
            periods_run: 4,
            warm_retired: 900,
            detail_retired: 100,
            detail_cycles: 50,
        });
        // Factor = 1000 / 100 = 10×.
        assert_eq!(s.cycles, 500);
        assert_eq!(s.fetched, 1_200);
        assert_eq!(s.issued, 1_100);
        assert_eq!(s.loads_forwarded, 70);
        assert_eq!(s.flushes.branch, 30);
        assert_eq!(s.retired, 1_000);
        assert_eq!(s.retired_loads, 300);
        assert_eq!(s.retired_stores, 200);
        assert_eq!(s.ipc(), 2.0);
        let c = s.sampled.unwrap();
        assert_eq!(c.detail_fraction(), 10.0);
    }

    #[test]
    fn extrapolate_with_no_detail_retired_only_records_coverage() {
        let mut s = SimStats {
            retired: 10,
            cycles: 10,
            fetched: 3,
            ..SimStats::default()
        };
        s.extrapolate(SampledStats::default());
        assert_eq!((s.cycles, s.fetched), (10, 3));
        assert_eq!(s.sampled, Some(SampledStats::default()));
    }

    #[test]
    fn dispatch_stall_record_increments_exactly_one_field() {
        // Regression for the once-duplicated load/store stall accounting:
        // each recorded stall must bump exactly one counter by exactly one.
        let cases = [
            (DispatchStall::LoadQueueFull, [1u64, 0, 0]),
            (DispatchStall::StoreQueueFull, [0, 1, 0]),
            (DispatchStall::StoreFifoFull, [0, 0, 1]),
        ];
        for (stall, expect) in cases {
            let mut d = DispatchStalls::default();
            d.record(stall);
            assert_eq!([d.lq_full, d.sq_full, d.fifo_full], expect, "{stall:?}");
            assert_eq!(d.rob_full, 0);
            assert_eq!(d.no_phys_reg, 0);
        }
    }

    #[test]
    fn replay_count_maps_kind_and_cause() {
        let mut r = ReplayCounts::default();
        r.count(MemKind::Load, ReplayCause::MdtConflict);
        r.count(MemKind::Store, ReplayCause::MdtConflict);
        r.count(MemKind::Store, ReplayCause::SfcConflict);
        r.count(MemKind::Load, ReplayCause::Corrupt);
        r.count(MemKind::Load, ReplayCause::Partial);
        r.count(MemKind::Load, ReplayCause::OrderWait);
        assert_eq!(r.load_mdt_conflicts, 1);
        assert_eq!(r.store_mdt_conflicts, 1);
        assert_eq!(r.store_sfc_conflicts, 1);
        assert_eq!(r.load_corrupt, 1);
        assert_eq!(r.load_partial, 1);
        assert_eq!(r.order_waits, 1);
        assert_eq!(r.total(), 6);
    }
}
