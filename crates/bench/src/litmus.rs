//! The memory-model litmus artifact (`BENCH_litmus.json`).
//!
//! The `aim-bench litmus` artifact runs the `aim-isa` litmus suite (SB, MP, LB,
//! IRIW and the store-to-load-forwarding variants) on every backend across
//! many seeded random core schedules, and records — per (test, backend) —
//! how many outcomes the operational reference model allows, how many the
//! real multi-core machine actually produced, and whether every produced
//! outcome was allowed (`contained`). The containment column is the
//! acceptance gate: a single `false` means a core's store leaked to a
//! sibling before retirement (or own-store forwarding broke), and the
//! run rejects.
//!
//! The report renders in the `aim-litmus-report/v1` schema through the
//! shared [`Report`] writer; `tests/golden/litmus.golden.json` pins its
//! layout.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::Report;
use aim_isa::{allowed_outcomes, litmus_suite, RefLimits};
use aim_pipeline::{run_litmus, BackendChoice, CoreSchedule, MachineClass, SimConfig};
use aim_types::wire::WireMsg;

/// One (litmus test, backend) cell of the report.
#[derive(Debug, Clone)]
pub struct LitmusRow {
    /// Litmus test name (`SB`, `SB+fwd`, `MP`, `MP+fwd`, `LB`, `IRIW`).
    pub test: String,
    /// Backend token (`nospec` … `oracle`).
    pub backend: String,
    /// Distinct outcomes the reference model allows.
    pub allowed_outcomes: usize,
    /// Distinct outcomes the machine produced across all schedules.
    pub observed_outcomes: usize,
    /// Whether every produced outcome was reference-allowed.
    pub contained: bool,
}

/// The litmus containment report.
#[derive(Debug, Clone)]
pub struct LitmusReport {
    /// Seeded random schedules per cell (round-robin runs in addition).
    pub schedules: u64,
    /// Whether the relaxed store-buffering outcome (`SB` → both loads
    /// stale) appeared on at least one backend — the non-vacuity signal.
    pub relaxed_reachable: bool,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// One row per (test, backend), suite-major in `BackendChoice::ALL`
    /// order.
    pub rows: Vec<LitmusRow>,
}

impl LitmusReport {
    /// Runs the whole suite on every backend under round-robin plus
    /// `schedules` seeded random schedules per cell.
    ///
    /// # Panics
    ///
    /// Panics if the reference model errors (state-budget overflow would be
    /// a suite bug) or a simulation fails.
    pub fn run(schedules: u64) -> LitmusReport {
        let start = Instant::now();
        let mut rows = Vec::new();
        let mut relaxed_reachable = false;
        for test in litmus_suite() {
            let allowed = allowed_outcomes(&test.programs, &test.observed, &RefLimits::default())
                .unwrap_or_else(|e| panic!("{}: reference model failed: {e}", test.name));
            for backend in BackendChoice::ALL {
                let cfg = SimConfig::machine(MachineClass::Baseline)
                    .backend(backend)
                    .build();
                let mut seen: BTreeSet<Vec<u64>> = BTreeSet::new();
                let mut contained = true;
                let mut all: Vec<CoreSchedule> = vec![CoreSchedule::RoundRobin];
                // Same seed family as the pipeline litmus integration test.
                all.extend((0..schedules).map(|i| CoreSchedule::Random {
                    seed: 0xC0FE + 2 * i + 1,
                }));
                for schedule in all {
                    let outcome = run_litmus(&test, &cfg, schedule).unwrap_or_else(|e| {
                        panic!(
                            "{} on {} under {schedule:?}: {e}",
                            test.name,
                            backend.token()
                        )
                    });
                    contained &= allowed.contains(&outcome);
                    seen.insert(outcome);
                }
                if test.name == "SB" && seen.contains(&vec![0, 0]) {
                    relaxed_reachable = true;
                }
                rows.push(LitmusRow {
                    test: test.name.to_string(),
                    backend: backend.token().to_string(),
                    allowed_outcomes: allowed.len(),
                    observed_outcomes: seen.len(),
                    contained,
                });
            }
        }
        LitmusReport {
            schedules,
            relaxed_reachable,
            wall_seconds: start.elapsed().as_secs_f64(),
            rows,
        }
    }

    /// Whether every cell's outcomes were contained in the allowed set.
    pub fn all_contained(&self) -> bool {
        self.rows.iter().all(|r| r.contained)
    }
}

/// The schedule count a run uses: `--schedules N` if given, else a
/// well-formed `AIM_LITMUS_SCHEDULES` value (`env`), else 200.
pub(crate) fn resolve_schedules(requested: Option<u64>, env: Option<&str>) -> u64 {
    requested
        .or_else(|| env.and_then(|v| v.parse().ok()))
        .unwrap_or(200)
}

impl Report for LitmusReport {
    const SCHEMA: &'static str = "aim-litmus-report/v1";
    const FILE: &'static str = "BENCH_litmus.json";
    type Row = LitmusRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", "table_litmus")
            .put_u64("schedules", self.schedules)
            .put_bool("relaxed_reachable", self.relaxed_reachable)
            .put_f64("wall_seconds", self.wall_seconds);
    }

    fn rows(&self) -> &[LitmusRow] {
        &self.rows
    }

    fn row(r: &LitmusRow, m: &mut WireMsg) {
        m.put_str("test", &r.test)
            .put_str("backend", &r.backend)
            .put_u64("allowed_outcomes", r.allowed_outcomes as u64)
            .put_u64("observed_outcomes", r.observed_outcomes as u64)
            .put_bool("contained", r.contained);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_small_run_is_contained_and_covers_the_grid() {
        let report = LitmusReport::run(2);
        // 6 tests × 6 backends.
        assert_eq!(report.rows.len(), 36);
        assert!(report.all_contained(), "containment must hold: {report:?}");
        for row in &report.rows {
            assert!(row.allowed_outcomes >= 1, "{row:?}");
            assert!(
                row.observed_outcomes >= 1 && row.observed_outcomes <= row.allowed_outcomes,
                "{row:?}"
            );
        }
    }

    #[test]
    fn schedules_fall_back_to_the_env_then_200() {
        assert_eq!(resolve_schedules(Some(8), Some("50")), 8);
        assert_eq!(resolve_schedules(None, Some("50")), 50);
        assert_eq!(resolve_schedules(None, Some("many")), 200);
        assert_eq!(resolve_schedules(None, None), 200);
    }

    #[test]
    fn json_carries_schema_and_rows() {
        let report = LitmusReport {
            schedules: 7,
            relaxed_reachable: true,
            wall_seconds: 0.25,
            rows: vec![LitmusRow {
                test: "SB".to_string(),
                backend: "lsq".to_string(),
                allowed_outcomes: 3,
                observed_outcomes: 2,
                contained: true,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-litmus-report/v1\""));
        assert!(json.contains("\"schedules\": 7"));
        assert!(json.contains("\"relaxed_reachable\": true"));
        assert!(json.contains("\"test\": \"SB\""));
        assert!(json.contains("\"contained\": true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
