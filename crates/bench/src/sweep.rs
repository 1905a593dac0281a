//! Machine-readable host-throughput reports (`BENCH_sweep.json`).
//!
//! Every matrix artifact records how fast the *host* simulated its sweep
//! — simulated kilocycles per wall-clock second per cell, plus the total
//! sweep wall time and the worker count — so performance regressions in the
//! simulator itself show up in CI artifacts, not just in patience.
//!
//! The report renders in the `aim-bench-sweep/v1` schema through the shared
//! [`Report`] writer; `tests/golden/sweep.golden.json` pins its layout.

use crate::{Matrix, Prepared, Report};
use aim_pipeline::SimConfig;
use aim_types::wire::WireMsg;

/// One (workload, config) cell of a sweep report.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Workload name.
    pub workload: String,
    /// Configuration name.
    pub config: String,
    /// Simulated cycles.
    pub sim_cycles: u64,
    /// Retired (simulated) instructions.
    pub retired: u64,
    /// Host wall-clock seconds spent in the cycle loop.
    pub host_seconds: f64,
    /// Simulated kilocycles per host second.
    pub kcycles_per_sec: f64,
    /// Retired simulated million instructions per host second.
    pub retired_mips: f64,
}

/// Host-throughput summary of one sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Which artifact produced this (its spec name, e.g. `fig5_baseline`).
    pub artifact: String,
    /// Worker threads the sweep used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Per-cell throughput rows, workload-major.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// Builds a report from a finished matrix. `prepared` and `configs`
    /// must be the slices the matrix was run over.
    pub fn from_matrix(
        artifact: &str,
        jobs: usize,
        wall: std::time::Duration,
        prepared: &[Prepared],
        configs: &[(String, SimConfig)],
        matrix: &Matrix,
    ) -> SweepReport {
        let rows = matrix
            .iter()
            .map(|(w, c, stats)| SweepRow {
                workload: prepared[w].name.to_string(),
                config: configs[c].0.clone(),
                sim_cycles: stats.cycles,
                retired: stats.retired,
                host_seconds: stats.host_seconds(),
                kcycles_per_sec: stats.sim_kcycles_per_sec(),
                retired_mips: stats.retired_mips(),
            })
            .collect();
        SweepReport {
            artifact: artifact.to_string(),
            jobs,
            wall_seconds: wall.as_secs_f64(),
            rows,
        }
    }

    /// Writes the report to the default location and prints a one-line
    /// throughput summary; a write failure is reported on stderr, not fatal.
    pub fn emit(&self) {
        match self.write_default() {
            Ok(path) => println!(
                "sweep: {} cells in {:.2}s on {} job(s) — {path}",
                self.rows.len(),
                self.wall_seconds,
                self.jobs
            ),
            Err(e) => eprintln!("sweep report not written: {e}"),
        }
    }
}

impl Report for SweepReport {
    const SCHEMA: &'static str = "aim-bench-sweep/v1";
    const FILE: &'static str = "BENCH_sweep.json";
    type Row = SweepRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", &self.artifact)
            .put_u64("jobs", self.jobs as u64)
            .put_f64("wall_seconds", self.wall_seconds);
    }

    fn rows(&self) -> &[SweepRow] {
        &self.rows
    }

    fn row(r: &SweepRow, m: &mut WireMsg) {
        m.put_str("workload", &r.workload)
            .put_str("config", &r.config)
            .put_u64("sim_cycles", r.sim_cycles)
            .put_u64("retired", r.retired)
            .put_f64("host_seconds", r.host_seconds)
            .put_f64("kcycles_per_sec", r.kcycles_per_sec)
            .put_f64("retired_mips", r.retired_mips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_and_number_hygiene() {
        // Strings go through the wire's one escaper and floats through its
        // number format: six decimals, non-finite rates rendered as 0.
        let report = SweepReport {
            artifact: "a\"b\\c\tz".to_string(),
            jobs: 1,
            wall_seconds: f64::NAN,
            rows: vec![SweepRow {
                workload: "gzip".to_string(),
                config: "lsq".to_string(),
                sim_cycles: u64::MAX,
                retired: 0,
                host_seconds: 1.5,
                kcycles_per_sec: f64::INFINITY,
                retired_mips: -0.25,
            }],
        };
        assert_eq!(
            report.to_json(),
            "{\n  \"schema\": \"aim-bench-sweep/v1\",\n  \"artifact\": \"a\\\"b\\\\c\\u0009z\",\n  \
             \"jobs\": 1,\n  \"wall_seconds\": 0.000000,\n  \"rows\": [\n    {\"workload\": \"gzip\", \
             \"config\": \"lsq\", \"sim_cycles\": 18446744073709551615, \"retired\": 0, \
             \"host_seconds\": 1.500000, \"kcycles_per_sec\": 0.000000, \"retired_mips\": -0.250000}\n  \
             ]\n}\n"
        );
    }

    #[test]
    fn report_renders_schema_and_rows() {
        let report = SweepReport {
            artifact: "unit".to_string(),
            jobs: 3,
            wall_seconds: 0.25,
            rows: vec![SweepRow {
                workload: "gzip".to_string(),
                config: "lsq".to_string(),
                sim_cycles: 100,
                retired: 50,
                host_seconds: 0.01,
                kcycles_per_sec: 10.0,
                retired_mips: 0.005,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-bench-sweep/v1\""));
        assert!(json.contains("\"artifact\": \"unit\""));
        assert!(json.contains("\"jobs\": 3"));
        assert!(json.contains("\"workload\": \"gzip\""));
        assert!(json.contains("\"sim_cycles\": 100"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
