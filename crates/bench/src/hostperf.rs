//! The host-throughput perf-trajectory artifact (`BENCH_hostperf.json`).
//!
//! [`SweepReport`](crate::SweepReport) records per-cell host throughput for
//! whichever sweep a binary happened to run; this module is the dedicated
//! *tracking* artifact: one row per backend × machine class, aggregated over
//! every kernel, so successive commits can be compared backend-by-backend
//! ("did the SoA table rewrite actually speed up the SFC/MDT cycle loop?").
//!
//! The report doubles as a **differential gate**: it carries an FNV-1a
//! fingerprint over every cell's host-independent [`SimStats`] (workload-
//! major, `Debug`-rendered with the wall clock zeroed). Any change to any
//! architectural statistic — cycle counts, violation counts, occupancy
//! peaks — anywhere in the (kernel × backend) matrix changes the
//! fingerprint, so a perf refactor that claims to be behaviour-preserving
//! can be checked with one word. `scripts/tier1.sh` runs the
//! `table_hostperf` binary's `--check` mode, which replays the matrix on a
//! single worker and rejects if the fingerprints diverge (jobs=N ≡ jobs=1
//! determinism).
//!
//! Emitted JSON (`aim-hostperf-report/v1`, hand-written — no serde in the
//! offline build):
//!
//! ```json
//! {
//!   "schema": "aim-hostperf-report/v1",
//!   "artifact": "table_hostperf",
//!   "scale": "small",
//!   "jobs": 1,
//!   "wall_seconds": 2.345678,
//!   "stats_fingerprint": "0x1234abcd5678ef90",
//!   "rows": [
//!     {
//!       "config": "base-sfc-mdt-enf",
//!       "machine": "baseline",
//!       "backend": "sfc-mdt-enf",
//!       "sim_cycles": 1933440,
//!       "retired": 1100000,
//!       "host_seconds": 0.14,
//!       "kcycles_per_sec": 13810.3,
//!       "retired_mips": 7.857
//!     }
//!   ]
//! }
//! ```

use crate::sweep::{json_escape, json_number};
use crate::Matrix;
use aim_pipeline::{MachineClass, SimConfig};
use aim_workloads::Scale;

/// One backend × machine-class row, aggregated over every workload.
#[derive(Debug, Clone)]
pub struct HostperfRow {
    /// Configuration name (`base-…` / `aggr-…`).
    pub config: String,
    /// Machine class (`baseline` / `aggressive`), from the config prefix.
    pub machine: String,
    /// Backend label (the config name minus the machine prefix).
    pub backend: String,
    /// Total simulated cycles over all workloads.
    pub sim_cycles: u64,
    /// Total retired (simulated) instructions over all workloads.
    pub retired: u64,
    /// Total host wall-clock seconds in the cycle loop over all workloads.
    pub host_seconds: f64,
    /// Aggregate simulated kilocycles per host second.
    pub kcycles_per_sec: f64,
    /// Aggregate retired simulated MIPS.
    pub retired_mips: f64,
}

/// The per-backend host-throughput report.
#[derive(Debug, Clone)]
pub struct HostperfReport {
    /// Workload scale the matrix ran at.
    pub scale: Scale,
    /// Worker threads used.
    pub jobs: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// [`stats_fingerprint`] of the matrix.
    pub stats_fingerprint: u64,
    /// One row per configuration, in spec order.
    pub rows: Vec<HostperfRow>,
}


/// FNV-1a over the `Debug` rendering of each statistics record with its
/// host-dependent [`HostPerf`](aim_pipeline::HostPerf) fields zeroed: one
/// word that changes iff *any* architectural statistic changes anywhere in
/// the sequence. The order of the iterator matters — callers hashing the
/// same cells must present them in the same order.
pub fn fingerprint_stats<'a, I>(stats: I) -> u64
where
    I: IntoIterator<Item = &'a aim_pipeline::SimStats>,
{
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hash = FNV_OFFSET;
    for s in stats {
        hash = crate::cache_key::fnv1a(hash, format!("{:?}", s.with_zeroed_host()).bytes());
    }
    hash
}

/// The fingerprint of one already-rendered statistics text (the
/// `Debug`-with-zeroed-host form [`fingerprint_stats`] hashes). For a
/// single record, `fingerprint_text(&format!("{:?}", s.with_zeroed_host()))
/// == fingerprint_stats([&s])` — the identity the `aim-serve` result cache
/// relies on to re-fingerprint a cached entry without deserializing it.
pub fn fingerprint_text(text: &str) -> u64 {
    fingerprint_texts(std::iter::once(text))
}

/// [`fingerprint_text`] chained over several texts in order (equals
/// [`fingerprint_stats`] over the corresponding records).
pub fn fingerprint_texts<'a, I>(texts: I) -> u64
where
    I: IntoIterator<Item = &'a str>,
{
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    let mut hash = FNV_OFFSET;
    for text in texts {
        hash = crate::cache_key::fnv1a(hash, text.bytes());
    }
    hash
}

/// [`fingerprint_stats`] over a whole matrix, workload-major — the word
/// `BENCH_hostperf.json` records and the `--check` replays compare against.
pub fn stats_fingerprint(matrix: &Matrix) -> u64 {
    fingerprint_stats(matrix.iter().map(|(_, _, s)| s))
}

impl HostperfReport {
    /// Aggregates a finished matrix into per-config rows. `configs` must be
    /// the slice the matrix was run over, named with the `base-`/`aggr-`
    /// machine-class prefix convention.
    pub fn from_matrix(
        scale: Scale,
        jobs: usize,
        wall: std::time::Duration,
        configs: &[(String, SimConfig)],
        matrix: &Matrix,
    ) -> HostperfReport {
        let rows = configs
            .iter()
            .enumerate()
            .map(|(c, (name, _))| {
                let (mut cycles, mut retired, mut secs) = (0u64, 0u64, 0f64);
                for w in 0..matrix.n_workloads() {
                    let stats = matrix.get(w, c);
                    cycles += stats.cycles;
                    retired += stats.retired;
                    secs += stats.host_seconds();
                }
                let (machine, backend) = match name.split_once('-') {
                    Some(("base", rest)) => (MachineClass::Baseline.token(), rest),
                    Some(("aggr", rest)) => (MachineClass::Aggressive.token(), rest),
                    _ => ("unknown", name.as_str()),
                };
                HostperfRow {
                    config: name.clone(),
                    machine: machine.to_string(),
                    backend: backend.to_string(),
                    sim_cycles: cycles,
                    retired,
                    host_seconds: secs,
                    kcycles_per_sec: if secs > 0.0 {
                        cycles as f64 / 1e3 / secs
                    } else {
                        0.0
                    },
                    retired_mips: if secs > 0.0 {
                        retired as f64 / 1e6 / secs
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        HostperfReport {
            scale,
            jobs,
            wall_seconds: wall.as_secs_f64(),
            stats_fingerprint: stats_fingerprint(matrix),
            rows,
        }
    }

    /// Renders the report as `aim-hostperf-report/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.rows.len() * 200);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"aim-hostperf-report/v1\",\n");
        out.push_str("  \"artifact\": \"table_hostperf\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!(
            "  \"wall_seconds\": {},\n",
            json_number(self.wall_seconds)
        ));
        out.push_str(&format!(
            "  \"stats_fingerprint\": \"{:#018x}\",\n",
            self.stats_fingerprint
        ));
        out.push_str("  \"rows\": [");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"config\": \"{}\", \"machine\": \"{}\", \"backend\": \"{}\", \
                 \"sim_cycles\": {}, \"retired\": {}, \"host_seconds\": {}, \
                 \"kcycles_per_sec\": {}, \"retired_mips\": {}}}",
                json_escape(&row.config),
                json_escape(&row.machine),
                json_escape(&row.backend),
                row.sim_cycles,
                row.retired,
                json_number(row.host_seconds),
                json_number(row.kcycles_per_sec),
                json_number(row.retired_mips),
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes the report to the default location — `$AIM_HOSTPERF_JSON` if
    /// set, else `BENCH_hostperf.json` in the working directory — and
    /// returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_default(&self) -> std::io::Result<String> {
        let path = std::env::var("AIM_HOSTPERF_JSON")
            .unwrap_or_else(|_| "BENCH_hostperf.json".to_string());
        self.write(&path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> HostperfReport {
        HostperfReport {
            scale: Scale::Tiny,
            jobs: 2,
            wall_seconds: 0.5,
            stats_fingerprint: 0x1234_abcd,
            rows: vec![HostperfRow {
                config: "base-sfc-mdt-enf".to_string(),
                machine: "baseline".to_string(),
                backend: "sfc-mdt-enf".to_string(),
                sim_cycles: 1000,
                retired: 500,
                host_seconds: 0.01,
                kcycles_per_sec: 100.0,
                retired_mips: 0.05,
            }],
        }
    }

    #[test]
    fn json_carries_schema_fingerprint_and_rows() {
        let json = report().to_json();
        assert!(json.contains("\"schema\": \"aim-hostperf-report/v1\""));
        assert!(json.contains("\"scale\": \"tiny\""));
        assert!(json.contains("\"stats_fingerprint\": \"0x000000001234abcd\""));
        assert!(json.contains("\"config\": \"base-sfc-mdt-enf\""));
        assert!(json.contains("\"machine\": \"baseline\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn scale_tokens_match_the_cli() {
        for scale in Scale::ALL {
            assert_eq!(scale.to_string().parse(), Ok(scale));
        }
        assert_eq!(Scale::Tiny.to_string(), "tiny");
        assert_eq!(Scale::Huge.to_string(), "huge");
    }
}
