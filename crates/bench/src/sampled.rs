//! The `table_sampled` machine-readable report (`BENCH_sampled.json`).
//!
//! `table_sampled` is the differential convergence gate for sampled
//! simulation: every committed kernel runs the huge/far-memory
//! configuration twice — full detail and under the tuned tiled sampling
//! policy — and the report records, per kernel, the extrapolated IPC
//! against the full-detail truth, the detail coverage the policy bought
//! the error with, and the measured wall-clock of both runs. This module
//! renders that sweep in a stable JSON schema (`aim-sampled-report/v1`)
//! so the acceptance checks (every kernel inside the convergence
//! tolerance; the sampled sweep ≥10× faster wall-clock at `Scale::Huge`)
//! can be asserted by scripts, not eyeballs. The top-level serve counters
//! record that full and sampled cells are distinct content-addressed
//! cache entries and that a warm replay ran zero simulations.
//!
//! ```json
//! {
//!   "schema": "aim-sampled-report/v1",
//!   "artifact": "table_sampled",
//!   "scale": "huge", "workers": 8,
//!   "cold_sims": 40, "warm_hits": 40, "warm_sims": 0,
//!   "machine": "huge", "window": 4096, "far_latency": 800,
//!   "worst_err_pct": -6.6, "speedup": 11.2,
//!   "rows": [
//!     {
//!       "workload": "gzip", "suite": "int", "trace_len": 2363615,
//!       "warm_insts": 208112, "detail_insts": 6714, "periods": 11,
//!       "full_ipc": 7.06, "sampled_ipc": 7.11, "err_pct": 0.78,
//!       "periods_run": 11, "detail_pct": 3.1,
//!       "full_wall_ns": 2400000000, "sampled_wall_ns": 210000000,
//!       "speedup": 11.4
//!     }
//!   ]
//! }
//! ```

use crate::sweep::{json_escape, json_number};
use aim_workloads::Scale;

/// One kernel of the sampled-convergence sweep: the full-detail truth,
/// the sampled estimate, and the cost of each.
#[derive(Debug, Clone)]
pub struct SampledRow {
    /// Workload name.
    pub workload: String,
    /// Suite membership (`int` or `fp`).
    pub suite: String,
    /// Dynamic instructions the kernel retires (the length the policy
    /// tiles).
    pub trace_len: u64,
    /// Warm-up instructions per period of the policy.
    pub warm_insts: u64,
    /// Detailed instructions per period of the policy.
    pub detail_insts: u64,
    /// Periods the policy schedules.
    pub periods: u32,
    /// Full-detail IPC (the truth the estimate is judged against).
    pub full_ipc: f64,
    /// Extrapolated IPC of the sampled run.
    pub sampled_ipc: f64,
    /// Signed relative IPC error of the estimate, percent.
    pub err_pct: f64,
    /// Detailed windows the sampled run completed.
    pub periods_run: u32,
    /// Percent of retired instructions simulated cycle-accurately.
    pub detail_pct: f64,
    /// Wall-clock of the full-detail run, nanoseconds.
    pub full_wall_ns: u64,
    /// Wall-clock of the sampled run, nanoseconds.
    pub sampled_wall_ns: u64,
    /// Per-kernel wall-clock speedup (`full_wall_ns / sampled_wall_ns`).
    pub speedup: f64,
}

/// The full sampled-convergence sweep: serve-cache routing counters, the
/// shared machine configuration, the aggregate acceptance numbers, and one
/// row per kernel.
#[derive(Debug, Clone)]
pub struct SampledReport {
    /// The producing binary (`table_sampled`).
    pub artifact: String,
    /// Workload scale the sweep ran at.
    pub scale: Scale,
    /// Simulation worker threads of the serving pool.
    pub workers: usize,
    /// Simulations the cold round ran (one per unique cell; full and
    /// sampled cells are distinct).
    pub cold_sims: u64,
    /// Cache hits the warm replay round was answered from.
    pub warm_hits: u64,
    /// Simulations the warm replay round ran (zero when the cache held).
    pub warm_sims: u64,
    /// Machine-class tag of the shared configuration (`huge`).
    pub machine: String,
    /// ROB entries of that machine class.
    pub window: u64,
    /// Far-tier latency in cycles.
    pub far_latency: u64,
    /// Largest-magnitude signed IPC error across the rows, percent.
    pub worst_err_pct: f64,
    /// Aggregate wall-clock speedup (total full wall / total sampled
    /// wall).
    pub speedup: f64,
    /// Per-kernel rows, registry order.
    pub rows: Vec<SampledRow>,
}

impl SampledReport {
    /// Renders the report as `aim-sampled-report/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.rows.len() * 360);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"aim-sampled-report/v1\",\n");
        out.push_str(&format!(
            "  \"artifact\": \"{}\",\n",
            json_escape(&self.artifact)
        ));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"cold_sims\": {},\n", self.cold_sims));
        out.push_str(&format!("  \"warm_hits\": {},\n", self.warm_hits));
        out.push_str(&format!("  \"warm_sims\": {},\n", self.warm_sims));
        out.push_str(&format!(
            "  \"machine\": \"{}\",\n",
            json_escape(&self.machine)
        ));
        out.push_str(&format!("  \"window\": {},\n", self.window));
        out.push_str(&format!("  \"far_latency\": {},\n", self.far_latency));
        out.push_str(&format!(
            "  \"worst_err_pct\": {},\n",
            json_number(self.worst_err_pct)
        ));
        out.push_str(&format!("  \"speedup\": {},\n", json_number(self.speedup)));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"suite\": \"{}\", \"trace_len\": {}, \
                 \"warm_insts\": {}, \"detail_insts\": {}, \"periods\": {}, \
                 \"full_ipc\": {}, \"sampled_ipc\": {}, \"err_pct\": {}, \
                 \"periods_run\": {}, \"detail_pct\": {}, \"full_wall_ns\": {}, \
                 \"sampled_wall_ns\": {}, \"speedup\": {}}}",
                json_escape(&r.workload),
                json_escape(&r.suite),
                r.trace_len,
                r.warm_insts,
                r.detail_insts,
                r.periods,
                json_number(r.full_ipc),
                json_number(r.sampled_ipc),
                json_number(r.err_pct),
                r.periods_run,
                json_number(r.detail_pct),
                r.full_wall_ns,
                r.sampled_wall_ns,
                json_number(r.speedup),
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

    /// Writes the report to the default location — `$AIM_SAMPLED_JSON` if
    /// set, else `BENCH_sampled.json` in the working directory — and
    /// returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_default(&self) -> std::io::Result<String> {
        let path =
            std::env::var("AIM_SAMPLED_JSON").unwrap_or_else(|_| "BENCH_sampled.json".to_string());
        self.write(&path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_json_renders_schema_and_balances() {
        let report = SampledReport {
            artifact: "table_sampled".to_string(),
            scale: Scale::Huge,
            workers: 8,
            cold_sims: 40,
            warm_hits: 40,
            warm_sims: 0,
            machine: "huge".to_string(),
            window: 4096,
            far_latency: 800,
            worst_err_pct: -6.57,
            speedup: 11.2,
            rows: vec![SampledRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                trace_len: 2_363_615,
                warm_insts: 208_112,
                detail_insts: 6_714,
                periods: 11,
                full_ipc: 7.0583,
                sampled_ipc: 7.1134,
                err_pct: 0.78,
                periods_run: 11,
                detail_pct: 3.1,
                full_wall_ns: 2_400_000_000,
                sampled_wall_ns: 210_000_000,
                speedup: 11.4,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-sampled-report/v1\""));
        assert!(json.contains("\"window\": 4096"));
        assert!(json.contains("\"warm_sims\": 0"));
        assert!(json.contains("\"periods_run\": 11"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}

