//! The `table_far_mem` machine-readable report (`BENCH_farmem.json`).
//!
//! `table_far_mem` sweeps window size × far-memory latency per backend:
//! both kilo-entry-window machine classes run behind the high-latency far
//! tier, and each cell places the 256×256 LSQ, the SFC/MDT, and PCAX
//! inside the no-spec → oracle bracket. This module renders that sweep in
//! a stable JSON schema (`aim-farmem-report/v1`) so the acceptance checks
//! (every backend inside the bracket; the LSQ's gap-closed collapsing
//! below the address-indexed backends as the window grows) can be
//! asserted by scripts, not eyeballs. The top-level serve counters record
//! that the matrix was routed through the shared `aim-serve` cache and
//! that a warm replay of the same cells ran zero simulations.
//!
//! ```json
//! {
//!   "schema": "aim-farmem-report/v1",
//!   "artifact": "table_far_mem",
//!   "scale": "full", "workers": 8,
//!   "cold_sims": 320, "warm_hits": 320, "warm_sims": 0,
//!   "rows": [
//!     {
//!       "workload": "gzip", "suite": "int", "machine": "huge",
//!       "window": 4096, "far_latency": 800, "lsq_ipc": 1.2,
//!       "nospec_norm": 0.7, "cam_norm": 0.6, "sfc_mdt_norm": 1.9,
//!       "pcax_norm": 1.9, "oracle_norm": 1.9,
//!       "cam_gap_closed": 25.0, "sfc_gap_closed": 99.0,
//!       "pcax_gap_closed": 98.5, "far_accesses": 1200,
//!       "far_coalesced": 300, "far_overflow": 4, "far_peak_inflight": 64
//!     }
//!   ]
//! }
//! ```

use crate::sweep::{json_escape, json_number};
use aim_workloads::Scale;

/// One (workload × machine class × far latency) cell of the far-memory
/// sweep, with every backend's IPC normalized to the cell's 256×256 LSQ.
#[derive(Debug, Clone)]
pub struct FarMemRow {
    /// Workload name.
    pub workload: String,
    /// Suite membership (`int` or `fp`).
    pub suite: String,
    /// Machine-class tag (`aggr` or `huge`).
    pub machine: String,
    /// ROB entries of the machine class (the window size swept).
    pub window: u64,
    /// Far-tier latency in cycles.
    pub far_latency: u64,
    /// Absolute IPC of the 256×256 LSQ (the normalization base).
    pub lsq_ipc: f64,
    /// No-speculation IPC, normalized to `lsq_ipc`.
    pub nospec_norm: f64,
    /// The buildable 120×80 CAM (the Figure 4 aggressive LSQ), normalized.
    pub cam_norm: f64,
    /// SFC/MDT IPC, normalized.
    pub sfc_mdt_norm: f64,
    /// PCAX IPC, normalized.
    pub pcax_norm: f64,
    /// Oracle IPC, normalized.
    pub oracle_norm: f64,
    /// Percent of the no-spec → oracle gap the 120×80 CAM closes.
    pub cam_gap_closed: f64,
    /// Percent of the gap the SFC/MDT closes.
    pub sfc_gap_closed: f64,
    /// Percent of the gap PCAX closes.
    pub pcax_gap_closed: f64,
    /// Far-tier line fetches (SFC/MDT column's run).
    pub far_accesses: u64,
    /// Far accesses folded onto an already-in-flight miss.
    pub far_coalesced: u64,
    /// Never-refuse accesses pushed past the MSHR bound.
    pub far_overflow: u64,
    /// Peak simultaneously in-flight far misses.
    pub far_peak_inflight: u64,
}

/// The full far-memory sweep: serve-cache routing counters plus one row
/// per (workload × machine × latency) cell.
#[derive(Debug, Clone)]
pub struct FarMemReport {
    /// The producing binary (`table_far_mem`).
    pub artifact: String,
    /// Workload scale the matrix ran at.
    pub scale: Scale,
    /// Simulation worker threads of the serving pool.
    pub workers: usize,
    /// Simulations the cold round ran (one per unique cell).
    pub cold_sims: u64,
    /// Cache hits the warm replay round was answered from.
    pub warm_hits: u64,
    /// Simulations the warm replay round ran (zero when the cache held).
    pub warm_sims: u64,
    /// Per-cell rows, workload-major then machine/latency.
    pub rows: Vec<FarMemRow>,
}

impl FarMemReport {
    /// Renders the report as `aim-farmem-report/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.rows.len() * 420);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"aim-farmem-report/v1\",\n");
        out.push_str(&format!(
            "  \"artifact\": \"{}\",\n",
            json_escape(&self.artifact)
        ));
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"cold_sims\": {},\n", self.cold_sims));
        out.push_str(&format!("  \"warm_hits\": {},\n", self.warm_hits));
        out.push_str(&format!("  \"warm_sims\": {},\n", self.warm_sims));
        out.push_str("  \"rows\": [");
        for (i, r) in self.rows.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"workload\": \"{}\", \"suite\": \"{}\", \"machine\": \"{}\", \
                 \"window\": {}, \"far_latency\": {}, \"lsq_ipc\": {}, \
                 \"nospec_norm\": {}, \"cam_norm\": {}, \"sfc_mdt_norm\": {}, \
                 \"pcax_norm\": {}, \"oracle_norm\": {}, \"cam_gap_closed\": {}, \
                 \"sfc_gap_closed\": {}, \"pcax_gap_closed\": {}, \
                 \"far_accesses\": {}, \"far_coalesced\": {}, \
                 \"far_overflow\": {}, \"far_peak_inflight\": {}}}",
                json_escape(&r.workload),
                json_escape(&r.suite),
                json_escape(&r.machine),
                r.window,
                r.far_latency,
                json_number(r.lsq_ipc),
                json_number(r.nospec_norm),
                json_number(r.cam_norm),
                json_number(r.sfc_mdt_norm),
                json_number(r.pcax_norm),
                json_number(r.oracle_norm),
                json_number(r.cam_gap_closed),
                json_number(r.sfc_gap_closed),
                json_number(r.pcax_gap_closed),
                r.far_accesses,
                r.far_coalesced,
                r.far_overflow,
                r.far_peak_inflight,
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

    /// Writes the report to the default location — `$AIM_FARMEM_JSON` if
    /// set, else `BENCH_farmem.json` in the working directory — and
    /// returns the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_default(&self) -> std::io::Result<String> {
        let path =
            std::env::var("AIM_FARMEM_JSON").unwrap_or_else(|_| "BENCH_farmem.json".to_string());
        self.write(&path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farmem_json_renders_schema_and_balances() {
        let report = FarMemReport {
            artifact: "table_far_mem".to_string(),
            scale: Scale::Tiny,
            workers: 4,
            cold_sims: 320,
            warm_hits: 320,
            warm_sims: 0,
            rows: vec![FarMemRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                machine: "huge".to_string(),
                window: 4096,
                far_latency: 800,
                lsq_ipc: 1.2,
                nospec_norm: 0.7,
                cam_norm: 0.62,
                sfc_mdt_norm: 1.9,
                pcax_norm: 1.85,
                oracle_norm: 1.92,
                cam_gap_closed: 24.6,
                sfc_gap_closed: 98.4,
                pcax_gap_closed: 94.3,
                far_accesses: 1200,
                far_coalesced: 300,
                far_overflow: 4,
                far_peak_inflight: 64,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-farmem-report/v1\""));
        assert!(json.contains("\"window\": 4096"));
        assert!(json.contains("\"warm_sims\": 0"));
        assert!(json.contains("\"far_peak_inflight\": 64"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
