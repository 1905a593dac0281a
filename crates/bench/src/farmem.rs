//! The `farmem` artifact's machine-readable report (`BENCH_farmem.json`).
//!
//! `aim-bench farmem` sweeps window size × far-memory latency per backend:
//! both kilo-entry-window machine classes run behind the high-latency far
//! tier, and each cell places the 120×80 and 256×256 LSQs, the SFC/MDT,
//! and PCAX inside the no-spec → oracle bracket. This module renders that
//! sweep in a stable JSON schema (`aim-farmem-report/v2`) so the
//! acceptance checks (every backend inside the bracket; the buildable
//! CAM's retention collapsing below the address-indexed backends as the
//! window grows) can be asserted by scripts, not eyeballs.
//!
//! It renders through the shared [`Report`] writer;
//! `tests/golden/farmem.golden.json` pins its layout.

use crate::Report;
use aim_types::wire::WireMsg;
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

/// The full far-memory sweep: one row per (workload × machine × latency)
/// cell.
#[derive(Debug, Clone)]
pub struct FarMemReport {
    /// The sweep's report name (`table_far_mem`).
    pub artifact: String,
    /// Workload scale the matrix ran at.
    pub scale: Scale,
    /// Worker threads the matrix ran on.
    pub workers: usize,
    /// Per-cell rows, machine/latency-major then workload.
    pub rows: Vec<FarMemRow>,
}

impl Report for FarMemReport {
    const SCHEMA: &'static str = "aim-farmem-report/v2";
    const FILE: &'static str = "BENCH_farmem.json";
    type Row = FarMemRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", &self.artifact)
            .put_str("scale", self.scale.token())
            .put_u64("workers", self.workers as u64);
    }

    fn rows(&self) -> &[FarMemRow] {
        &self.rows
    }

    fn row(r: &FarMemRow, m: &mut WireMsg) {
        m.put_str("workload", &r.workload)
            .put_str("suite", &r.suite)
            .put_str("machine", &r.machine)
            .put_u64("window", r.window)
            .put_u64("far_latency", r.far_latency)
            .put_f64("lsq_ipc", r.lsq_ipc)
            .put_f64("nospec_norm", r.nospec_norm)
            .put_f64("cam_norm", r.cam_norm)
            .put_f64("sfc_mdt_norm", r.sfc_mdt_norm)
            .put_f64("pcax_norm", r.pcax_norm)
            .put_f64("oracle_norm", r.oracle_norm)
            .put_f64("cam_gap_closed", r.cam_gap_closed)
            .put_f64("sfc_gap_closed", r.sfc_gap_closed)
            .put_f64("pcax_gap_closed", r.pcax_gap_closed)
            .put_u64("far_accesses", r.far_accesses)
            .put_u64("far_coalesced", r.far_coalesced)
            .put_u64("far_overflow", r.far_overflow)
            .put_u64("far_peak_inflight", r.far_peak_inflight);
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
        assert!(json.contains("\"schema\": \"aim-farmem-report/v2\""));
        assert!(json.contains("\"window\": 4096"));
        assert!(json.contains("\"far_peak_inflight\": 64"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
