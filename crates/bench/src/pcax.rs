//! The `aim-bench pcax` machine-readable report (`BENCH_pcax.json`).
//!
//! `aim-bench pcax` places the PC-indexed classification backend (PCAX) inside
//! the `aim-bench bounds` bracket, next to the plain SFC/MDT it wraps.
//! This module renders that comparison in a stable JSON schema
//! (`aim-pcax-report/v1`) so the acceptance checks (IPC inside the
//! no-spec → oracle bracket, prediction coverage and accuracy) can be
//! asserted by scripts, not eyeballs.
//!
//! It renders through the shared [`Report`] writer;
//! `tests/golden/pcax.golden.json` pins its layout.

use crate::Report;
use aim_types::wire::WireMsg;

/// One workload's row of the PCAX comparison.
#[derive(Debug, Clone)]
pub struct PcaxRow {
    /// Workload name.
    pub workload: String,
    /// Suite membership (`int` or `fp`).
    pub suite: String,
    /// Absolute IPC of the plain 48×32 LSQ (the normalization base).
    pub lsq_ipc: f64,
    /// No-speculation IPC, normalized to `lsq_ipc`.
    pub nospec_norm: f64,
    /// PCAX IPC, normalized to `lsq_ipc`.
    pub pcax_norm: f64,
    /// Plain SFC/MDT IPC, normalized.
    pub sfc_mdt_norm: f64,
    /// Oracle IPC, normalized.
    pub oracle_norm: f64,
    /// Percent of the no-spec → oracle gap PCAX closes.
    pub gap_closed: f64,
    /// Loads dispatched under a no-alias prediction.
    pub loads_no_alias: u64,
    /// Loads dispatched under a predicted-forward prediction.
    pub loads_forward: u64,
    /// Loads dispatched unclassified (full SFC + MDT path).
    pub loads_unknown: u64,
    /// Fraction of classified loads carrying a prediction.
    pub coverage: f64,
    /// Fraction of resolved predictions that were correct.
    pub accuracy: f64,
    /// SFC probes the no-alias prediction skipped outright.
    pub sfc_probes_skipped: u64,
    /// Replays spent waiting on a predicted producer store.
    pub forward_wait_replays: u64,
}

/// The full PCAX comparison, one row per workload.
#[derive(Debug, Clone)]
pub struct PcaxReport {
    /// The producing artifact (`table_pcax`).
    pub artifact: String,
    /// Per-workload rows, registry order.
    pub rows: Vec<PcaxRow>,
}

impl Report for PcaxReport {
    const SCHEMA: &'static str = "aim-pcax-report/v1";
    const FILE: &'static str = "BENCH_pcax.json";
    type Row = PcaxRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", &self.artifact);
    }

    fn rows(&self) -> &[PcaxRow] {
        &self.rows
    }

    fn row(r: &PcaxRow, m: &mut WireMsg) {
        m.put_str("workload", &r.workload)
            .put_str("suite", &r.suite)
            .put_f64("lsq_ipc", r.lsq_ipc)
            .put_f64("nospec_norm", r.nospec_norm)
            .put_f64("pcax_norm", r.pcax_norm)
            .put_f64("sfc_mdt_norm", r.sfc_mdt_norm)
            .put_f64("oracle_norm", r.oracle_norm)
            .put_f64("gap_closed", r.gap_closed)
            .put_u64("loads_no_alias", r.loads_no_alias)
            .put_u64("loads_forward", r.loads_forward)
            .put_u64("loads_unknown", r.loads_unknown)
            .put_f64("coverage", r.coverage)
            .put_f64("accuracy", r.accuracy)
            .put_u64("sfc_probes_skipped", r.sfc_probes_skipped)
            .put_u64("forward_wait_replays", r.forward_wait_replays);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pcax_json_renders_schema_and_balances() {
        let report = PcaxReport {
            artifact: "table_pcax".to_string(),
            rows: vec![PcaxRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                lsq_ipc: 1.75,
                nospec_norm: 0.9,
                pcax_norm: 1.0,
                sfc_mdt_norm: 0.99,
                oracle_norm: 1.01,
                gap_closed: 95.0,
                loads_no_alias: 120,
                loads_forward: 40,
                loads_unknown: 40,
                coverage: 0.8,
                accuracy: 0.95,
                sfc_probes_skipped: 118,
                forward_wait_replays: 7,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-pcax-report/v1\""));
        assert!(json.contains("\"loads_no_alias\": 120"));
        assert!(json.contains("\"sfc_probes_skipped\": 118"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
