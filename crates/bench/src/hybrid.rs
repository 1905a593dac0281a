//! The `aim-bench hybrid` machine-readable report (`BENCH_hybrid.json`).
//!
//! `aim-bench hybrid` places the filtered LSQ — the §4 hybrid of an
//! address-indexed membership filter and the associative store queue —
//! inside the `aim-bench bounds` bracket, next to the MDT search
//! filter it borrows its idea from. This module renders that comparison
//! in a stable JSON schema (`aim-hybrid-report/v1`) so the acceptance
//! checks (filter rate vs the §4 MDT filter, IPC inside the
//! no-spec → oracle bracket) can be asserted by scripts, not eyeballs.
//!
//! It renders through the shared [`Report`] writer;
//! `tests/golden/hybrid.golden.json` pins its layout.

use crate::Report;
use aim_types::wire::WireMsg;

/// One workload's row of the hybrid comparison.
#[derive(Debug, Clone)]
pub struct HybridRow {
    /// Workload name.
    pub workload: String,
    /// Suite membership (`int` or `fp`).
    pub suite: String,
    /// Absolute IPC of the plain 48×32 LSQ (the normalization base).
    pub lsq_ipc: f64,
    /// No-speculation IPC, normalized to `lsq_ipc`.
    pub nospec_norm: f64,
    /// Filtered-LSQ IPC, normalized to `lsq_ipc`.
    pub filtered_norm: f64,
    /// SFC/MDT (with the §4 MDT search filter) IPC, normalized.
    pub sfc_mdt_norm: f64,
    /// Oracle IPC, normalized.
    pub oracle_norm: f64,
    /// Percent of the no-spec → oracle gap the filtered LSQ closes.
    pub gap_closed: f64,
    /// Load lookups that skipped the SQ CAM entirely.
    pub filtered_loads: u64,
    /// Load lookups that paid the associative search.
    pub searched_loads: u64,
    /// `filtered_loads / (filtered_loads + searched_loads)`.
    pub filter_rate: f64,
    /// Filter hits whose CAM search then forwarded nothing.
    pub false_positive_hits: u64,
    /// Stores tracked conservatively after counter saturation.
    pub saturation_fallbacks: u64,
    /// The §4 MDT filter's skip fraction on the same workload
    /// (`mdt_filtered_loads / (mdt_filtered_loads + load_checks)`).
    pub mdt_filter_rate: f64,
}

/// The full hybrid comparison, one row per workload.
#[derive(Debug, Clone)]
pub struct HybridReport {
    /// The producing artifact (`table_hybrid`).
    pub artifact: String,
    /// Per-workload rows, registry order.
    pub rows: Vec<HybridRow>,
}

impl Report for HybridReport {
    const SCHEMA: &'static str = "aim-hybrid-report/v1";
    const FILE: &'static str = "BENCH_hybrid.json";
    type Row = HybridRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", &self.artifact);
    }

    fn rows(&self) -> &[HybridRow] {
        &self.rows
    }

    fn row(r: &HybridRow, m: &mut WireMsg) {
        m.put_str("workload", &r.workload)
            .put_str("suite", &r.suite)
            .put_f64("lsq_ipc", r.lsq_ipc)
            .put_f64("nospec_norm", r.nospec_norm)
            .put_f64("filtered_norm", r.filtered_norm)
            .put_f64("sfc_mdt_norm", r.sfc_mdt_norm)
            .put_f64("oracle_norm", r.oracle_norm)
            .put_f64("gap_closed", r.gap_closed)
            .put_u64("filtered_loads", r.filtered_loads)
            .put_u64("searched_loads", r.searched_loads)
            .put_f64("filter_rate", r.filter_rate)
            .put_u64("false_positive_hits", r.false_positive_hits)
            .put_u64("saturation_fallbacks", r.saturation_fallbacks)
            .put_f64("mdt_filter_rate", r.mdt_filter_rate);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_json_renders_schema_and_balances() {
        let report = HybridReport {
            artifact: "table_hybrid".to_string(),
            rows: vec![HybridRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                lsq_ipc: 1.75,
                nospec_norm: 0.9,
                filtered_norm: 1.0,
                sfc_mdt_norm: 0.99,
                oracle_norm: 1.01,
                gap_closed: 95.0,
                filtered_loads: 180,
                searched_loads: 20,
                filter_rate: 0.9,
                false_positive_hits: 3,
                saturation_fallbacks: 0,
                mdt_filter_rate: 0.85,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-hybrid-report/v1\""));
        assert!(json.contains("\"filtered_loads\": 180"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
