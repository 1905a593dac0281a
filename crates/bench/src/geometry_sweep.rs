//! Generic table-geometry sweeps: the `assoc` study's idea lifted into
//! a reusable layer.
//!
//! Every tagged structure in the repo — the MDT, the filtered-LSQ
//! membership filter, the PCAX prediction table — shares the same sizing
//! question: below what `sets × ways` capacity (and at what auxiliary knob
//! setting) does its metric collapse? [`GeometryGrid`] names the cartesian
//! grid once, [`find_knee`] locates the smallest geometry within tolerance
//! of the baseline point, and the two report types render the sweeps in
//! stable JSON schemas (`aim-pcax-sweep/v1` → `BENCH_pcax_sweep.json`,
//! `aim-filter-sweep/v1` → `BENCH_filter_sweep.json`) so the knee claims
//! are script-checkable.
//!
//! The grid expands into ordinary named configs on an
//! [`ArtifactSpec`](crate::specs::ArtifactSpec), so sweeps ride the same
//! [`run_matrix`](crate::run_matrix) worker pool as every other artifact
//! and parallelize across `--jobs`.

use crate::Report;
use aim_core::{SetHash, TableGeometry};
use aim_types::wire::WireMsg;

/// A cartesian sets × ways × knob grid over one tagged table.
///
/// The knob is whatever third dimension the swept structure exposes — the
/// PCAX acting threshold, the filter's counter saturation point — and
/// `baseline_knob` names the setting the knee search normalizes against.
#[derive(Debug, Clone)]
pub struct GeometryGrid {
    /// Set counts to sweep (each a power of two).
    pub sets: Vec<usize>,
    /// Way counts to sweep.
    pub ways: Vec<usize>,
    /// Auxiliary knob values to sweep.
    pub knobs: Vec<u32>,
    /// The knob value the knee is located at (must appear in `knobs`).
    pub baseline_knob: u32,
    /// Set-index hash shared by every point.
    pub hash: SetHash,
}

impl GeometryGrid {
    /// Expands the grid, geometry-major (every knob for the first
    /// geometry, then the next), with geometries in
    /// [`TableGeometry::grid`] order — the shared iteration order that
    /// keeps report rows aligned across artifacts.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is empty, `baseline_knob` is not one of
    /// `knobs`, or a geometry is malformed.
    pub fn points(&self) -> Vec<(TableGeometry, u32)> {
        assert!(
            !self.knobs.is_empty() && self.knobs.contains(&self.baseline_knob),
            "geometry grid: baseline knob {} not in {:?}",
            self.baseline_knob,
            self.knobs
        );
        let geometries = TableGeometry::grid(&self.sets, &self.ways, self.hash);
        assert!(!geometries.is_empty(), "geometry grid: empty sets × ways");
        let mut out = Vec::with_capacity(geometries.len() * self.knobs.len());
        for g in geometries {
            for &k in &self.knobs {
                out.push((g, k));
            }
        }
        out
    }
}

/// Parses a `--grid` value: `tiny` (the CI-sized 2×2 grid, `true`) or
/// `full` (the whole study, `false`).
///
/// # Errors
///
/// Returns a one-line message for any other value.
pub(crate) fn parse_grid(value: &str) -> Result<bool, String> {
    match value {
        "tiny" => Ok(true),
        "full" => Ok(false),
        other => Err(format!("--grid: unknown grid `{other}` (tiny|full)")),
    }
}

/// One swept point reduced to what the knee search needs.
#[derive(Debug, Clone)]
pub struct KneePoint {
    /// The point's config name (e.g. `64x1@t2`).
    pub name: String,
    /// Table capacity in entries (`sets * ways`).
    pub entries: usize,
    /// The point's knob value.
    pub knob: u32,
    /// The metric the knee is located on (higher is better).
    pub metric: f64,
}

/// The located knee: indices into the [`KneePoint`] slice passed to
/// [`find_knee`].
#[derive(Debug, Clone, Copy)]
pub struct Knee {
    /// The baseline point (largest capacity at the baseline knob).
    pub baseline: usize,
    /// The smallest point within tolerance of the baseline's metric.
    pub knee: usize,
}

/// Locates the knee: among points at `baseline_knob`, the baseline is the
/// largest-capacity point, and the knee is the smallest-capacity point
/// whose metric stays within `tolerance` (a fraction, e.g. `0.02`) of the
/// baseline's.
///
/// The baseline always qualifies as its own knee candidate, so the search
/// cannot come back empty: a sweep where every smaller table collapses
/// reports the baseline itself as the knee.
///
/// # Panics
///
/// Panics if no point carries `baseline_knob`.
pub fn find_knee(points: &[KneePoint], baseline_knob: u32, tolerance: f64) -> Knee {
    let at_knob: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].knob == baseline_knob)
        .collect();
    let baseline = *at_knob
        .iter()
        .max_by_key(|&&i| points[i].entries)
        .unwrap_or_else(|| panic!("knee search: no point at knob {baseline_knob}"));
    let floor = points[baseline].metric * (1.0 - tolerance);
    let knee = *at_knob
        .iter()
        .filter(|&&i| points[i].metric >= floor)
        .min_by_key(|&&i| points[i].entries)
        .expect("the baseline point satisfies its own tolerance");
    Knee { baseline, knee }
}

/// One geometry point of the PCAX sweep.
#[derive(Debug, Clone)]
pub struct PcaxSweepRow {
    /// Point name (`setsxways@t<threshold>`).
    pub point: String,
    /// PC-table sets.
    pub sets: usize,
    /// PC-table ways.
    pub ways: usize,
    /// The `no_alias_act` acting threshold at this point.
    pub threshold: u32,
    /// Table capacity in entries.
    pub entries: usize,
    /// Geomean over kernels of PCAX IPC normalized to the 48×32 LSQ.
    pub ipc_norm: f64,
    /// Percent of the no-spec → oracle gap closed (from the geomeans).
    pub gap_closed: f64,
    /// Aggregate prediction coverage (summed counters over all kernels).
    pub coverage: f64,
    /// Aggregate prediction accuracy (summed counters over all kernels).
    pub accuracy: f64,
    /// Total SFC probes skipped by acted-on no-alias predictions.
    pub sfc_probes_skipped: u64,
}

/// The PCAX geometry sweep (`aim-pcax-sweep/v1`).
#[derive(Debug, Clone)]
pub struct PcaxSweepReport {
    /// The producing artifact (`table_pcax_sweep`).
    pub artifact: String,
    /// The baseline point's name.
    pub baseline: String,
    /// The located knee point's name.
    pub knee: String,
    /// Per-point rows, grid order.
    pub rows: Vec<PcaxSweepRow>,
}

impl Report for PcaxSweepReport {
    const SCHEMA: &'static str = "aim-pcax-sweep/v1";
    const FILE: &'static str = "BENCH_pcax_sweep.json";
    type Row = PcaxSweepRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", &self.artifact)
            .put_str("baseline", &self.baseline)
            .put_str("knee", &self.knee);
    }

    fn rows(&self) -> &[PcaxSweepRow] {
        &self.rows
    }

    fn row(r: &PcaxSweepRow, m: &mut WireMsg) {
        m.put_str("point", &r.point)
            .put_u64("sets", r.sets as u64)
            .put_u64("ways", r.ways as u64)
            .put_u64("threshold", r.threshold.into())
            .put_u64("entries", r.entries as u64)
            .put_f64("ipc_norm", r.ipc_norm)
            .put_f64("gap_closed", r.gap_closed)
            .put_f64("coverage", r.coverage)
            .put_f64("accuracy", r.accuracy)
            .put_u64("sfc_probes_skipped", r.sfc_probes_skipped);
    }
}

/// One geometry point of the filter sweep.
#[derive(Debug, Clone)]
pub struct FilterSweepRow {
    /// Point name (`setsxways@c<max_count>`).
    pub point: String,
    /// Filter sets.
    pub sets: usize,
    /// Filter ways.
    pub ways: usize,
    /// Counter saturation point at this point.
    pub max_count: u32,
    /// Table capacity in entries.
    pub entries: usize,
    /// Geomean over kernels of filtered-LSQ IPC normalized to the 48×32 LSQ.
    pub ipc_norm: f64,
    /// Percent of the no-spec → oracle gap closed (from the geomeans).
    pub gap_closed: f64,
    /// Fraction of loads whose CAM search the filter elided (summed
    /// counters over all kernels).
    pub filter_rate: f64,
    /// Total searches forced by word-aliasing false positives.
    pub false_positive_hits: u64,
    /// Total conservative fallbacks from saturated counters.
    pub saturation_fallbacks: u64,
}

/// The filter geometry sweep (`aim-filter-sweep/v1`).
#[derive(Debug, Clone)]
pub struct FilterSweepReport {
    /// The producing artifact (`table_filter_sweep`).
    pub artifact: String,
    /// The baseline point's name.
    pub baseline: String,
    /// The located knee point's name.
    pub knee: String,
    /// Per-point rows, grid order.
    pub rows: Vec<FilterSweepRow>,
}

impl Report for FilterSweepReport {
    const SCHEMA: &'static str = "aim-filter-sweep/v1";
    const FILE: &'static str = "BENCH_filter_sweep.json";
    type Row = FilterSweepRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", &self.artifact)
            .put_str("baseline", &self.baseline)
            .put_str("knee", &self.knee);
    }

    fn rows(&self) -> &[FilterSweepRow] {
        &self.rows
    }

    fn row(r: &FilterSweepRow, m: &mut WireMsg) {
        m.put_str("point", &r.point)
            .put_u64("sets", r.sets as u64)
            .put_u64("ways", r.ways as u64)
            .put_u64("max_count", r.max_count.into())
            .put_u64("entries", r.entries as u64)
            .put_f64("ipc_norm", r.ipc_norm)
            .put_f64("gap_closed", r.gap_closed)
            .put_f64("filter_rate", r.filter_rate)
            .put_u64("false_positive_hits", r.false_positive_hits)
            .put_u64("saturation_fallbacks", r.saturation_fallbacks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GeometryGrid {
        GeometryGrid {
            sets: vec![16, 64],
            ways: vec![1, 2],
            knobs: vec![1, 2],
            baseline_knob: 2,
            hash: SetHash::LowBits,
        }
    }

    #[test]
    fn points_expand_geometry_major() {
        let pts = grid().points();
        let names: Vec<String> = pts
            .iter()
            .map(|(g, k)| format!("{}@{k}", g.label()))
            .collect();
        assert_eq!(
            names,
            ["16x1@1", "16x1@2", "16x2@1", "16x2@2", "64x1@1", "64x1@2", "64x2@1", "64x2@2"]
        );
    }

    #[test]
    #[should_panic(expected = "baseline knob 7 not in")]
    fn points_reject_a_baseline_knob_outside_the_grid() {
        let mut g = grid();
        g.baseline_knob = 7;
        g.points();
    }

    fn kp(name: &str, entries: usize, knob: u32, metric: f64) -> KneePoint {
        KneePoint {
            name: name.to_string(),
            entries,
            knob,
            metric,
        }
    }

    #[test]
    fn knee_is_the_smallest_point_within_tolerance() {
        let pts = vec![
            kp("16x1@2", 16, 2, 0.70),
            kp("64x1@2", 64, 2, 0.99),
            kp("256x1@2", 256, 2, 1.00),
            kp("256x1@1", 256, 1, 2.00), // other knob: ignored
        ];
        let knee = find_knee(&pts, 2, 0.02);
        assert_eq!(pts[knee.baseline].name, "256x1@2");
        assert_eq!(pts[knee.knee].name, "64x1@2");
    }

    #[test]
    fn knee_falls_back_to_the_baseline_when_everything_collapses() {
        let pts = vec![kp("16x1@2", 16, 2, 0.1), kp("256x1@2", 256, 2, 1.0)];
        let knee = find_knee(&pts, 2, 0.02);
        assert_eq!(knee.baseline, knee.knee);
    }

    #[test]
    #[should_panic(expected = "no point at knob 3")]
    fn knee_requires_the_baseline_knob() {
        find_knee(&[kp("16x1@2", 16, 2, 1.0)], 3, 0.02);
    }

    fn grid_flag(words: &[&str]) -> Result<bool, String> {
        let args: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        crate::Options::parse(&args).map(|(opts, _)| opts.grid_tiny)
    }

    #[test]
    fn grid_flag_defaults_to_full() {
        assert_eq!(grid_flag(&[]), Ok(false));
        assert_eq!(grid_flag(&["--scale", "tiny"]), Ok(false));
    }

    #[test]
    fn grid_flag_errors_are_one_actionable_line() {
        assert_eq!(grid_flag(&["--grid", "tiny"]), Ok(true));
        assert_eq!(grid_flag(&["--grid", "full"]), Ok(false));
        let err = grid_flag(&["--grid", "huge"]).unwrap_err();
        assert!(err.contains("unknown grid `huge` (tiny|full)"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = grid_flag(&["--grid"]).unwrap_err();
        assert!(err.contains("--grid expects a value"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
    }

    #[test]
    fn pcax_sweep_json_renders_schema_and_balances() {
        let report = PcaxSweepReport {
            artifact: "table_pcax_sweep".to_string(),
            baseline: "1024x2@t2".to_string(),
            knee: "64x1@t2".to_string(),
            rows: vec![PcaxSweepRow {
                point: "64x1@t2".to_string(),
                sets: 64,
                ways: 1,
                threshold: 2,
                entries: 64,
                ipc_norm: 1.01,
                gap_closed: 97.5,
                coverage: 0.91,
                accuracy: 0.99,
                sfc_probes_skipped: 1234,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-pcax-sweep/v1\""));
        assert!(json.contains("\"baseline\": \"1024x2@t2\""));
        assert!(json.contains("\"knee\": \"64x1@t2\""));
        assert!(json.contains("\"sfc_probes_skipped\": 1234"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn filter_sweep_json_renders_schema_and_balances() {
        let report = FilterSweepReport {
            artifact: "table_filter_sweep".to_string(),
            baseline: "256x2@c15".to_string(),
            knee: "64x1@c15".to_string(),
            rows: vec![FilterSweepRow {
                point: "64x1@c15".to_string(),
                sets: 64,
                ways: 1,
                max_count: 15,
                entries: 64,
                ipc_norm: 1.0,
                gap_closed: 42.0,
                filter_rate: 0.87,
                false_positive_hits: 55,
                saturation_fallbacks: 3,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-filter-sweep/v1\""));
        assert!(json.contains("\"max_count\": 15"));
        assert!(json.contains("\"saturation_fallbacks\": 3"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
