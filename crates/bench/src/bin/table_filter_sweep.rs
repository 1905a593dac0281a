//! Filtered-LSQ membership-filter geometry sweep: where does the knee sit?
//!
//! `table_hybrid` evaluates the filtered LSQ at the fixed
//! `FilterConfig::baseline()` geometry. This sweep shrinks the per-word
//! counting filter across a sets × ways grid (and, at full scale, the
//! counter saturation point) to find where the filtered-load rate
//! collapses — below what size does the hybrid start paying CAM searches
//! again? The filter is performance-transparent by construction (no false
//! negatives), so every point must stay inside the per-kernel
//! `nospec..oracle` bracket; shrinking the table may only cost searches,
//! never correctness.
//!
//! The run prints one row per grid point (geomean IPC norm, gap closed,
//! aggregate filtered-load rate, false positives, saturation fallbacks),
//! locates the knee — the smallest geometry whose filter rate stays
//! within 2% of the baseline point's — and emits the stable
//! `aim-filter-sweep/v1` JSON (`BENCH_filter_sweep.json`) plus the usual
//! host-throughput `SweepReport`.
//!
//! Flags: `--grid tiny|full` (default `full`) picks the CI-sized 2×2 grid
//! or the full sets × ways × counter-width study.

use aim_bench::{
    csv_path_from_args, find_knee, gap_closed, grid_tiny_from_args, jobs_from_args, rule,
    run_matrix_timed, scale_from_args, specs, FilterSweepReport, FilterSweepRow, KneePoint, Report,
    SweepReport,
};
use aim_pipeline::FilterStats;
use aim_types::geomean;

/// The knee tolerance: smallest geometry within 2% of the baseline metric.
const KNEE_TOLERANCE: f64 = 0.02;

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let grid = specs::filter_sweep_grid(grid_tiny_from_args());
    let spec = specs::table_filter_sweep(&grid);
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_nospec, i_lsq, i_oracle) = (
        spec.index("nospec"),
        spec.index("lsq-48x32"),
        spec.index("oracle"),
    );
    let points = grid.points();
    let first_point = spec.configs.len() - points.len();

    // Per-kernel bracket bounds, normalized to the 48×32 LSQ. The filtered
    // LSQ is architecturally the LSQ, so its norm sits at ~1.0; the
    // ceiling still admits the oracle-beats-LSQ case.
    let bounds: Vec<(f64, f64)> = prepared
        .iter()
        .enumerate()
        .map(|(w, _)| {
            let lsq = matrix.get(w, i_lsq).ipc();
            let nospec = matrix.get(w, i_nospec).ipc() / lsq;
            let oracle = matrix.get(w, i_oracle).ipc() / lsq;
            (nospec, oracle.max(1.0))
        })
        .collect();
    let nospec_gm = geomean(&bounds.iter().map(|b| b.0).collect::<Vec<_>>());
    let oracle_gm = geomean(
        &prepared
            .iter()
            .enumerate()
            .map(|(w, _)| matrix.get(w, i_oracle).ipc() / matrix.get(w, i_lsq).ipc())
            .collect::<Vec<_>>(),
    );

    println!("Filtered-LSQ filter-geometry sweep — baseline 4-wide machine (geomean IPC normalized to 48x32 LSQ)");
    println!(
        "grid: sets {:?} × ways {:?} × counter saturation {:?} (baseline knob c{})",
        grid.sets, grid.ways, grid.knobs, grid.baseline_knob
    );
    rule(92);
    println!(
        "{:<12} {:>7} | {:>8} {:>7} | {:>6} {:>12} {:>11}",
        "point", "entries", "IPC norm", "closed%", "filt%", "false pos", "saturations"
    );
    rule(92);

    let mut rows = Vec::new();
    let mut knee_points = Vec::new();
    let mut bracket_misses = Vec::new();
    for (p, &(table, max_count)) in points.iter().enumerate() {
        let c = first_point + p;
        let name = &spec.configs[c].0;
        let mut norms = Vec::with_capacity(prepared.len());
        let mut filter = FilterStats::default();
        for (w, kernel) in prepared.iter().enumerate() {
            let stats = matrix.get(w, c);
            let norm = stats.ipc() / matrix.get(w, i_lsq).ipc();
            let (floor, ceiling) = bounds[w];
            if norm < floor - 0.005 || norm > ceiling + 0.01 {
                bracket_misses.push(format!("{name} on {}", kernel.name));
            }
            norms.push(norm);
            let k = &stats
                .backend
                .filtered()
                .expect("sweep point carries filtered stats")
                .filter;
            filter.filtered_loads += k.filtered_loads;
            filter.searched_loads += k.searched_loads;
            filter.false_positive_hits += k.false_positive_hits;
            filter.saturation_fallbacks += k.saturation_fallbacks;
        }
        let ipc_norm = geomean(&norms);
        let gap_closed = gap_closed(ipc_norm, nospec_gm, oracle_gm);
        let loads = filter.filtered_loads + filter.searched_loads;
        let filter_rate = if loads == 0 {
            0.0
        } else {
            filter.filtered_loads as f64 / loads as f64
        };
        println!(
            "{:<12} {:>7} | {:>8.3} {:>6.1}% | {:>5.1}% {:>12} {:>11}",
            name,
            table.entries(),
            ipc_norm,
            gap_closed,
            100.0 * filter_rate,
            filter.false_positive_hits,
            filter.saturation_fallbacks,
        );
        knee_points.push(KneePoint {
            name: name.clone(),
            entries: table.entries(),
            knob: max_count,
            metric: filter_rate,
        });
        rows.push(FilterSweepRow {
            point: name.clone(),
            sets: table.sets,
            ways: table.ways,
            max_count,
            entries: table.entries(),
            ipc_norm,
            gap_closed,
            filter_rate,
            false_positive_hits: filter.false_positive_hits,
            saturation_fallbacks: filter.saturation_fallbacks,
        });
    }
    rule(92);

    let knee = find_knee(&knee_points, grid.baseline_knob, KNEE_TOLERANCE);
    let (b, k) = (&knee_points[knee.baseline], &knee_points[knee.knee]);
    println!(
        "knee: {} ({} entries) holds filter rate {:.1}% — within {:.0}% of baseline {} ({} entries, {:.1}%)",
        k.name,
        k.entries,
        100.0 * k.metric,
        100.0 * KNEE_TOLERANCE,
        b.name,
        b.entries,
        100.0 * b.metric,
    );

    let report = FilterSweepReport {
        artifact: spec.artifact.to_string(),
        baseline: b.name.clone(),
        knee: k.name.clone(),
        rows,
    };
    if let Some(path) = csv_path {
        report.write_csv(&path).expect("write csv");
        println!("wrote {path}");
    }
    match report.write_default() {
        Ok(path) => println!("filter sweep report — {path}"),
        Err(e) => eprintln!("filter sweep report not written: {e}"),
    }
    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();

    assert!(
        bracket_misses.is_empty(),
        "filter sweep points escaped the no-spec..oracle bracket: {bracket_misses:?}"
    );
    println!("acceptance: every swept filter geometry inside the no-spec..oracle bracket, knee located");
}
