//! PCAX prediction-table geometry sweep: where does the knee sit?
//!
//! `table_pcax` evaluates the PC-indexed classification backend at one
//! fixed 1024×2 table. This sweep shrinks the table across a sets × ways
//! grid (and, at full scale, the no-alias acting threshold) to find where
//! coverage collapses — the sizing-sensitivity study the paper's §5 runs
//! for the SFC/MDT, applied to the prediction table. Every point is
//! bracketed per kernel between `nospec` and the best of oracle / LSQ /
//! SFC-MDT: a small table may predict less, never wrongly enough to
//! escape the bracket.
//!
//! The run prints one row per grid point (geomean IPC norm, gap closed,
//! aggregate coverage/accuracy, skipped SFC probes), locates the knee —
//! the smallest geometry whose coverage stays within 2% of the baseline
//! point's — and emits the stable `aim-pcax-sweep/v1` JSON
//! (`BENCH_pcax_sweep.json`) plus the usual host-throughput `SweepReport`.
//!
//! Flags: `--grid tiny|full` (default `full`) picks the CI-sized 2×2 grid
//! or the full sets × ways × threshold study.

use aim_bench::{
    csv_path_from_args, find_knee, gap_closed, grid_tiny_from_args, jobs_from_args, rule,
    run_matrix_timed, scale_from_args, specs, KneePoint, PcaxSweepReport, PcaxSweepRow, Report,
    SweepReport,
};
use aim_pipeline::PcaxPredStats;
use aim_types::geomean;

/// The knee tolerance: smallest geometry within 2% of the baseline metric.
const KNEE_TOLERANCE: f64 = 0.02;

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let grid = specs::pcax_sweep_grid(grid_tiny_from_args());
    let spec = specs::table_pcax_sweep(&grid);
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_nospec, i_lsq, i_sfc, i_oracle) = (
        spec.index("nospec"),
        spec.index("lsq-48x32"),
        spec.index("sfc-mdt"),
        spec.index("oracle"),
    );
    let points = grid.points();
    let first_point = spec.configs.len() - points.len();

    // Per-kernel bracket bounds, normalized to the 48×32 LSQ. The ceiling
    // is max(oracle, plain LSQ, SFC/MDT) as in `table_pcax`: the oracle
    // stalls loads behind aliasing stores instead of forwarding, so the
    // SFC's speculative forwarding legitimately beats it — and PCAX, a
    // classification layer over that same SFC/MDT, rides along.
    let bounds: Vec<(f64, f64, f64)> = prepared
        .iter()
        .enumerate()
        .map(|(w, _)| {
            let lsq = matrix.get(w, i_lsq).ipc();
            let nospec = matrix.get(w, i_nospec).ipc() / lsq;
            let sfc = matrix.get(w, i_sfc).ipc() / lsq;
            let oracle = matrix.get(w, i_oracle).ipc() / lsq;
            (nospec, oracle.max(1.0).max(sfc), oracle)
        })
        .collect();
    let nospec_gm = geomean(&bounds.iter().map(|b| b.0).collect::<Vec<_>>());
    let oracle_gm = geomean(&bounds.iter().map(|b| b.2).collect::<Vec<_>>());

    println!("PCAX table-geometry sweep — baseline 4-wide machine (geomean IPC normalized to 48x32 LSQ)");
    println!(
        "grid: sets {:?} × ways {:?} × no-alias threshold {:?} (baseline knob t{})",
        grid.sets, grid.ways, grid.knobs, grid.baseline_knob
    );
    rule(88);
    println!(
        "{:<12} {:>7} | {:>8} {:>7} | {:>6} {:>6} {:>10}",
        "point", "entries", "IPC norm", "closed%", "cov%", "acc%", "skipped"
    );
    rule(88);

    let mut rows = Vec::new();
    let mut knee_points = Vec::new();
    let mut bracket_misses = Vec::new();
    for (p, &(table, threshold)) in points.iter().enumerate() {
        let c = first_point + p;
        let name = &spec.configs[c].0;
        let mut norms = Vec::with_capacity(prepared.len());
        let mut pred = PcaxPredStats::default();
        for (w, kernel) in prepared.iter().enumerate() {
            let stats = matrix.get(w, c);
            let norm = stats.ipc() / matrix.get(w, i_lsq).ipc();
            let (floor, ceiling, _) = bounds[w];
            if norm < floor - 0.005 || norm > ceiling + 0.01 {
                bracket_misses.push(format!("{name} on {}", kernel.name));
            }
            norms.push(norm);
            let k = &stats
                .backend
                .pcax()
                .expect("sweep point carries pcax stats")
                .pred;
            pred.loads_no_alias += k.loads_no_alias;
            pred.loads_forward += k.loads_forward;
            pred.loads_unknown += k.loads_unknown;
            pred.no_alias_correct += k.no_alias_correct;
            pred.no_alias_vetoed += k.no_alias_vetoed;
            pred.no_alias_violated += k.no_alias_violated;
            pred.forward_hits += k.forward_hits;
            pred.forward_misses += k.forward_misses;
            pred.forward_wait_replays += k.forward_wait_replays;
            pred.sfc_probes_skipped += k.sfc_probes_skipped;
            pred.violation_trainings += k.violation_trainings;
        }
        let ipc_norm = geomean(&norms);
        let gap_closed = gap_closed(ipc_norm, nospec_gm, oracle_gm);
        println!(
            "{:<12} {:>7} | {:>8.3} {:>6.1}% | {:>5.1}% {:>5.1}% {:>10}",
            name,
            table.entries(),
            ipc_norm,
            gap_closed,
            100.0 * pred.coverage(),
            100.0 * pred.accuracy(),
            pred.sfc_probes_skipped,
        );
        knee_points.push(KneePoint {
            name: name.clone(),
            entries: table.entries(),
            knob: threshold,
            metric: pred.coverage(),
        });
        rows.push(PcaxSweepRow {
            point: name.clone(),
            sets: table.sets,
            ways: table.ways,
            threshold,
            entries: table.entries(),
            ipc_norm,
            gap_closed,
            coverage: pred.coverage(),
            accuracy: pred.accuracy(),
            sfc_probes_skipped: pred.sfc_probes_skipped,
        });
    }
    rule(88);

    let knee = find_knee(&knee_points, grid.baseline_knob, KNEE_TOLERANCE);
    let (b, k) = (&knee_points[knee.baseline], &knee_points[knee.knee]);
    println!(
        "knee: {} ({} entries) holds coverage {:.1}% — within {:.0}% of baseline {} ({} entries, {:.1}%)",
        k.name,
        k.entries,
        100.0 * k.metric,
        100.0 * KNEE_TOLERANCE,
        b.name,
        b.entries,
        100.0 * b.metric,
    );

    let report = PcaxSweepReport {
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
        Ok(path) => println!("pcax sweep report — {path}"),
        Err(e) => eprintln!("pcax sweep report not written: {e}"),
    }
    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();

    assert!(
        bracket_misses.is_empty(),
        "pcax sweep points escaped the no-spec..oracle bracket: {bracket_misses:?}"
    );
    println!("acceptance: every swept pcax geometry inside the no-spec..oracle bracket, knee located");
}
