//! §4 hybrid: an address-indexed membership filter in front of the LSQ.
//!
//! The paper's closing argument is that address-indexed structures and
//! associative queues are not rivals but layers: "various filtering
//! mechanisms have been proposed to reduce the frequency of associative
//! searches in conventional load/store queues" (§4). `table_filter`
//! evaluates that idea *inside* the MDT; this table evaluates it *in front
//! of the LSQ*: the `filtered-lsq` backend keeps a per-word counting table
//! of in-flight executed stores (MDT geometry, MDT granularity) and lets
//! any load whose word shows no store presence skip the store-queue CAM
//! outright. Misses are provably safe — the counting filter has no false
//! negatives — so the hybrid is performance-transparent and only the
//! search energy changes.
//!
//! The table brackets the hybrid between the `table_backend_bounds`
//! bounds (no-spec below, oracle above), prints the fraction of load
//! lookups that skipped the CAM next to the §4 MDT filter's skip fraction
//! on the same kernels, and fails loudly if either acceptance claim
//! breaks: the LSQ-side filter must skip at least as often as the MDT
//! filter (its membership test is one counter probe, not a full
//! no-unexecuted-store scan), and the hybrid's IPC must land inside the
//! bracket.
//!
//! Alongside the human-readable table, the run emits the stable
//! `aim-hybrid-report/v1` JSON (`BENCH_hybrid.json`) plus the usual
//! host-throughput `SweepReport`.

use aim_bench::{
    csv_path_from_args, gap_closed, jobs_from_args, rule, run_matrix_timed, scale_from_args, specs,
    suite_means, HybridReport, HybridRow, Report, SweepReport,
};
use aim_pipeline::SimStats;
use aim_workloads::Suite;

/// Fraction of dynamic load lookups that skipped the structure, for either
/// filter: skipped / (skipped + paid).
fn skip_rate(skipped: u64, paid: u64) -> f64 {
    if skipped + paid == 0 {
        return 0.0;
    }
    skipped as f64 / (skipped + paid) as f64
}

fn mdt_filter_rate(stats: &SimStats) -> f64 {
    let checks = stats.backend.mdt().map_or(0, |m| m.load_checks);
    skip_rate(stats.mdt_filtered_loads, checks)
}

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let spec = specs::table_hybrid();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_nospec, i_lsq, i_filt, i_sfc, i_oracle) = (
        spec.index("nospec"),
        spec.index("lsq-48x32"),
        spec.index("filtered-lsq"),
        spec.index("sfc-mdt-filt"),
        spec.index("oracle"),
    );

    println!("Hybrid filtered LSQ — baseline 4-wide machine (normalized to 48x32 LSQ IPC)");
    println!("filt% = load lookups skipping the SQ CAM; mdt% = §4 filter skipping the MDT");
    rule(98);
    println!(
        "{:<11} {:>5} | {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>7} | {:>6} {:>6} {:>5}",
        "benchmark", "suite", "LSQ IPC", "no-spec", "hybrid", "sfc/mdt", "oracle", "closed%",
        "filt%", "mdt%", "falseP"
    );
    rule(98);

    let mut nospec_rows = Vec::new();
    let mut filt_rows = Vec::new();
    let mut oracle_rows = Vec::new();
    let mut rows = Vec::new();
    let mut bracket_misses = Vec::new();
    let mut rate_misses = Vec::new();
    for (w, p) in prepared.iter().enumerate() {
        let lsq = matrix.get(w, i_lsq);
        let filt_stats = matrix.get(w, i_filt);
        let f = filt_stats
            .backend
            .filtered()
            .expect("filtered-lsq column carries filtered stats");
        let nospec = matrix.get(w, i_nospec).ipc() / lsq.ipc();
        let filtered = filt_stats.ipc() / lsq.ipc();
        let sfc = matrix.get(w, i_sfc).ipc() / lsq.ipc();
        let oracle = matrix.get(w, i_oracle).ipc() / lsq.ipc();
        let closed = gap_closed(filtered, nospec, oracle);
        let filter_rate = skip_rate(f.filter.filtered_loads, f.filter.searched_loads);
        let mdt_rate = mdt_filter_rate(matrix.get(w, i_sfc));
        // Acceptance: the hybrid must sit inside the bracket (a sliver of
        // timing noise is tolerated) and out-filter the §4 MDT filter.
        // The ceiling is max(oracle, plain LSQ): the oracle *stalls* loads
        // behind aliasing stores instead of forwarding, so on
        // forwarding-heavy kernels the associative LSQ legitimately beats
        // it — and the hybrid, being performance-transparent, rides along.
        let ceiling = oracle.max(1.0);
        if filtered < nospec - 0.005 || filtered > ceiling + 0.005 {
            bracket_misses.push(p.name);
        }
        if filter_rate + 1e-9 < mdt_rate {
            rate_misses.push(p.name);
        }

        nospec_rows.push((p.suite, nospec));
        filt_rows.push((p.suite, filtered));
        oracle_rows.push((p.suite, oracle));
        let suite = if p.suite == Suite::Int { "int" } else { "fp" };
        rows.push(HybridRow {
            workload: p.name.to_string(),
            suite: suite.to_string(),
            lsq_ipc: lsq.ipc(),
            nospec_norm: nospec,
            filtered_norm: filtered,
            sfc_mdt_norm: sfc,
            oracle_norm: oracle,
            gap_closed: closed,
            filtered_loads: f.filter.filtered_loads,
            searched_loads: f.filter.searched_loads,
            filter_rate,
            false_positive_hits: f.filter.false_positive_hits,
            saturation_fallbacks: f.filter.saturation_fallbacks,
            mdt_filter_rate: mdt_rate,
        });
        println!(
            "{:<11} {:>5} | {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>6.1}% | {:>5.1}% {:>5.1}% {:>5}",
            p.name,
            suite,
            lsq.ipc(),
            nospec,
            filtered,
            sfc,
            oracle,
            closed,
            100.0 * filter_rate,
            100.0 * mdt_rate,
            f.filter.false_positive_hits,
        );
    }
    rule(98);
    let (ns_int, ns_fp) = suite_means(&nospec_rows);
    let (fl_int, fl_fp) = suite_means(&filt_rows);
    let (or_int, or_fp) = suite_means(&oracle_rows);
    println!(
        "{:<11} {:>5} | {:>8} | {:>8.3} {:>8.3} {:>8} {:>8.3} |",
        "int avg", "", "", ns_int, fl_int, "", or_int
    );
    println!(
        "{:<11} {:>5} | {:>8} | {:>8.3} {:>8.3} {:>8} {:>8.3} |",
        "fp avg", "", "", ns_fp, fl_fp, "", or_fp
    );
    rule(98);

    let report = HybridReport {
        artifact: spec.artifact.to_string(),
        rows,
    };
    if let Some(path) = csv_path {
        report.write_csv(&path).expect("write csv");
        println!("wrote {path}");
    }
    match report.write_default() {
        Ok(path) => println!("hybrid report — {path}"),
        Err(e) => eprintln!("hybrid report not written: {e}"),
    }
    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();

    assert!(
        bracket_misses.is_empty(),
        "hybrid IPC escaped the no-spec..oracle bracket on: {bracket_misses:?}"
    );
    assert!(
        rate_misses.is_empty(),
        "LSQ filter skipped less than the §4 MDT filter on: {rate_misses:?}"
    );
    println!("acceptance: hybrid inside the bracket, filter rate ≥ §4 MDT filter, on every kernel");
}
