//! Backend bounds bracket: no-spec ≤ {LSQ, SFC/MDT} ≤ oracle.
//!
//! The paper evaluates the SFC/MDT against an idealized LSQ (§3), but any
//! disambiguation scheme is also bracketed by two analytic bounds: a
//! **no-speculation** machine that issues every load only after all older
//! stores have retired (the lower bound the paper's related work, e.g. the
//! store barrier cache, improves on), and a **perfect-disambiguation
//! oracle** that stalls a load exactly when an older in-flight store to the
//! same bytes has not yet executed, and therefore never mis-speculates (the
//! upper bound every predictor in §5 approaches). This harness runs all
//! four backends per kernel and reports IPC normalized to the LSQ, plus how
//! much of the no-spec → oracle gap the SFC/MDT closes.

use aim_bench::{
    csv_path_from_args, gap_closed, jobs_from_args, rule, run_matrix_timed, scale_from_args, specs,
    suite_means, CsvTable, SweepReport,
};
use aim_workloads::Suite;

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let spec = specs::table_backend_bounds();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_nospec, i_lsq, i_sfc, i_oracle) = (
        spec.index("nospec"),
        spec.index("lsq-48x32"),
        spec.index("sfc-mdt-enf"),
        spec.index("oracle"),
    );

    println!("Backend bounds — baseline 4-wide superscalar (normalized to 48x32 LSQ IPC)");
    println!("no-spec serializes loads behind all older stores; the oracle never mis-speculates.");
    rule(86);
    println!(
        "{:<11} {:>6} | {:>8} | {:>8} {:>8} {:>8} | {:>7}",
        "benchmark", "suite", "LSQ IPC", "no-spec", "sfc/mdt", "oracle", "closed%"
    );
    rule(86);

    let mut nospec_rows = Vec::new();
    let mut sfc_rows = Vec::new();
    let mut oracle_rows = Vec::new();
    let mut csv = CsvTable::new(&[
        "benchmark",
        "suite",
        "lsq_ipc",
        "nospec_norm",
        "sfc_mdt_norm",
        "oracle_norm",
        "gap_closed",
    ]);
    for (w, p) in prepared.iter().enumerate() {
        let lsq = matrix.get(w, i_lsq);
        let nospec = matrix.get(w, i_nospec).ipc() / lsq.ipc();
        let sfc = matrix.get(w, i_sfc).ipc() / lsq.ipc();
        let oracle = matrix.get(w, i_oracle).ipc() / lsq.ipc();
        // Fraction of the no-spec -> oracle IPC gap the SFC/MDT recovers.
        let closed = gap_closed(sfc, nospec, oracle);
        nospec_rows.push((p.suite, nospec));
        sfc_rows.push((p.suite, sfc));
        oracle_rows.push((p.suite, oracle));
        csv.row(&[
            p.name.to_string(),
            format!("{:?}", p.suite).to_lowercase(),
            format!("{:.4}", lsq.ipc()),
            format!("{nospec:.4}"),
            format!("{sfc:.4}"),
            format!("{oracle:.4}"),
            format!("{closed:.1}"),
        ]);
        println!(
            "{:<11} {:>6} | {:>8.3} | {:>8.3} {:>8.3} {:>8.3} | {:>6.1}%",
            p.name,
            if p.suite == Suite::Int { "int" } else { "fp" },
            lsq.ipc(),
            nospec,
            sfc,
            oracle,
            closed,
        );
    }
    rule(86);
    let (ns_int, ns_fp) = suite_means(&nospec_rows);
    let (sf_int, sf_fp) = suite_means(&sfc_rows);
    let (or_int, or_fp) = suite_means(&oracle_rows);
    println!(
        "{:<11} {:>6} | {:>8} | {:>8.3} {:>8.3} {:>8.3} |",
        "int avg", "", "", ns_int, sf_int, or_int
    );
    println!(
        "{:<11} {:>6} | {:>8} | {:>8.3} {:>8.3} {:>8.3} |",
        "fp avg", "", "", ns_fp, sf_fp, or_fp
    );
    rule(86);
    println!("expected: no-spec ≤ sfc/mdt ≤ oracle, with the SFC/MDT near the oracle (§3.1)");
    if let Some(path) = csv_path {
        csv.write(&path).expect("write csv");
        println!("wrote {path}");
    }

    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();
}
