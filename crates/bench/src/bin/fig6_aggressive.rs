//! Figure 6: the SPEC 2000 kernels on the 8-wide aggressive superscalar.
//!
//! Reproduces the paper's Figure 6: per-benchmark IPC of an idealized
//! 256×256 LSQ, an idealized 48×32 LSQ, and the MDT/SFC with the ENF
//! (total-ordering) producer-set predictor — all normalized to an idealized
//! 120×80 LSQ.
//!
//! Paper's headline numbers (§3.2): MDT/SFC ≈ −9 % on specint (bzip2, mcf,
//! vpr_route ≥ 15 % down), ≈ +2 % on specfp (ammp, equake ≥ 10 % down); the
//! small 48×32 LSQ trails badly because its capacity throttles the window.
//! `mesa` is excluded, as in the paper.

use aim_bench::{
    csv_path_from_args, jobs_from_args, rule, run_matrix_timed, scale_from_args, specs,
    suite_means, CsvTable, SweepReport,
};
use aim_workloads::Suite;

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let spec = specs::fig6_aggressive();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_ref, i_big, i_small, i_enf) = (
        spec.index("lsq-120x80"),
        spec.index("lsq-256x256"),
        spec.index("lsq-48x32"),
        spec.index("sfc-mdt-enf"),
    );

    println!("Figure 6 — aggressive 8-wide superscalar (normalized to 120x80 LSQ IPC)");
    println!("Paper: MDT/SFC(ENF) ≈ -9% int / +2% fp vs the 120x80 LSQ.");
    rule(86);
    println!(
        "{:<11} {:>6} | {:>9} | {:>10} {:>10} {:>12}",
        "benchmark", "suite", "120x80 IPC", "lq256xsq256", "lq48xsq32", "MDT/SFC ENF"
    );
    rule(86);

    let mut big_rows = Vec::new();
    let mut small_rows = Vec::new();
    let mut enf_rows = Vec::new();
    let mut csv = CsvTable::new(&[
        "benchmark",
        "suite",
        "lsq120x80_ipc",
        "lsq256x256_norm",
        "lsq48x32_norm",
        "sfc_mdt_enf_norm",
    ]);
    for (w, p) in prepared.iter().enumerate() {
        let reference = matrix.get(w, i_ref);
        let big = matrix.get(w, i_big).ipc() / reference.ipc();
        let small = matrix.get(w, i_small).ipc() / reference.ipc();
        let enf = matrix.get(w, i_enf).ipc() / reference.ipc();
        big_rows.push((p.suite, big));
        small_rows.push((p.suite, small));
        enf_rows.push((p.suite, enf));
        csv.row(&[
            p.name.to_string(),
            format!("{:?}", p.suite).to_lowercase(),
            format!("{:.4}", reference.ipc()),
            format!("{big:.4}"),
            format!("{small:.4}"),
            format!("{enf:.4}"),
        ]);
        println!(
            "{:<11} {:>6} | {:>9.3} | {:>10.3} {:>10.3} {:>12.3}",
            p.name,
            if p.suite == Suite::Int { "int" } else { "fp" },
            reference.ipc(),
            big,
            small,
            enf,
        );
    }
    rule(86);
    let (big_i, big_f) = suite_means(&big_rows);
    let (small_i, small_f) = suite_means(&small_rows);
    let (enf_i, enf_f) = suite_means(&enf_rows);
    println!(
        "{:<11} {:>6} | {:>9} | {:>10.3} {:>10.3} {:>12.3}",
        "int avg", "", "", big_i, small_i, enf_i
    );
    println!(
        "{:<11} {:>6} | {:>9} | {:>10.3} {:>10.3} {:>12.3}",
        "fp avg", "", "", big_f, small_f, enf_f
    );
    rule(86);
    println!("paper targets: ENF int avg ≈ 0.91, ENF fp avg ≈ 1.02;");
    println!("  bzip2/mcf/vpr_route ≤ 0.85; ammp/equake ≤ 0.90; lq48xsq32 well below 1.0");
    if let Some(path) = csv_path {
        csv.write(&path).expect("write csv");
        println!("wrote {path}");
    }

    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();
}
