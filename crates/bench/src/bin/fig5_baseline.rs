//! Figure 5: the SPEC 2000 kernels on the 4-wide baseline superscalar.
//!
//! Reproduces the paper's Figure 5: per-benchmark IPC of the MDT/SFC with the
//! producer-set predictor enforcing all predicted dependences (**ENF**) and
//! enforcing only true dependences (**NOT-ENF**), normalized to an idealized
//! 48×32 LSQ.
//!
//! Paper's headline numbers (§3.1): ENF within ~1 % of the LSQ on average,
//! NOT-ENF within ~3 %; gzip, vpr_route and mesa gain the most from
//! enforcing output dependences.

use aim_bench::{
    csv_path_from_args, jobs_from_args, rule, run_matrix_timed, scale_from_args, specs,
    suite_means, CsvTable, SweepReport,
};
use aim_workloads::Suite;

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let spec = specs::fig5_baseline();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_lsq, i_enf, i_ne) = (
        spec.index("lsq-48x32"),
        spec.index("sfc-mdt-enf"),
        spec.index("sfc-mdt-not-enf"),
    );

    println!("Figure 5 — baseline 4-wide superscalar (normalized to 48x32 LSQ IPC)");
    println!("Paper: ENF avg within ~1% of LSQ; NOT-ENF within ~3%.");
    rule(74);
    println!(
        "{:<11} {:>6} | {:>9} {:>9} | {:>8} {:>8}",
        "benchmark", "suite", "LSQ IPC", "", "ENF", "NOT-ENF"
    );
    rule(74);

    let mut enf_rows = Vec::new();
    let mut not_enf_rows = Vec::new();
    let mut csv = CsvTable::new(&["benchmark", "suite", "lsq_ipc", "enf_norm", "not_enf_norm"]);
    for (w, p) in prepared.iter().enumerate() {
        let lsq = matrix.get(w, i_lsq);
        let enf = matrix.get(w, i_enf);
        let not_enf = matrix.get(w, i_ne);
        let enf_norm = enf.ipc() / lsq.ipc();
        let not_enf_norm = not_enf.ipc() / lsq.ipc();
        enf_rows.push((p.suite, enf_norm));
        not_enf_rows.push((p.suite, not_enf_norm));
        csv.row(&[
            p.name.to_string(),
            format!("{:?}", p.suite).to_lowercase(),
            format!("{:.4}", lsq.ipc()),
            format!("{enf_norm:.4}"),
            format!("{not_enf_norm:.4}"),
        ]);
        println!(
            "{:<11} {:>6} | {:>9.3} {:>9} | {:>8.3} {:>8.3}",
            p.name,
            if p.suite == Suite::Int { "int" } else { "fp" },
            lsq.ipc(),
            "",
            enf_norm,
            not_enf_norm,
        );
    }
    rule(74);
    let (enf_int, enf_fp) = suite_means(&enf_rows);
    let (ne_int, ne_fp) = suite_means(&not_enf_rows);
    println!(
        "{:<11} {:>6} | {:>9} {:>9} | {:>8.3} {:>8.3}",
        "int avg", "", "", "", enf_int, ne_int
    );
    println!(
        "{:<11} {:>6} | {:>9} {:>9} | {:>8.3} {:>8.3}",
        "fp avg", "", "", "", enf_fp, ne_fp
    );
    rule(74);
    println!("paper targets: ENF avg ≈ 0.99+ (within 1%), NOT-ENF avg ≈ 0.97+ (within 3%)");
    if let Some(path) = csv_path {
        csv.write(&path).expect("write csv");
        println!("wrote {path}");
    }

    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();
}
