//! PCAX: PC-indexed load classification in front of the SFC/MDT.
//!
//! The paper's structures are address-indexed at *execute* time; PCAX asks
//! how much of that work a PC-indexed predictor can route around at
//! *dispatch* time. A per-load-PC table classifies each load as no-alias
//! (provably-safe SFC-probe skip, vetoed by an MDT older-store check),
//! predicted-forward (wait for the predicted producer store instead of
//! speculating past it), or unknown (the full SFC + MDT path). The MDT
//! verifies every classified load, and mispredictions retrain the table.
//!
//! The table brackets PCAX between the `table_backend_bounds` bounds
//! (no-spec below, oracle above), prints prediction coverage and accuracy
//! next to the SFC probes the no-alias class skipped, and fails loudly if
//! the acceptance claim breaks: PCAX's IPC must land inside the bracket —
//! misprediction is allowed to cost performance, never correctness or the
//! bracket.
//!
//! Alongside the human-readable table, the run emits the stable
//! `aim-pcax-report/v1` JSON (`BENCH_pcax.json`) plus the usual
//! host-throughput `SweepReport`.

use aim_bench::{
    csv_path_from_args, gap_closed, jobs_from_args, rule, run_matrix_timed, scale_from_args, specs,
    suite_means, PcaxReport, PcaxRow, Report, SweepReport,
};
use aim_workloads::Suite;

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let spec = specs::table_pcax();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let (i_nospec, i_lsq, i_sfc, i_pcax, i_oracle) = (
        spec.index("nospec"),
        spec.index("lsq-48x32"),
        spec.index("sfc-mdt"),
        spec.index("pcax"),
        spec.index("oracle"),
    );

    println!("PCAX PC-indexed classification — baseline 4-wide machine (normalized to 48x32 LSQ IPC)");
    println!("cov% = classified loads carrying a prediction; acc% = resolved predictions correct");
    rule(100);
    println!(
        "{:<11} {:>5} | {:>8} | {:>8} {:>8} {:>8} {:>8} | {:>7} | {:>6} {:>6} {:>7}",
        "benchmark", "suite", "LSQ IPC", "no-spec", "pcax", "sfc/mdt", "oracle", "closed%",
        "cov%", "acc%", "skipped"
    );
    rule(100);

    let mut nospec_rows = Vec::new();
    let mut pcax_rows = Vec::new();
    let mut oracle_rows = Vec::new();
    let mut rows = Vec::new();
    let mut bracket_misses = Vec::new();
    for (w, p) in prepared.iter().enumerate() {
        let lsq = matrix.get(w, i_lsq);
        let pcax_stats = matrix.get(w, i_pcax);
        let pred = &pcax_stats
            .backend
            .pcax()
            .expect("pcax column carries pcax stats")
            .pred;
        let nospec = matrix.get(w, i_nospec).ipc() / lsq.ipc();
        let pcax = pcax_stats.ipc() / lsq.ipc();
        let sfc = matrix.get(w, i_sfc).ipc() / lsq.ipc();
        let oracle = matrix.get(w, i_oracle).ipc() / lsq.ipc();
        let closed = gap_closed(pcax, nospec, oracle);
        // Acceptance: PCAX must sit inside the bracket (a sliver of timing
        // noise is tolerated). The ceiling is max(oracle, plain LSQ,
        // SFC/MDT): the oracle *stalls* loads behind aliasing stores
        // instead of forwarding, so on forwarding-heavy kernels the SFC's
        // speculative forwarding legitimately beats it — and PCAX, a
        // classification layer over that same SFC/MDT, rides along.
        let ceiling = oracle.max(1.0).max(sfc);
        if pcax < nospec - 0.005 || pcax > ceiling + 0.01 {
            bracket_misses.push(p.name);
        }

        nospec_rows.push((p.suite, nospec));
        pcax_rows.push((p.suite, pcax));
        oracle_rows.push((p.suite, oracle));
        let suite = if p.suite == Suite::Int { "int" } else { "fp" };
        rows.push(PcaxRow {
            workload: p.name.to_string(),
            suite: suite.to_string(),
            lsq_ipc: lsq.ipc(),
            nospec_norm: nospec,
            pcax_norm: pcax,
            sfc_mdt_norm: sfc,
            oracle_norm: oracle,
            gap_closed: closed,
            loads_no_alias: pred.loads_no_alias,
            loads_forward: pred.loads_forward,
            loads_unknown: pred.loads_unknown,
            coverage: pred.coverage(),
            accuracy: pred.accuracy(),
            sfc_probes_skipped: pred.sfc_probes_skipped,
            forward_wait_replays: pred.forward_wait_replays,
        });
        println!(
            "{:<11} {:>5} | {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>6.1}% | {:>5.1}% {:>5.1}% {:>7}",
            p.name,
            suite,
            lsq.ipc(),
            nospec,
            pcax,
            sfc,
            oracle,
            closed,
            100.0 * pred.coverage(),
            100.0 * pred.accuracy(),
            pred.sfc_probes_skipped,
        );
    }
    rule(100);
    let (ns_int, ns_fp) = suite_means(&nospec_rows);
    let (px_int, px_fp) = suite_means(&pcax_rows);
    let (or_int, or_fp) = suite_means(&oracle_rows);
    println!(
        "{:<11} {:>5} | {:>8} | {:>8.3} {:>8.3} {:>8} {:>8.3} |",
        "int avg", "", "", ns_int, px_int, "", or_int
    );
    println!(
        "{:<11} {:>5} | {:>8} | {:>8.3} {:>8.3} {:>8} {:>8.3} |",
        "fp avg", "", "", ns_fp, px_fp, "", or_fp
    );
    rule(100);

    let report = PcaxReport {
        artifact: spec.artifact.to_string(),
        rows,
    };
    if let Some(path) = csv_path {
        report.write_csv(&path).expect("write csv");
        println!("wrote {path}");
    }
    match report.write_default() {
        Ok(path) => println!("pcax report — {path}"),
        Err(e) => eprintln!("pcax report not written: {e}"),
    }
    SweepReport::from_matrix(spec.artifact, jobs, wall, &prepared, &spec.configs, &matrix).emit();

    assert!(
        bracket_misses.is_empty(),
        "pcax IPC escaped the no-spec..oracle bracket on: {bracket_misses:?}"
    );
    println!("acceptance: pcax inside the bracket on every kernel, prediction verified by the MDT");
}
