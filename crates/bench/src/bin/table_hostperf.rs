//! Host-throughput tracking matrix: simulated kcycles/s and MIPS per
//! backend × machine class, plus the differential stats fingerprint.
//!
//! This is the perf-trajectory artifact: `BENCH_hostperf.json`
//! (`aim-hostperf-report/v1`) records how fast the *host* simulates each
//! backend, aggregated over every kernel, so simulator-performance work
//! (e.g. the data-oriented SoA table rewrite) can be measured
//! backend-by-backend across commits rather than by anecdote.
//!
//! The report's `stats_fingerprint` hashes every cell's host-independent
//! `SimStats`, making the binary double as a behaviour gate: any change to
//! any architectural statistic on any (kernel, backend) pair changes the
//! fingerprint. With `--check`, the matrix is replayed on a single worker
//! and the run fails unless both fingerprints agree (the jobs=N ≡ jobs=1
//! determinism property); `scripts/tier1.sh` greps the resulting
//! `hostperf: ACCEPT` acceptance line and the `hostperf: huge-far800`
//! fingerprint line, which pins the 4096-entry huge machine behind the
//! 800-cycle far tier.

use aim_bench::{
    csv_path_from_args, fingerprint_stats, has_flag, jobs_from_args, rule, run_matrix,
    run_matrix_timed, run_multi_n1, scale_from_args, specs, stats_fingerprint, HostperfReport,
    Report,
};

fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let csv_path = csv_path_from_args();
    let spec = specs::table_hostperf();
    let prepared = spec.workloads(scale);
    let (matrix, wall) = run_matrix_timed(&prepared, &spec.configs, jobs);
    let report = HostperfReport::from_matrix(scale, jobs, wall, &spec.configs, &matrix);

    println!(
        "Host throughput — {} kernels at --scale {}, all backends on both machine classes",
        prepared.len(),
        scale
    );
    rule(78);
    println!(
        "{:<18} {:>10} | {:>12} {:>10} | {:>12} {:>8}",
        "config", "machine", "sim kcycles", "retired k", "kcycles/s", "MIPS"
    );
    rule(78);
    for row in &report.rows {
        println!(
            "{:<18} {:>10} | {:>12} {:>10} | {:>12.1} {:>8.3}",
            row.config,
            row.machine,
            row.sim_cycles / 1000,
            row.retired / 1000,
            row.kcycles_per_sec,
            row.retired_mips,
        );
    }
    rule(78);
    if let Some(path) = csv_path {
        report.write_csv(&path).expect("write csv");
        println!("wrote {path}");
    }

    match report.write_default() {
        Ok(path) => println!(
            "hostperf: {} cells in {:.2}s on {} job(s) — {path}",
            prepared.len() * spec.configs.len(),
            report.wall_seconds,
            report.jobs
        ),
        Err(e) => eprintln!("hostperf report not written: {e}"),
    }

    // Differential gates: with --check, (1) replay the matrix serially and
    // require the architectural-stats fingerprint to be bit-identical
    // (jobs=N ≡ jobs=1 determinism), then (2) replay every cell as the sole
    // core of a MultiMachine and require the same fingerprint again — the
    // multi-core refactor's N=1 contract, checked over the full matrix — and
    // (3) print the huge-far800 matrix's fingerprint for tier-1 to pin.
    let verdict = if has_flag("--check") {
        let serial = run_matrix(&prepared, &spec.configs, 1);
        let replay = stats_fingerprint(&serial);
        if replay != report.stats_fingerprint {
            println!(
                "hostperf: REJECT — jobs={} fingerprint {:#018x} != jobs=1 fingerprint {replay:#018x}",
                report.jobs, report.stats_fingerprint
            );
            std::process::exit(1);
        }
        let n1_cells: Vec<_> = prepared
            .iter()
            .flat_map(|p| spec.configs.iter().map(|(_, cfg)| run_multi_n1(p, cfg)))
            .collect();
        let n1 = fingerprint_stats(n1_cells.iter());
        if n1 != report.stats_fingerprint {
            println!(
                "hostperf: REJECT — multi-core N=1 fingerprint {n1:#018x} != single-core fingerprint {:#018x}",
                report.stats_fingerprint
            );
            std::process::exit(1);
        }
        println!("hostperf: multi-core N=1 fingerprint matches single-core ({n1:#018x})");
        // (3) Pin the kilo-entry window too: the six `huge-far800-*`
        // far-memory rows over every kernel, kernel-major (at full scale
        // this is the benchmark's `window` fingerprint). Only here does the
        // 4096-entry ROB wrap the scheduler's ready set under the far tier.
        let far: Vec<_> = specs::farmem_configs()
            .into_iter()
            .filter(|(name, _)| name.starts_with("huge-far800-"))
            .map(|(name, spec)| (name, spec.to_config()))
            .collect();
        let far_fp = stats_fingerprint(&run_matrix(&prepared, &far, jobs));
        println!(
            "hostperf: huge-far800 fingerprint={far_fp:#018x} configs={} kernels={}",
            far.len(),
            prepared.len()
        );
        "ACCEPT"
    } else {
        "ACCEPT"
    };
    println!(
        "hostperf: {verdict} fingerprint={:#018x} scale={} configs={} kernels={}",
        report.stats_fingerprint,
        scale,
        spec.configs.len(),
        prepared.len()
    );
}
