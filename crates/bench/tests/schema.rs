//! Golden-file schema tests: the machine-readable reports downstream
//! tooling parses (`BENCH_sweep.json`, `BENCH_hybrid.json`,
//! `BENCH_pcax.json`, `BENCH_pcax_sweep.json`, `BENCH_filter_sweep.json`,
//! `BENCH_hostperf.json`, `BENCH_litmus.json`, `BENCH_farmem.json`,
//! `BENCH_sampled.json`, `BENCH_serve.json`) must keep a byte-stable
//! serialization for a fixed input. Any field added, removed, renamed, or
//! reordered shows up here as a golden-file diff — update the golden **deliberately**,
//! alongside the schema version string, never as a drive-by.

use aim_bench::{
    FarMemReport, FarMemRow, FilterSweepReport, FilterSweepRow, HostperfReport, HostperfRow,
    HybridReport, HybridRow, LitmusReport, LitmusRow, PcaxReport, PcaxRow, PcaxSweepReport,
    PcaxSweepRow, Report, SampledReport, SampledRow, ServeReport, ServeRound, SweepReport,
    SweepRow,
};
use aim_workloads::Scale;

/// A fixed, fully populated sweep report.
fn golden_sweep() -> SweepReport {
    SweepReport {
        artifact: "golden".to_string(),
        jobs: 2,
        wall_seconds: 1.5,
        rows: vec![
            SweepRow {
                workload: "gzip".to_string(),
                config: "lsq-48x32".to_string(),
                sim_cycles: 1000,
                retired: 2000,
                host_seconds: 0.25,
                kcycles_per_sec: 4.0,
                retired_mips: 0.008,
            },
            SweepRow {
                workload: "mcf".to_string(),
                config: "filtered-lsq".to_string(),
                sim_cycles: 3000,
                retired: 4000,
                host_seconds: 0.5,
                kcycles_per_sec: 6.0,
                retired_mips: 0.008,
            },
        ],
    }
}

/// A fixed, fully populated hybrid report.
fn golden_hybrid() -> HybridReport {
    HybridReport {
        artifact: "table_hybrid".to_string(),
        rows: vec![
            HybridRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                lsq_ipc: 1.75,
                nospec_norm: 0.9,
                filtered_norm: 1.0,
                sfc_mdt_norm: 0.99,
                oracle_norm: 1.01,
                gap_closed: 90.909091,
                filtered_loads: 180,
                searched_loads: 20,
                filter_rate: 0.9,
                false_positive_hits: 3,
                saturation_fallbacks: 0,
                mdt_filter_rate: 0.85,
            },
            HybridRow {
                workload: "swim".to_string(),
                suite: "fp".to_string(),
                lsq_ipc: 2.0,
                nospec_norm: 0.8,
                filtered_norm: 0.99,
                sfc_mdt_norm: 0.98,
                oracle_norm: 1.0,
                gap_closed: 95.0,
                filtered_loads: 500,
                searched_loads: 100,
                filter_rate: 0.833333,
                false_positive_hits: 12,
                saturation_fallbacks: 1,
                mdt_filter_rate: 0.7,
            },
        ],
    }
}

/// A fixed, fully populated pcax report.
fn golden_pcax() -> PcaxReport {
    PcaxReport {
        artifact: "table_pcax".to_string(),
        rows: vec![
            PcaxRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                lsq_ipc: 1.75,
                nospec_norm: 0.9,
                pcax_norm: 1.0,
                sfc_mdt_norm: 0.99,
                oracle_norm: 1.01,
                gap_closed: 90.909091,
                loads_no_alias: 120,
                loads_forward: 40,
                loads_unknown: 40,
                coverage: 0.8,
                accuracy: 0.95,
                sfc_probes_skipped: 118,
                forward_wait_replays: 7,
            },
            PcaxRow {
                workload: "swim".to_string(),
                suite: "fp".to_string(),
                lsq_ipc: 2.0,
                nospec_norm: 0.8,
                pcax_norm: 0.99,
                sfc_mdt_norm: 0.98,
                oracle_norm: 1.0,
                gap_closed: 95.0,
                loads_no_alias: 500,
                loads_forward: 100,
                loads_unknown: 60,
                coverage: 0.9090909090909091,
                accuracy: 0.875,
                sfc_probes_skipped: 480,
                forward_wait_replays: 22,
            },
        ],
    }
}

/// A fixed, fully populated pcax geometry-sweep report.
fn golden_pcax_sweep() -> PcaxSweepReport {
    PcaxSweepReport {
        artifact: "table_pcax_sweep".to_string(),
        baseline: "1024x2@t2".to_string(),
        knee: "64x1@t2".to_string(),
        rows: vec![
            PcaxSweepRow {
                point: "64x1@t2".to_string(),
                sets: 64,
                ways: 1,
                threshold: 2,
                entries: 64,
                ipc_norm: 1.01,
                gap_closed: 97.5,
                coverage: 0.912345,
                accuracy: 0.987654,
                sfc_probes_skipped: 12345,
            },
            PcaxSweepRow {
                point: "1024x2@t2".to_string(),
                sets: 1024,
                ways: 2,
                threshold: 2,
                entries: 2048,
                ipc_norm: 1.015,
                gap_closed: 98.8,
                coverage: 0.99,
                accuracy: 0.995,
                sfc_probes_skipped: 13000,
            },
        ],
    }
}

/// A fixed, fully populated filter geometry-sweep report.
fn golden_filter_sweep() -> FilterSweepReport {
    FilterSweepReport {
        artifact: "table_filter_sweep".to_string(),
        baseline: "256x2@c15".to_string(),
        knee: "64x1@c15".to_string(),
        rows: vec![
            FilterSweepRow {
                point: "64x1@c15".to_string(),
                sets: 64,
                ways: 1,
                max_count: 15,
                entries: 64,
                ipc_norm: 1.0,
                gap_closed: 42.0,
                filter_rate: 0.871234,
                false_positive_hits: 55,
                saturation_fallbacks: 3,
            },
            FilterSweepRow {
                point: "256x2@c15".to_string(),
                sets: 256,
                ways: 2,
                max_count: 15,
                entries: 512,
                ipc_norm: 1.0,
                gap_closed: 43.0,
                filter_rate: 0.92,
                false_positive_hits: 4,
                saturation_fallbacks: 0,
            },
        ],
    }
}

/// A fixed, fully populated host-throughput report.
fn golden_hostperf() -> HostperfReport {
    HostperfReport {
        scale: Scale::Tiny,
        jobs: 2,
        wall_seconds: 1.5,
        stats_fingerprint: 0xa49a_d310_4b1c_2d9a,
        rows: vec![
            HostperfRow {
                config: "base-sfc-mdt-enf".to_string(),
                machine: "baseline".to_string(),
                backend: "sfc-mdt-enf".to_string(),
                sim_cycles: 123456,
                retired: 654321,
                host_seconds: 0.25,
                kcycles_per_sec: 493.824,
                retired_mips: 2.617284,
            },
            HostperfRow {
                config: "aggr-pcax".to_string(),
                machine: "aggressive".to_string(),
                backend: "pcax".to_string(),
                sim_cycles: 98765,
                retired: 654321,
                host_seconds: 0.5,
                kcycles_per_sec: 197.53,
                retired_mips: 1.308642,
            },
        ],
    }
}

/// A fixed, fully populated litmus report.
fn golden_litmus() -> LitmusReport {
    LitmusReport {
        schedules: 200,
        relaxed_reachable: true,
        wall_seconds: 1.5,
        rows: vec![
            LitmusRow {
                test: "SB".to_string(),
                backend: "nospec".to_string(),
                allowed_outcomes: 3,
                observed_outcomes: 2,
                contained: true,
            },
            LitmusRow {
                test: "IRIW".to_string(),
                backend: "oracle".to_string(),
                allowed_outcomes: 16,
                observed_outcomes: 7,
                contained: true,
            },
        ],
    }
}

/// A fixed, fully populated far-memory report.
fn golden_farmem() -> FarMemReport {
    FarMemReport {
        artifact: "table_far_mem".to_string(),
        scale: Scale::Tiny,
        workers: 4,
        rows: vec![
            FarMemRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                machine: "huge".to_string(),
                window: 4096,
                far_latency: 800,
                lsq_ipc: 1.234567,
                nospec_norm: 0.7,
                cam_norm: 0.62,
                sfc_mdt_norm: 1.9,
                pcax_norm: 1.85,
                oracle_norm: 1.92,
                cam_gap_closed: 24.6,
                sfc_gap_closed: 98.4,
                pcax_gap_closed: 94.3,
                far_accesses: 1200,
                far_coalesced: 300,
                far_overflow: 4,
                far_peak_inflight: 64,
            },
            FarMemRow {
                workload: "swim".to_string(),
                suite: "fp".to_string(),
                machine: "aggr".to_string(),
                window: 1024,
                far_latency: 200,
                lsq_ipc: 2.5,
                nospec_norm: 0.85,
                cam_norm: 0.97,
                sfc_mdt_norm: 1.01,
                pcax_norm: 1.0,
                oracle_norm: 1.02,
                cam_gap_closed: 70.6,
                sfc_gap_closed: 94.1,
                pcax_gap_closed: 88.2,
                far_accesses: 640,
                far_coalesced: 120,
                far_overflow: 0,
                far_peak_inflight: 32,
            },
        ],
    }
}

/// A fixed, fully populated sampled-convergence report.
fn golden_sampled() -> SampledReport {
    SampledReport {
        artifact: "table_sampled".to_string(),
        scale: Scale::Huge,
        workers: 8,
        machine: "huge".to_string(),
        window: 4096,
        far_latency: 800,
        worst_err_pct: -6.57,
        speedup: 11.2,
        rows: vec![
            SampledRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                trace_len: 2_363_615,
                warm_insts: 208_112,
                detail_insts: 6_714,
                periods: 11,
                full_ipc: 7.0583,
                sampled_ipc: 7.1134,
                err_pct: 0.78,
                periods_run: 11,
                detail_pct: 3.1,
                full_wall_ns: 2_400_000_000,
                sampled_wall_ns: 210_000_000,
                speedup: 11.428571,
            },
            SampledRow {
                workload: "swim".to_string(),
                suite: "fp".to_string(),
                trace_len: 1_887_626,
                warm_insts: 166_240,
                detail_insts: 5_362,
                periods: 11,
                full_ipc: 7.7627,
                sampled_ipc: 7.7006,
                err_pct: -0.8,
                periods_run: 11,
                detail_pct: 3.13,
                full_wall_ns: 1_900_000_000,
                sampled_wall_ns: 180_000_000,
                speedup: 10.555556,
            },
        ],
    }
}

/// A fixed, fully populated serve report.
fn golden_serve() -> ServeReport {
    ServeReport {
        scale: Scale::Tiny,
        workers: 4,
        clients: 2,
        requests: 480,
        cache_hits: 240,
        cache_misses: 240,
        dedup_waits: 3,
        sims_run: 240,
        corrupt_evictions: 1,
        verified: 12,
        verify_mismatches: 0,
        worker_utilization: 0.75,
        warm_speedup: 42.5,
        rounds: vec![
            ServeRound {
                label: "cold".to_string(),
                cells: 240,
                wall_seconds: 2.5,
                sims_run: 240,
                cache_hits: 0,
            },
            ServeRound {
                label: "warm1".to_string(),
                cells: 240,
                wall_seconds: 0.05,
                sims_run: 0,
                cache_hits: 240,
            },
        ],
    }
}

/// One report's golden case: its rendering must equal the golden file
/// byte for byte (`assert_golden`, one test per report), and — belt-and-braces
/// over the byte comparison, so a rename cannot hide behind a formatting-only
/// golden refresh — carry every `header` field once, every `row` field once
/// per row (each golden holds two rows), and every `both` field in the header
/// and each row (`reports_keep_their_stable_field_sets`).
struct Case {
    schema: &'static str,
    json: String,
    golden: &'static str,
    file: &'static str,
    header: &'static [&'static str],
    row: &'static [&'static str],
    both: &'static [&'static str],
}

/// Every report's case, in the order the golden files are listed above.
fn cases() -> [Case; 10] {
    [
        Case {
            schema: SweepReport::SCHEMA,
            json: golden_sweep().to_json(),
            golden: include_str!("golden/sweep.golden.json"),
            file: "sweep",
            header: &["schema", "artifact", "jobs", "wall_seconds", "rows"],
            row: &[
                "workload",
                "config",
                "sim_cycles",
                "retired",
                "host_seconds",
                "kcycles_per_sec",
                "retired_mips",
            ],
            both: &[],
        },
        Case {
            schema: HybridReport::SCHEMA,
            json: golden_hybrid().to_json(),
            golden: include_str!("golden/hybrid.golden.json"),
            file: "hybrid",
            header: &["schema", "artifact", "rows"],
            row: &[
                "workload",
                "suite",
                "lsq_ipc",
                "nospec_norm",
                "filtered_norm",
                "sfc_mdt_norm",
                "oracle_norm",
                "gap_closed",
                "filtered_loads",
                "searched_loads",
                "filter_rate",
                "false_positive_hits",
                "saturation_fallbacks",
                "mdt_filter_rate",
            ],
            both: &[],
        },
        Case {
            schema: PcaxReport::SCHEMA,
            json: golden_pcax().to_json(),
            golden: include_str!("golden/pcax.golden.json"),
            file: "pcax",
            header: &["schema", "artifact", "rows"],
            row: &[
                "workload",
                "suite",
                "lsq_ipc",
                "nospec_norm",
                "pcax_norm",
                "sfc_mdt_norm",
                "oracle_norm",
                "gap_closed",
                "loads_no_alias",
                "loads_forward",
                "loads_unknown",
                "coverage",
                "accuracy",
                "sfc_probes_skipped",
                "forward_wait_replays",
            ],
            both: &[],
        },
        Case {
            schema: PcaxSweepReport::SCHEMA,
            json: golden_pcax_sweep().to_json(),
            golden: include_str!("golden/pcax_sweep.golden.json"),
            file: "pcax_sweep",
            header: &["schema", "artifact", "baseline", "knee", "rows"],
            row: &[
                "point",
                "sets",
                "ways",
                "threshold",
                "entries",
                "ipc_norm",
                "gap_closed",
                "coverage",
                "accuracy",
                "sfc_probes_skipped",
            ],
            both: &[],
        },
        Case {
            schema: FilterSweepReport::SCHEMA,
            json: golden_filter_sweep().to_json(),
            golden: include_str!("golden/filter_sweep.golden.json"),
            file: "filter_sweep",
            header: &["schema", "artifact", "baseline", "knee", "rows"],
            row: &[
                "point",
                "sets",
                "ways",
                "max_count",
                "entries",
                "ipc_norm",
                "gap_closed",
                "filter_rate",
                "false_positive_hits",
                "saturation_fallbacks",
            ],
            both: &[],
        },
        Case {
            schema: HostperfReport::SCHEMA,
            json: golden_hostperf().to_json(),
            golden: include_str!("golden/hostperf.golden.json"),
            file: "hostperf",
            header: &[
                "schema",
                "artifact",
                "scale",
                "jobs",
                "wall_seconds",
                "stats_fingerprint",
                "rows",
            ],
            row: &[
                "config",
                "machine",
                "backend",
                "sim_cycles",
                "retired",
                "host_seconds",
                "kcycles_per_sec",
                "retired_mips",
            ],
            both: &[],
        },
        Case {
            schema: LitmusReport::SCHEMA,
            json: golden_litmus().to_json(),
            golden: include_str!("golden/litmus.golden.json"),
            file: "litmus",
            header: &[
                "schema",
                "artifact",
                "schedules",
                "relaxed_reachable",
                "wall_seconds",
                "rows",
            ],
            row: &[
                "test",
                "backend",
                "allowed_outcomes",
                "observed_outcomes",
                "contained",
            ],
            both: &[],
        },
        Case {
            schema: FarMemReport::SCHEMA,
            json: golden_farmem().to_json(),
            golden: include_str!("golden/farmem.golden.json"),
            file: "farmem",
            header: &["schema", "artifact", "scale", "workers", "rows"],
            row: &[
                "workload",
                "suite",
                "machine",
                "window",
                "far_latency",
                "lsq_ipc",
                "nospec_norm",
                "cam_norm",
                "sfc_mdt_norm",
                "pcax_norm",
                "oracle_norm",
                "cam_gap_closed",
                "sfc_gap_closed",
                "pcax_gap_closed",
                "far_accesses",
                "far_coalesced",
                "far_overflow",
                "far_peak_inflight",
            ],
            both: &[],
        },
        Case {
            schema: SampledReport::SCHEMA,
            json: golden_sampled().to_json(),
            golden: include_str!("golden/sampled.golden.json"),
            file: "sampled",
            header: &[
                "schema",
                "artifact",
                "scale",
                "workers",
                "machine",
                "window",
                "far_latency",
                "worst_err_pct",
                "rows",
            ],
            row: &[
                "workload",
                "suite",
                "trace_len",
                "warm_insts",
                "detail_insts",
                "periods",
                "full_ipc",
                "sampled_ipc",
                "err_pct",
                "periods_run",
                "detail_pct",
                "full_wall_ns",
                "sampled_wall_ns",
            ],
            both: &["speedup"],
        },
        Case {
            schema: ServeReport::SCHEMA,
            json: golden_serve().to_json(),
            golden: include_str!("golden/serve.golden.json"),
            file: "serve",
            header: &[
                "schema",
                "artifact",
                "scale",
                "workers",
                "clients",
                "requests",
                "cache_misses",
                "dedup_waits",
                "corrupt_evictions",
                "verified",
                "verify_mismatches",
                "worker_utilization",
                "warm_speedup",
                "rounds",
            ],
            row: &["label", "cells", "wall_seconds"],
            both: &["cache_hits", "sims_run"],
        },
    ]
}

/// Asserts that the report whose golden file is `tests/golden/<file>.golden.json`
/// still renders to it byte for byte.
fn assert_golden(file: &str) {
    let case = cases()
        .into_iter()
        .find(|case| case.file == file)
        .unwrap_or_else(|| panic!("no golden case named {file}"));
    assert_eq!(
        case.json, case.golden,
        "{} serialization drifted; if intentional, update \
         tests/golden/{}.golden.json and bump the schema version",
        case.schema, case.file
    );
}

#[test]
fn sweep_report_serialization_is_golden() {
    assert_golden("sweep");
}

#[test]
fn hybrid_report_serialization_is_golden() {
    assert_golden("hybrid");
}

#[test]
fn pcax_report_serialization_is_golden() {
    assert_golden("pcax");
}

#[test]
fn pcax_sweep_report_serialization_is_golden() {
    assert_golden("pcax_sweep");
}

#[test]
fn filter_sweep_report_serialization_is_golden() {
    assert_golden("filter_sweep");
}

#[test]
fn hostperf_report_serialization_is_golden() {
    assert_golden("hostperf");
}

#[test]
fn litmus_report_serialization_is_golden() {
    assert_golden("litmus");
}

#[test]
fn farmem_report_serialization_is_golden() {
    assert_golden("farmem");
}

#[test]
fn sampled_report_serialization_is_golden() {
    assert_golden("sampled");
}

#[test]
fn serve_report_serialization_is_golden() {
    assert_golden("serve");
}

#[test]
fn reports_keep_their_stable_field_sets() {
    for case in &cases() {
        let count = |field: &str| case.json.matches(&format!("\"{field}\"")).count();
        for (fields, n) in [(case.header, 1), (case.row, 2), (case.both, 3)] {
            for field in fields {
                assert_eq!(count(field), n, "{} field {field}", case.file);
            }
        }
    }
}
