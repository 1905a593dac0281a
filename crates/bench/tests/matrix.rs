//! Integration tests for the parallel sweep runner: determinism across
//! thread counts, every artifact's spec matrix at tiny scale, and a probed
//! run simulating exactly what the plain run does.

use aim_bench::{prepare_all, run_matrix, run_matrix_timed, specs, Report, SweepReport};
use aim_pipeline::{BackendChoice, EventLog, Machine, MachineClass, SimConfig};
use aim_predictor::EnforceMode;
use aim_workloads::Scale;

/// A broad config set covering all six backends and both machine classes.
fn determinism_configs() -> Vec<(String, SimConfig)> {
    let mut configs = specs::fig5_baseline().configs;
    configs.extend(specs::table_violations().configs);
    configs.push((
        "filtered-lsq".to_string(),
        SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Filtered).build(),
    ));
    configs.push((
        "pcax".to_string(),
        SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Pcax).build(),
    ));
    configs.push(("oracle".to_string(), SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Oracle).build()));
    configs.push(("nospec".to_string(), SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::NoSpec).build()));
    configs
}

#[test]
fn parallel_matrix_is_byte_identical_to_serial() {
    let prepared = prepare_all(Scale::Tiny);
    let configs = determinism_configs();
    let serial = run_matrix(&prepared, &configs, 1);
    let parallel = run_matrix(&prepared, &configs, 4);
    assert_eq!(serial.n_workloads(), prepared.len());
    assert_eq!(parallel.n_configs(), configs.len());
    for (w, c, stats) in serial.iter() {
        // Host-side wall-clock timings legitimately differ between runs;
        // every simulated quantity must not.
        let lhs = format!("{:?}", stats.with_zeroed_host());
        let rhs = format!("{:?}", parallel.get(w, c).with_zeroed_host());
        assert_eq!(
            lhs, rhs,
            "jobs=4 diverged from jobs=1 on {} under {}",
            prepared[w].name, configs[c].0
        );
    }
}

#[test]
fn every_artifact_spec_simulates_at_tiny() {
    let all = specs::all_default();
    assert_eq!(all.len(), 18, "one spec per experiment binary");
    let jobs = aim_bench::resolve_jobs(0);
    for spec in &all {
        let workloads = spec.workloads(Scale::Tiny);
        assert!(!spec.configs.is_empty(), "{}: empty config list", spec.artifact);
        let (matrix, wall) = run_matrix_timed(&workloads, &spec.configs, jobs);
        for (w, c, stats) in matrix.iter() {
            assert!(
                stats.retired > 0,
                "{}: {} under {} retired nothing",
                spec.artifact,
                workloads[w].name,
                spec.configs[c].0
            );
            assert!(
                stats.host.wall_ns > 0,
                "{}: {} under {} recorded no host time",
                spec.artifact,
                workloads[w].name,
                spec.configs[c].0
            );
        }
        // The report renders without panicking and carries every cell.
        let report =
            SweepReport::from_matrix(spec.artifact, jobs, wall, &workloads, &spec.configs, &matrix);
        assert_eq!(report.rows.len(), workloads.len() * spec.configs.len());
        assert!(report.to_json().contains("aim-bench-sweep/v1"));
    }
}

#[test]
fn named_config_lookup_panics_on_unknown() {
    let spec = specs::fig5_baseline();
    assert_eq!(spec.index("lsq-48x32"), 0);
    let err = std::panic::catch_unwind(|| spec.index("nonesuch"));
    assert!(err.is_err());
}

/// Observing a run never changes it: the `()` probe and an [`EventLog`]
/// give the same statistics. (With the `()` probe nothing is formatted by
/// construction: events are typed and hold no `String`.)
#[test]
fn event_log_run_matches_plain_run() {
    let p = aim_bench::prepare(
        aim_workloads::by_name("gzip", Scale::Tiny).unwrap(),
        Scale::Tiny,
    );
    let cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    let stats = Machine::new(&p.program, &p.trace, cfg.clone()).run().unwrap();
    assert!(stats.host.wall_ns > 0);

    let mut log = EventLog::new(1024);
    let logged = Machine::new(&p.program, &p.trace, cfg).run_with(&mut log).unwrap();
    assert_eq!(
        format!("{:?}", stats.with_zeroed_host()),
        format!("{:?}", logged.with_zeroed_host())
    );
    assert!(!log.into_vec().is_empty());
}

#[test]
fn empty_inputs_yield_empty_matrix() {
    let configs = determinism_configs();
    let matrix = run_matrix(&[], &configs, 8);
    assert_eq!(matrix.n_workloads(), 0);
    let report = SweepReport::from_matrix(
        "empty",
        8,
        std::time::Duration::ZERO,
        &[],
        &configs,
        &matrix,
    );
    assert!(report.to_json().contains("\"rows\": [\n  ]"));
}
