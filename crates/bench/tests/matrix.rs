//! Integration tests for the parallel sweep runner: determinism across
//! thread counts, every artifact through the driver at tiny scale, and a
//! probed run simulating exactly what the plain run does.

use aim_bench::{artifact, prepare_all, run_matrix, specs, Options, Report, SweepReport};
use aim_pipeline::{BackendChoice, EventLog, Machine, MachineClass, SimConfig};
use aim_predictor::EnforceMode;
use aim_workloads::Scale;

/// A broad config set covering all six backends and both machine classes.
fn determinism_configs() -> Vec<(String, SimConfig)> {
    let mut configs = specs::fig5_baseline().configs;
    configs.extend(specs::table_violations().configs);
    configs.push((
        "filtered-lsq".to_string(),
        SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::Filtered)
            .build(),
    ));
    configs.push((
        "pcax".to_string(),
        SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::Pcax)
            .build(),
    ));
    configs.push((
        "oracle".to_string(),
        SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::Oracle)
            .build(),
    ));
    configs.push((
        "nospec".to_string(),
        SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::NoSpec)
            .build(),
    ));
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

/// Every artifact through the driver at tiny scale — matrix, reduce step,
/// acceptance predicate — as `aim-bench <name> --scale tiny --grid tiny`
/// runs it, minus the printing and file writing.
#[test]
fn every_artifact_runs_through_the_driver_at_tiny() {
    let opts = Options {
        scale: Scale::Tiny,
        grid_tiny: true,
        schedules: Some(2),
        ..Options::default()
    };
    for artifact in artifact::all() {
        let name = artifact.name;
        let out = artifact::execute(&artifact, &opts);
        assert_eq!(out.verdict, Ok(()), "{name} rejected");
        assert!(!out.table.rows.is_empty(), "{name}: no rows");
        let text = out.table.render();
        for column in out.table.columns {
            assert!(
                text.contains(column.head),
                "{name}: column {} not printed",
                column.head
            );
        }
        if let Some(report) = &out.table.report {
            assert_eq!(
                report.json.matches("\n    {").count(),
                out.table.rows.len(),
                "{name}: the JSON report carries the table's rows"
            );
        }
        if let Some(sweep) = &out.sweep {
            assert!(!sweep.rows.is_empty(), "{name}: empty matrix");
            for row in &sweep.rows {
                assert!(
                    row.retired > 0 && row.host_seconds > 0.0,
                    "{name}: {} under {} retired nothing or recorded no host time",
                    row.workload,
                    row.config
                );
            }
        }
    }
}

/// `--check` replays a matrix on one worker and reports the matching
/// fingerprint before the acceptance line.
#[test]
fn check_replays_the_matrix_serially() {
    let opts = Options {
        scale: Scale::Tiny,
        check: true,
        ..Options::default()
    };
    let out = artifact::execute(&artifact::find("fig4").unwrap(), &opts);
    assert_eq!(out.verdict, Ok(()));
    assert_eq!(out.lines.len(), 2, "{:?}", out.lines);
    assert!(out.lines[0].starts_with("check: jobs=1 replay fingerprint matches (0x"));
    assert!(out.lines[1].starts_with("boot check: "));
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
    let cfg = SimConfig::machine(MachineClass::Baseline)
        .mode(EnforceMode::All)
        .build();
    let stats = Machine::new(&p.program, &p.trace, cfg.clone())
        .run()
        .unwrap();
    assert!(stats.host.wall_ns > 0);

    let mut log = EventLog::new(1024);
    let logged = Machine::new(&p.program, &p.trace, cfg)
        .run_with(&mut log)
        .unwrap();
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
