//! End-to-end validation: every workload kernel retires identically to the
//! architectural interpreter under every memory-ordering backend.
//!
//! This is the repo's strongest correctness property: the out-of-order
//! machine executes speculatively and out of order — wrong paths included —
//! yet every retiring instruction must match the in-order golden trace.

use aim_isa::Interpreter;
use aim_lsq::LsqConfig;
use aim_pipeline::{BackendChoice, Machine, MachineClass, SimConfig, SimStats};
use aim_predictor::EnforceMode;
use aim_workloads::{all, by_name, Scale};

fn run(name: &str, program: &aim_isa::Program, cfg: &SimConfig) -> SimStats {
    let trace = Interpreter::new(program)
        .run(2_000_000)
        .unwrap_or_else(|e| panic!("{name}: interpreter failed: {e}"));
    Machine::new(program, &trace, cfg.clone()).run()
        .unwrap_or_else(|e| panic!("{name} under {}: {e}", cfg.backend.name()))
}

#[test]
fn every_kernel_validates_under_baseline_lsq() {
    let cfg = SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build();
    for w in all(Scale::Tiny) {
        let stats = run(w.name, &w.program, &cfg);
        assert!(
            stats.retired > 1_000,
            "{}: retired {}",
            w.name,
            stats.retired
        );
        assert!(stats.ipc() > 0.1, "{}: ipc {}", w.name, stats.ipc());
    }
}

#[test]
fn every_kernel_validates_under_baseline_sfc_mdt_enf() {
    let cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    for w in all(Scale::Tiny) {
        let stats = run(w.name, &w.program, &cfg);
        assert!(
            stats.retired > 1_000,
            "{}: retired {}",
            w.name,
            stats.retired
        );
    }
}

#[test]
fn every_kernel_validates_under_baseline_sfc_mdt_not_enf() {
    let cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::TrueOnly).build();
    for w in all(Scale::Tiny) {
        let stats = run(w.name, &w.program, &cfg);
        assert!(
            stats.retired > 1_000,
            "{}: retired {}",
            w.name,
            stats.retired
        );
    }
}

#[test]
fn every_kernel_validates_under_aggressive_machines() {
    let configs = [
        SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_120x80()).build(),
        SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build(),
        SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TrueOnly).build(),
    ];
    for w in all(Scale::Tiny) {
        for cfg in &configs {
            let stats = run(w.name, &w.program, cfg);
            assert!(
                stats.retired > 1_000,
                "{}: retired {}",
                w.name,
                stats.retired
            );
        }
    }
}

#[test]
fn sfc_forwards_on_rmw_kernels() {
    // The routing kernel re-reads each stored cell immediately while the
    // store is in flight: the SFC must actually forward. The other RMW
    // kernels forward more sparsely but must still do so.
    let w = by_name("vpr_route", Scale::Tiny).unwrap();
    let stats = run(
        "vpr_route",
        &w.program,
        &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build(),
    );
    assert!(
        stats.loads_forwarded > 50,
        "vpr_route: only {} forwards",
        stats.loads_forwarded
    );
    for name in ["bzip2", "equake"] {
        let w = by_name(name, Scale::Tiny).unwrap();
        let stats = run(
            name,
            &w.program,
            &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build(),
        );
        assert!(
            stats.loads_forwarded > 3,
            "{name}: only {} forwards",
            stats.loads_forwarded
        );
    }
}

#[test]
fn violations_occur_and_enf_reduces_them() {
    // Unconstrained OoO issue on the swap kernels must produce memory-order
    // violations; training the producer-set predictor must reduce them.
    let w = by_name("twolf", Scale::Small).unwrap();
    let not_enf = run(
        "twolf",
        &w.program,
        &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::TrueOnly).build(),
    );
    let enf = run(
        "twolf",
        &w.program,
        &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build(),
    );
    assert!(
        not_enf.flushes.memory() > 0,
        "expected violations under NOT-ENF"
    );
    let anti_output_not_enf = not_enf.flushes.anti_dep + not_enf.flushes.output_dep;
    let anti_output_enf = enf.flushes.anti_dep + enf.flushes.output_dep;
    assert!(
        anti_output_enf <= anti_output_not_enf,
        "ENF should not increase anti/output violations: {anti_output_enf} vs {anti_output_not_enf}"
    );
}

#[test]
fn lsq_capacity_stalls_appear_on_streaming_fp() {
    // The Figure 6 mechanism: a 48x32 LSQ on the aggressive machine throttles
    // dispatch on streaming kernels.
    let w = by_name("swim", Scale::Small).unwrap();
    let stats = run(
        "swim",
        &w.program,
        &SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::baseline_48x32()).build(),
    );
    assert!(
        stats.dispatch_stalls.lq_full + stats.dispatch_stalls.sq_full > 0,
        "expected LSQ-capacity dispatch stalls"
    );
}

#[test]
fn identical_runs_are_deterministic() {
    let w = by_name("gcc", Scale::Tiny).unwrap();
    let cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    let a = run("gcc", &w.program, &cfg);
    let b = run("gcc", &w.program, &cfg);
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.retired, b.retired);
    assert_eq!(a.flushes, b.flushes);
}

#[test]
fn shipped_assembly_programs_validate() {
    // The `.s` examples under examples/programs must assemble, run, and
    // validate under both backends.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/programs");
    let mut found = 0;
    for entry in std::fs::read_dir(dir).expect("programs directory exists") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("s") {
            continue;
        }
        found += 1;
        let source = std::fs::read_to_string(&path).unwrap();
        let program =
            aim_isa::parse_program(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for cfg in [
            SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build(),
            SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build(),
        ] {
            let stats = run(&path.display().to_string(), &program, &cfg);
            assert!(stats.retired > 1_000, "{}", path.display());
        }
    }
    assert!(
        found >= 3,
        "expected the shipped .s programs, found {found}"
    );
}
