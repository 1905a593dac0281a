//! Shape regressions: lock in the paper-calibrated behaviours so kernel or
//! simulator changes that break a reproduced effect fail loudly.
//!
//! These run at `Scale::Small`; the full-scale numbers live in
//! EXPERIMENTS.md. Thresholds are deliberately loose — they guard the
//! *mechanism*, not the decimal.

use aim_isa::Interpreter;
use aim_lsq::LsqConfig;
use aim_pipeline::{BackendChoice, Machine, MachineClass, BackendConfig, SimConfig, SimStats};
use aim_predictor::EnforceMode;
use aim_workloads::{by_name, Scale};

fn run(name: &str, cfg: &SimConfig) -> SimStats {
    let w = by_name(name, Scale::Small).expect("kernel exists");
    let trace = Interpreter::new(&w.program).run(5_000_000).expect("clean");
    Machine::new(&w.program, &trace, cfg.clone()).run().expect("validated")
}

#[test]
fn bzip2_thrashes_the_sfc_and_assoc16_fixes_it() {
    // Paper §3.2: >50% of bzip2's stores replay on SFC set conflicts; with
    // 16 ways, ~0%.
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let stats = run("bzip2", &base);
    assert!(
        stats.sfc_conflict_rate() > 50.0,
        "bzip2 SFC conflict rate fell to {:.2}%",
        stats.sfc_conflict_rate()
    );
    let mut wide = base.clone();
    if let BackendConfig::SfcMdt { sfc, mdt } = &mut wide.backend {
        sfc.ways = 16;
        mdt.ways = 16;
    }
    let stats16 = run("bzip2", &wide);
    assert!(
        stats16.sfc_conflict_rate() < 1.0,
        "16 ways left {:.2}% conflicts",
        stats16.sfc_conflict_rate()
    );
}

#[test]
fn mcf_thrashes_the_mdt_and_assoc16_fixes_it() {
    // Paper §3.2: >16% of mcf's loads replay on MDT set conflicts.
    let base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let stats = run("mcf", &base);
    assert!(
        stats.mdt_conflict_rate() > 16.0,
        "mcf MDT conflict rate fell to {:.2}%",
        stats.mdt_conflict_rate()
    );
    let mut wide = base.clone();
    if let BackendConfig::SfcMdt { sfc, mdt } = &mut wide.backend {
        sfc.ways = 16;
        mdt.ways = 16;
    }
    let stats16 = run("mcf", &wide);
    assert!(
        stats16.mdt_conflict_rate() < 1.0,
        "16 ways left {:.2}% conflicts",
        stats16.mdt_conflict_rate()
    );
    assert!(stats16.ipc() > stats.ipc(), "associativity must help mcf");
}

#[test]
fn corruption_outliers_are_the_papers_trio() {
    // Paper §3.2: vpr_route, ammp, equake suffer high SFC-corruption replay
    // rates; well-behaved kernels do not.
    let cfg = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    for name in ["vpr_route", "equake", "ammp"] {
        let s = run(name, &cfg);
        assert!(
            s.corrupt_replay_rate() > 1.5,
            "{name} corruption collapsed to {:.2}%",
            s.corrupt_replay_rate()
        );
    }
    for name in ["swim", "crafty"] {
        let s = run(name, &cfg);
        assert!(
            s.corrupt_replay_rate() < 1.5,
            "{name} should be corruption-clean, got {:.2}%",
            s.corrupt_replay_rate()
        );
    }
}

#[test]
fn fp_collapses_without_enforcement_on_the_wide_machine() {
    // Paper §3.2: NOT-ENF loses badly on specfp at the 1024-entry window.
    let not_enf = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TrueOnly).build();
    let enf = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    for name in ["apsi", "art", "mgrid"] {
        let slow = run(name, &not_enf);
        let fast = run(name, &enf);
        assert!(
            fast.ipc() > 1.3 * slow.ipc(),
            "{name}: ENF {:.3} should beat NOT-ENF {:.3} by >30%",
            fast.ipc(),
            slow.ipc()
        );
        assert!(
            slow.flushes.output_dep > 5 * fast.flushes.output_dep.max(1),
            "{name}: NOT-ENF must flush on output deps"
        );
    }
}

#[test]
fn small_lsq_throttles_streaming_fp() {
    // Paper Figure 6: the 48x32 LSQ trails badly on fp; the SFC/MDT does
    // not have the capacity limit.
    let small_lsq = SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::baseline_48x32()).build();
    let reference = SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_120x80()).build();
    for name in ["swim", "apsi"] {
        let small = run(name, &small_lsq);
        let full = run(name, &reference);
        assert!(
            small.ipc() < 0.92 * full.ipc(),
            "{name}: 48x32 LSQ at {:.3} should trail 120x80 at {:.3}",
            small.ipc(),
            full.ipc()
        );
        assert!(small.dispatch_stalls.lq_full + small.dispatch_stalls.sq_full > 0);
    }
}

#[test]
fn baseline_enf_matches_the_idealized_lsq() {
    // Paper §3.1: within ~1% on the 4-wide machine (allow a little slack at
    // the Small scale).
    let lsq = SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build();
    let enf = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    for name in ["crafty", "vortex", "parser", "mgrid"] {
        let a = run(name, &lsq);
        let b = run(name, &enf);
        let norm = b.ipc() / a.ipc();
        assert!(
            norm > 0.96,
            "{name}: baseline ENF should be within a few % of the LSQ, got {norm:.3}"
        );
    }
}
