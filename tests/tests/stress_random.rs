//! Differential stress: random programs through every backend.
//!
//! Random bodies over a 64-word pool maximize in-flight same-address
//! collisions across all access sizes, exercising forwarding, partial
//! matches, disambiguation, corruption, replay and recovery paths at once.
//! Any divergence from the architectural trace fails the run.

use aim_isa::Interpreter;
use aim_lsq::LsqConfig;
use aim_pipeline::{BackendChoice, Machine, MachineClass, SimConfig};
use aim_predictor::EnforceMode;
use aim_workloads::stress::random_program;

fn check(seed: u64, cfg: &SimConfig) {
    let p = random_program(seed, 60, 30);
    let trace = Interpreter::new(&p)
        .run(2_000_000)
        .unwrap_or_else(|e| panic!("seed {seed}: interpreter: {e}"));
    let stats = Machine::new(&p, &trace, cfg.clone()).run()
        .unwrap_or_else(|e| panic!("seed {seed} under {}: {e}", cfg.backend.name()));
    assert_eq!(stats.retired, trace.len() as u64, "seed {seed}");
}

#[test]
fn random_programs_validate_under_lsq() {
    for seed in 0..40 {
        check(seed, &SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build());
    }
}

#[test]
fn random_programs_validate_under_sfc_mdt_enf() {
    for seed in 0..40 {
        check(seed, &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build());
    }
}

#[test]
fn random_programs_validate_under_sfc_mdt_not_enf() {
    for seed in 40..80 {
        check(seed, &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::TrueOnly).build());
    }
}

#[test]
fn random_programs_validate_under_aggressive_machines() {
    for seed in 80..100 {
        check(
            seed,
            &SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build(),
        );
        check(
            seed,
            &SimConfig::machine(MachineClass::Aggressive).backend(BackendChoice::Lsq).lsq(LsqConfig::aggressive_120x80()).build(),
        );
    }
}

#[test]
fn tiny_structures_still_validate() {
    // Thrash-everything configuration: one-way, two-set SFC and MDT force
    // constant conflicts, replays, head bypasses and stale reclamation.
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    if let aim_pipeline::BackendConfig::SfcMdt { sfc, mdt } = &mut cfg.backend {
        sfc.sets = 2;
        sfc.ways = 1;
        mdt.sets = 2;
        mdt.ways = 1;
    }
    for seed in 100..120 {
        check(seed, &cfg);
    }
}

#[test]
fn replay_partial_match_policy_validates() {
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.partial_match_policy = aim_core::PartialMatchPolicy::Replay;
    for seed in 120..140 {
        check(seed, &cfg);
    }
}

#[test]
fn alternative_recovery_policies_validate() {
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.output_dep_recovery = aim_pipeline::OutputDepRecovery::MarkCorrupt;
    if let aim_pipeline::BackendConfig::SfcMdt { mdt, .. } = &mut cfg.backend {
        mdt.true_dep_recovery = aim_core::TrueDepRecovery::SingleLoadAggressive;
    }
    for seed in 140..170 {
        check(seed, &cfg);
    }
}

#[test]
fn no_stall_bits_validates() {
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.stall_bits = false;
    if let aim_pipeline::BackendConfig::SfcMdt { sfc, mdt } = &mut cfg.backend {
        sfc.sets = 4;
        sfc.ways = 1;
        mdt.sets = 4;
        mdt.ways = 1;
    }
    for seed in 170..185 {
        check(seed, &cfg);
    }
}

#[test]
fn search_filter_validates() {
    // The §4 MDT search filter skips provably-unnecessary MDT accesses; a
    // tiny MDT plus the filter stresses both the skip predicate and the
    // census/filter bookkeeping across squashes, replays and head bypasses.
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.mdt_filter = true;
    if let aim_pipeline::BackendConfig::SfcMdt { mdt, .. } = &mut cfg.backend {
        mdt.sets = 4;
        mdt.ways = 1;
    }
    for seed in 215..235 {
        check(seed, &cfg);
    }
}

#[test]
fn perfect_branch_oracle_validates() {
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.oracle_fix_probability = 1.0;
    for seed in 185..195 {
        check(seed, &cfg);
    }
}

#[test]
fn no_branch_oracle_validates() {
    // Maximum wrong-path execution: every gshare mispredict goes down the
    // wrong path, maximizing SFC corruption traffic.
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.oracle_fix_probability = 0.0;
    for seed in 195..215 {
        check(seed, &cfg);
    }
}
