//! Memory-model litmus harness: every outcome real multi-core pipelines
//! produce — on every backend, across many scheduler interleavings — must
//! be allowed by the operational reference model in `aim-isa`.
//!
//! The reference model is deliberately weaker than the machine (see
//! `aim_isa::allowed_outcomes`), so containment is a sound check; the
//! forwarding variants (`SB+fwd`, `MP+fwd`) pin specific registers in
//! *every* allowed outcome, which keeps the harness non-vacuous for the
//! store-to-load forwarding paths of each backend.
//!
//! The schedule count is environment-tunable so CI tiers can trade depth
//! for time: `AIM_LITMUS_SCHEDULES` (default 200).

use std::collections::BTreeSet;

use aim_isa::{allowed_outcomes, litmus_suite, LitmusTest, RefLimits};
use aim_pipeline::{run_litmus, BackendChoice, CoreSchedule, MachineClass, SimConfig};

const BACKENDS: [BackendChoice; 6] = [
    BackendChoice::NoSpec,
    BackendChoice::Lsq,
    BackendChoice::Filtered,
    BackendChoice::SfcMdt,
    BackendChoice::Pcax,
    BackendChoice::Oracle,
];

fn schedules() -> u64 {
    std::env::var("AIM_LITMUS_SCHEDULES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200)
}

fn config(backend: BackendChoice) -> SimConfig {
    SimConfig::machine(MachineClass::Baseline)
        .backend(backend)
        .build()
}

fn allowed(test: &LitmusTest) -> BTreeSet<Vec<u64>> {
    allowed_outcomes(&test.programs, &test.observed, &RefLimits::default())
        .unwrap_or_else(|e| panic!("{}: reference model failed: {e}", test.name))
}

/// Runs `test` on `backend` under round-robin plus `n` seeded random
/// schedules and asserts containment; returns the distinct outcomes seen.
fn check_backend(test: &LitmusTest, backend: BackendChoice, n: u64) -> BTreeSet<Vec<u64>> {
    let allowed = allowed(test);
    let cfg = config(backend);
    let mut seen = BTreeSet::new();
    let mut schedules: Vec<CoreSchedule> = vec![CoreSchedule::RoundRobin];
    // Distinct odd seeds; the exact values are irrelevant, reproducibility
    // is what matters.
    schedules.extend((0..n).map(|i| CoreSchedule::Random {
        seed: 0xC0FE + 2 * i + 1,
    }));
    for schedule in schedules {
        let outcome = run_litmus(test, &cfg, schedule)
            .unwrap_or_else(|e| panic!("{} on {backend:?} under {schedule:?}: {e}", test.name));
        assert!(
            allowed.contains(&outcome),
            "{} on {backend:?} under {schedule:?}: outcome {outcome:?} not allowed \
             (allowed set: {allowed:?})",
            test.name
        );
        seen.insert(outcome);
    }
    seen
}

#[test]
fn litmus_all_backends_all_schedules() {
    let n = schedules();
    for test in litmus_suite() {
        for backend in BACKENDS {
            let seen = check_backend(&test, backend, n);
            assert!(
                !seen.is_empty(),
                "{} on {backend:?} produced outcomes",
                test.name
            );
        }
    }
}

#[test]
fn forwarding_is_observed_not_just_allowed() {
    // SB+fwd pins observed[0] (the forwarded read) to 1 in every allowed
    // outcome; verify the machine actually produces it on every backend —
    // i.e. the forwarding register really was loaded, not skipped.
    let test = litmus_suite()
        .into_iter()
        .find(|t| t.name == "SB+fwd")
        .expect("suite has SB+fwd");
    for backend in BACKENDS {
        let seen = check_backend(&test, backend, 20);
        for outcome in &seen {
            assert_eq!(outcome[0], 1, "{backend:?}: own store must forward");
        }
    }
}

#[test]
fn load_buffering_cycle_never_appears() {
    // Belt and braces on top of containment: the LB relaxed outcome is the
    // one behaviour that would indicate a store leaking to a sibling before
    // retirement.
    let test = litmus_suite()
        .into_iter()
        .find(|t| t.name == "LB")
        .expect("suite has LB");
    for backend in BACKENDS {
        let seen = check_backend(&test, backend, 50);
        assert!(
            !seen.contains(&vec![1, 1]),
            "{backend:?} produced the forbidden load-buffering cycle"
        );
    }
}

#[test]
fn relaxed_outcomes_are_reachable() {
    // The harness would be vacuous if the machine only ever produced the
    // sequentially consistent interleavings. Store buffering (both loads
    // miss the sibling's uncommitted store) must show up within a modest
    // schedule sweep on at least one backend.
    let test = litmus_suite()
        .into_iter()
        .find(|t| t.name == "SB")
        .expect("suite has SB");
    let mut relaxed_seen = false;
    for backend in BACKENDS {
        let seen = check_backend(&test, backend, 300);
        if seen.contains(&vec![0, 0]) {
            relaxed_seen = true;
            break;
        }
    }
    assert!(
        relaxed_seen,
        "no backend exhibited store buffering in 301 schedules each"
    );
}
