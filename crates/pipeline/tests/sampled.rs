//! The sampled-mode differential convergence gate.
//!
//! Sampled fast-forward execution trades cycle accuracy on the warm
//! stretches for wall-clock speed; these tests pin down exactly what the
//! trade gives up and what it must not:
//!
//! * **Architectural state gives up nothing.** For every kernel and every
//!   backend, the sampled run's [`FinalState`] — register file and committed
//!   memory image — is byte-identical to the architectural interpreter's,
//!   exactly as in full-detail mode.
//! * **Timing converges.** Under the gate policy below, the sampled IPC,
//!   store-to-load forward rate, and memory-ordering violation rate agree
//!   with the full-detail run within the stated tolerances below on all
//!   twenty kernels for the paper's SFC/MDT backend, the PCAX backend, and
//!   the baseline LSQ.

use aim_isa::{Interpreter, Reg};
use aim_pipeline::{BackendChoice, FinalState, Machine, MachineClass, SimConfig, SimStats};
use aim_types::SampleSpec;
use aim_workloads::Scale;

/// Relative IPC tolerance of the convergence gate.
const IPC_TOLERANCE: f64 = 0.05;
/// Tolerance on the forward/violation *rates* (events per retired
/// instruction): 5% relative, with an absolute floor so kernels where the
/// full-detail rate is itself a handful of events don't demand sub-event
/// precision from an extrapolation.
const RATE_TOLERANCE: f64 = 0.05;
const RATE_FLOOR: f64 = 0.005;

/// The gate's sampling policy: seven periods spanning the kernel's dynamic
/// length, each 7/8 detail window + 1/8 warm stretch.
/// Detail windows after a warm handoff are cycle-exact (the warm engine
/// reproduces the cache, predictor, and backend state a continuous run
/// would hold), so all sampling error comes from interpolating the
/// unmeasured gaps. Two deliberate choices follow from that: the detail
/// fraction is generous because a tens-of-kiloinstruction run has phase
/// swings that are huge relative to its length (at `Scale::Huge` the same
/// machinery converges with a few percent detail — see EXPERIMENTS.md
/// T-SAMPLE — which is where the wall-clock win lives), and the period
/// count is a *prime* because several kernels iterate a power-of-two outer
/// loop: a power-of-two schedule aliases with it, parking every warm gap on
/// the same slice of each iteration and turning gap interpolation into a
/// systematic bias (mgrid drifts +7% under an 8-period schedule, <1% under
/// this one).
fn gate_policy(trace_len: u64) -> SampleSpec {
    let period = (trace_len / 7).max(8);
    let detail = period * 7 / 8;
    SampleSpec::new(period - detail, detail, 7).expect("non-zero policy")
}

fn config(choice: BackendChoice, sampled: Option<SampleSpec>) -> SimConfig {
    let mut b = SimConfig::machine(MachineClass::Baseline).backend(choice);
    if let Some(spec) = sampled {
        b = b.sample(spec);
    }
    b.build()
}

struct RunOutcome {
    stats: SimStats,
    fin: FinalState,
}

fn run(program: &aim_isa::Program, trace: &aim_isa::Trace, cfg: SimConfig) -> RunOutcome {
    let (stats, fin) = Machine::new(program, trace, cfg)
        .run_final()
        .expect("validated run");
    RunOutcome { stats, fin }
}

fn forward_rate(s: &SimStats) -> f64 {
    s.loads_forwarded as f64 / s.retired.max(1) as f64
}

fn violation_rate(s: &SimStats) -> f64 {
    s.flushes.memory() as f64 / s.retired.max(1) as f64
}

fn assert_rate_close(kernel: &str, backend: &str, what: &str, full: f64, sampled: f64) {
    let tol = (full * RATE_TOLERANCE).max(RATE_FLOOR);
    assert!(
        (full - sampled).abs() <= tol,
        "{kernel}/{backend}: sampled {what} {sampled:.5} vs full {full:.5} (tol {tol:.5})"
    );
}

/// The tentpole acceptance gate: for all twenty kernels and the three
/// schemes under study, sampled timing converges and architectural state is
/// exact.
#[test]
fn sampled_runs_converge_and_stay_architecturally_exact() {
    let backends = [
        BackendChoice::SfcMdt,
        BackendChoice::Pcax,
        BackendChoice::Lsq,
    ];
    for workload in aim_workloads::all(Scale::Small) {
        let mut interp = Interpreter::new(&workload.program);
        let trace = interp
            .run(10 * Scale::Small.target_instrs())
            .expect("golden run");
        assert!(trace.halted(), "{} must halt at Small", workload.name);
        let want_regs: Vec<u64> = (0..32).map(|i| interp.reg(Reg::new(i))).collect();
        let want_mem = interp.memory().nonzero_bytes();

        for choice in backends {
            let name = workload.name;
            let token = choice.token();
            let policy = gate_policy(trace.len() as u64);
            let full = run(&workload.program, &trace, config(choice, None));
            let samp = run(&workload.program, &trace, config(choice, Some(policy)));

            // Exact architectural parity with the interpreter, both modes.
            for (mode, out) in [("full", &full), ("sampled", &samp)] {
                assert_eq!(
                    out.fin.regs, want_regs,
                    "{name}/{token}: {mode} register file diverged"
                );
                assert_eq!(
                    out.fin.mem.nonzero_bytes(),
                    want_mem,
                    "{name}/{token}: {mode} memory image diverged"
                );
            }

            // Same retirement count, and the sampled run must actually have
            // sampled: some warm coverage, some detail coverage.
            assert_eq!(full.stats.retired, samp.stats.retired, "{name}/{token}");
            let cov = samp.stats.sampled.expect("sampled coverage recorded");
            assert!(cov.warm_retired > 0, "{name}/{token}: no warm coverage");
            assert!(cov.detail_retired > 0, "{name}/{token}: no detail coverage");
            assert!(
                full.stats.sampled.is_none(),
                "{name}/{token}: full run sampled"
            );

            // Timing convergence.
            let (fi, si) = (full.stats.ipc(), samp.stats.ipc());
            assert!(
                (fi - si).abs() <= fi * IPC_TOLERANCE,
                "{name}/{token}: sampled IPC {si:.4} vs full {fi:.4}"
            );
            assert_rate_close(
                name,
                token,
                "forward rate",
                forward_rate(&full.stats),
                forward_rate(&samp.stats),
            );
            assert_rate_close(
                name,
                token,
                "violation rate",
                violation_rate(&full.stats),
                violation_rate(&samp.stats),
            );
        }
    }
}

/// Architectural exactness is not a statistical property: it must hold for
/// *every* backend, including the bounds, not just the three the convergence
/// gate studies.
#[test]
fn sampled_final_state_is_exact_for_every_backend() {
    let workload = aim_workloads::by_name("mcf", Scale::Tiny).expect("known kernel");
    let mut interp = Interpreter::new(&workload.program);
    let trace = interp
        .run(10 * Scale::Tiny.target_instrs())
        .expect("golden run");
    assert!(trace.halted());
    let want_regs: Vec<u64> = (0..32).map(|i| interp.reg(Reg::new(i))).collect();
    let want_mem = interp.memory().nonzero_bytes();

    for choice in BackendChoice::ALL {
        let mut cfg = config(choice, None);
        cfg.sample = SampleSpec::new(400, 150, 6);
        let out = run(&workload.program, &trace, cfg);
        assert_eq!(out.fin.regs, want_regs, "{}: registers", choice.token());
        assert_eq!(
            out.fin.mem.nonzero_bytes(),
            want_mem,
            "{}: memory",
            choice.token()
        );
        assert_eq!(out.stats.retired, trace.len() as u64, "{}", choice.token());
    }
}

/// Degenerate policies stay well-defined. A warm stretch longer than the
/// program collapses the schedule to one cold detail window plus one warm
/// stretch to the end; a detail window longer than the program makes the
/// sampled run a plain full-detail run with identical cycle counts.
#[test]
fn oversized_policies_degenerate_gracefully() {
    let workload = aim_workloads::by_name("gzip", Scale::Tiny).expect("known kernel");
    let mut interp = Interpreter::new(&workload.program);
    let trace = interp
        .run(10 * Scale::Tiny.target_instrs())
        .expect("golden run");
    assert!(trace.halted());
    let want_regs: Vec<u64> = (0..32).map(|i| interp.reg(Reg::new(i))).collect();

    // Oversized warm stretch: one window, one warm remainder.
    let mut cfg = config(BackendChoice::SfcMdt, None);
    cfg.sample = SampleSpec::new(10_000_000, 1_000, 4);
    let out = run(&workload.program, &trace, cfg);
    assert_eq!(out.fin.regs, want_regs);
    let cov = out.stats.sampled.expect("coverage recorded");
    assert_eq!(cov.periods_run, 1);
    assert_eq!(cov.detail_retired, 1_000);
    assert_eq!(cov.warm_retired, trace.len() as u64 - 1_000);

    // Oversized detail window: the whole run is one detail window, so the
    // "estimate" is the exact full-detail cycle count.
    let full = run(
        &workload.program,
        &trace,
        config(BackendChoice::SfcMdt, None),
    );
    let mut cfg = config(BackendChoice::SfcMdt, None);
    cfg.sample = SampleSpec::new(1_000, 10_000_000, 3);
    let out = run(&workload.program, &trace, cfg);
    assert_eq!(out.fin.regs, want_regs);
    let cov = out.stats.sampled.expect("coverage recorded");
    assert_eq!(cov.periods_run, 1);
    assert_eq!(cov.warm_retired, 0);
    assert_eq!(cov.detail_retired, trace.len() as u64);
    assert_eq!(out.stats.cycles, full.stats.cycles);
}

/// Determinism: the sampled mode is as reproducible as the detailed mode.
#[test]
fn sampled_runs_are_deterministic() {
    let workload = aim_workloads::by_name("vpr_place", Scale::Tiny).expect("known kernel");
    let trace = Interpreter::new(&workload.program)
        .run(10 * Scale::Tiny.target_instrs())
        .expect("golden run");
    let mut cfg = config(BackendChoice::SfcMdt, None);
    cfg.sample = SampleSpec::new(600, 200, 5);
    let a = run(&workload.program, &trace, cfg.clone());
    let b = run(&workload.program, &trace, cfg);
    let mut sa = a.stats;
    let mut sb = b.stats;
    sa.host = Default::default();
    sb.host = Default::default();
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
}

/// Warm stretches train only long-lived state. The SFC and MDT hold
/// in-flight state that a drained warm stretch cannot teach, so the warm
/// engine must never drive them: under the tuned policy (eleven periods,
/// 1/32 of each in detail) every MDT load check and SFC load lookup belongs
/// to a detailed load execution, though warm loads outnumber detailed ones
/// many times over.
#[test]
fn warm_stretches_never_reach_the_sfc_or_mdt() {
    for name in ["gzip", "mcf", "swim"] {
        let workload = aim_workloads::by_name(name, Scale::Small).expect("known kernel");
        let trace = Interpreter::new(&workload.program)
            .run(10 * Scale::Small.target_instrs())
            .expect("golden run");
        let period = trace.len() as u64 / 11;
        let detail = period / 32;
        let policy = SampleSpec::new(period - detail, detail, 11).expect("non-zero policy");
        let out = run(
            &workload.program,
            &trace,
            config(BackendChoice::SfcMdt, Some(policy)),
        );
        let cov = out.stats.sampled.expect("sampled coverage recorded");
        assert!(cov.warm_retired > 10 * cov.detail_retired, "{name}");
        // Event counts are extrapolated by retired / detail_retired; undo
        // that (to within rounding) for the detailed windows' own count.
        let detail_loads = (u128::from(out.stats.load_executions) * u128::from(cov.detail_retired)
            / u128::from(out.stats.retired)) as u64
            + 1;
        let mdt = out.stats.backend.mdt().expect("sfc-mdt backend");
        let sfc = out.stats.backend.sfc().expect("sfc-mdt backend");
        assert!(
            mdt.load_checks <= detail_loads,
            "{name}: {} MDT load checks for {detail_loads} detailed load executions",
            mdt.load_checks
        );
        assert!(
            sfc.load_lookups <= detail_loads,
            "{name}: {} SFC load lookups for {detail_loads} detailed load executions",
            sfc.load_lookups
        );
        assert!(out.stats.retired_loads > 10 * detail_loads, "{name}");
    }
}
