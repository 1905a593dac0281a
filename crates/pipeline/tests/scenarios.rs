//! Targeted machine-behaviour scenarios on hand-built programs.

use aim_isa::{Assembler, Interpreter, Reg};
use aim_pipeline::{
    simulate, BackendChoice, BackendConfig, Machine, MachineClass, Pipeview, SimConfig, SimStats,
};
use aim_predictor::EnforceMode;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

fn run(program: &aim_isa::Program, cfg: &SimConfig) -> SimStats {
    simulate(program, cfg).expect("validated")
}

/// The paper's §2.3 running example, scaled into a loop: a store and load to
/// one address, a data-dependent branch, and a wrong-path store to the same
/// address. Wrong-path stores corrupt the SFC; every mispredict produces a
/// partial flush; and the machine still retires the architectural results.
#[test]
fn wrong_path_stores_corrupt_but_never_leak() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 2_000);
    asm.movi(r(2), 0xB000);
    asm.movi(r(5), 0x9E37);
    asm.label("loop");
    // xorshift for an unpredictable direction
    asm.slli(r(6), r(5), 13);
    asm.xor(r(5), r(5), r(6));
    asm.srli(r(6), r(5), 7);
    asm.xor(r(5), r(5), r(6));
    asm.slli(r(6), r(5), 17);
    asm.xor(r(5), r(5), r(6));
    // [1] ST M[B000] <- A1A1-ish (the surviving store)
    asm.sd(r(5), r(2), 0);
    // [2] LD M[B000]
    asm.ld(r(7), r(2), 0);
    asm.add(r(20), r(20), r(7));
    // BRANCH (data-dependent: mispredicted regularly with no oracle)
    asm.andi(r(8), r(5), 1);
    asm.beq(r(8), Reg::ZERO, "skip");
    // [3] ST M[B000] — on the "wrong path" half the time
    asm.xori(r(9), r(5), 0x55);
    asm.sd(r(9), r(2), 0);
    asm.label("skip");
    // [4] LD M[B000] along the continuing path
    asm.ld(r(10), r(2), 0);
    asm.add(r(20), r(20), r(10));
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().unwrap();

    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.oracle_fix_probability = 0.0; // raw gshare: plenty of wrong paths
    let stats = run(&program, &cfg);
    let sfc = *stats.backend.sfc().expect("SFC backend");
    assert!(stats.branch_mispredicts > 50, "need real mispredicts");
    assert!(sfc.partial_flushes > 0, "mispredicts with in-flight stores");
    assert!(
        stats.replays.load_corrupt > 0,
        "loads must replay on corrupt lines"
    );
    // And the killer check already ran inside simulate(): every retired
    // instruction matched the architectural trace.
}

/// A one-line SFC forces constant conflicts; the ROB-head bypass must keep
/// the machine live and correct.
#[test]
fn head_bypass_rescues_a_tiny_sfc() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 800);
    asm.movi(r(2), 0x1000);
    asm.label("loop");
    // Four stores to four different words that all map to the single set.
    for i in 0..4i64 {
        asm.sd(r(1), r(2), i * 8);
    }
    asm.ld(r(3), r(2), 0);
    asm.add(r(20), r(20), r(3));
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().unwrap();

    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    if let BackendConfig::SfcMdt { sfc, .. } = &mut cfg.backend {
        sfc.sets = 1;
        sfc.ways = 1;
    }
    let stats = run(&program, &cfg);
    assert!(
        stats.replays.store_sfc_conflicts > 100,
        "conflicts expected"
    );
    assert!(stats.head_bypasses > 0, "head bypass must engage");
}

/// Store-to-load forwarding latency: a dependent chain through memory is
/// dramatically faster when the SFC forwards than when every load must wait
/// for a (simulated) L2 miss — i.e. forwarding actually happens.
#[test]
fn forwarding_carries_a_memory_chain() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 500);
    asm.movi(r(2), 0x2000);
    asm.movi(r(3), 1);
    asm.label("loop");
    asm.sd(r(3), r(2), 0);
    asm.ld(r(3), r(2), 0);
    asm.addi(r(3), r(3), 1);
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().unwrap();

    let stats = run(&program, &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build());
    assert!(
        stats.loads_forwarded > 400,
        "the RMW chain must forward ({} forwards)",
        stats.loads_forwarded
    );
}

/// The deadlock guard fires as an error, not a hang, when the machine is
/// configured into an impossible corner — and *does not* fire for healthy
/// configurations of the same program.
#[test]
fn simulations_terminate() {
    let w = aim_workloads::by_name("twolf", aim_workloads::Scale::Tiny).unwrap();
    let trace = Interpreter::new(&w.program).run(1_000_000).unwrap();
    for cfg in [
        SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build(),
        SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build(),
        SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build(),
    ] {
        let stats = Machine::new(&w.program, &trace, cfg).run().expect("no deadlock");
        assert_eq!(stats.retired, trace.len() as u64);
    }
}

/// Branch-only torture: a program of nothing but data-dependent branches
/// exercises recovery paths; history rollback must keep gshare sane and the
/// run valid.
#[test]
fn branch_torture_validates() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 3_000);
    asm.movi(r(5), 0xF00D);
    asm.label("loop");
    asm.slli(r(6), r(5), 13);
    asm.xor(r(5), r(5), r(6));
    asm.srli(r(6), r(5), 7);
    asm.xor(r(5), r(5), r(6));
    for bit in 0..4i64 {
        let label = format!("b{bit}");
        asm.srli(r(7), r(5), bit);
        asm.andi(r(7), r(7), 1);
        asm.beq(r(7), Reg::ZERO, &label);
        asm.addi(r(20), r(20), 1);
        asm.label(&label);
    }
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().unwrap();

    let mut cfg = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::All).build();
    cfg.oracle_fix_probability = 0.0;
    let stats = run(&program, &cfg);
    assert!(
        stats.flushes.branch > 500,
        "wanted heavy mispredict traffic"
    );
}

/// Every machine statistic that must be internally consistent, is.
#[test]
fn stats_are_internally_consistent() {
    let w = aim_workloads::by_name("gcc", aim_workloads::Scale::Tiny).unwrap();
    let stats = run(&w.program, &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build());
    assert!(stats.fetched >= stats.dispatched);
    assert!(stats.dispatched >= stats.retired);
    assert!(stats.issued >= stats.retired);
    // dispatched = retired + squashed + (in flight when Halt retired).
    assert!(
        stats.retired + stats.squashed <= stats.dispatched,
        "retired + squashed must not exceed dispatched"
    );
    assert!(
        stats.dispatched - stats.retired - stats.squashed < 256,
        "only a window's worth of instructions may remain in flight at halt"
    );
    assert!(stats.retired_loads + stats.retired_stores <= stats.retired);
    assert!(stats.load_executions >= stats.retired_loads);
    assert!(stats.ipc() > 0.0);
}

/// A bounded store FIFO gates dispatch without breaking correctness.
#[test]
fn bounded_store_fifo_stalls_dispatch() {
    let w = aim_workloads::by_name("apsi", aim_workloads::Scale::Tiny).unwrap();
    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.store_fifo_entries = 2;
    let stats = run(&w.program, &cfg);
    assert!(
        stats.dispatch_stalls.fifo_full > 0,
        "a 2-entry FIFO must stall dispatch"
    );
    let aim = stats.backend.aim().expect("SFC/MDT backend");
    assert!(aim.store_fifo_peak <= 2, "FIFO bound must hold");
    // And the unbounded run is at least as fast.
    cfg.store_fifo_entries = 0;
    let free = run(&w.program, &cfg);
    assert!(free.ipc() >= stats.ipc());
}

/// Coarser MDT granularity aliases adjacent words into one entry: traffic to
/// neighbouring addresses produces spurious violations that the 8-byte
/// granularity never sees (§2.2's granularity trade-off).
#[test]
fn coarse_granularity_causes_spurious_violations() {
    // Two independent streams, 8 bytes apart, ping-ponging out of order.
    let mut asm = Assembler::new();
    asm.movi(r(1), 600);
    asm.movi(r(2), 0x3000);
    asm.movi(r(5), 0x77);
    asm.label("loop");
    asm.slli(r(6), r(5), 13);
    asm.xor(r(5), r(5), r(6));
    asm.srli(r(6), r(5), 7);
    asm.xor(r(5), r(5), r(6));
    // Slow store to word 0 (data behind a multiply chain)...
    asm.mul(r(7), r(5), r(5));
    asm.muli(r(7), r(7), 0x9E37_79B1);
    asm.sd(r(7), r(2), 0);
    // ...and a fast load of word 1 (a *different* 8-byte word).
    asm.ld(r(8), r(2), 8);
    asm.add(r(20), r(20), r(8));
    asm.sd(r(5), r(2), 8);
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().unwrap();

    let fine = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::TrueOnly).build();
    let mut coarse = fine.clone();
    if let BackendConfig::SfcMdt { mdt, .. } = &mut coarse.backend {
        mdt.granularity = 64;
    }
    let fine_stats = run(&program, &fine);
    let coarse_stats = run(&program, &coarse);
    assert!(
        coarse_stats.flushes.memory() > fine_stats.flushes.memory(),
        "64-byte granules must alias the two words ({} vs {})",
        coarse_stats.flushes.memory(),
        fine_stats.flushes.memory()
    );
}

/// The flush-endpoint SFC forwards surviving stores across partial flushes
/// that corruption masks would have blocked (§3.2's hypothesis, at machine
/// level).
#[test]
fn flush_endpoints_reduce_corrupt_replays() {
    let w = aim_workloads::by_name("vpr_route", aim_workloads::Scale::Small).unwrap();
    let bits = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let mut endpoints = bits.clone();
    if let BackendConfig::SfcMdt { sfc, .. } = &mut endpoints.backend {
        sfc.corruption = aim_core::CorruptionPolicy::FlushEndpoints { capacity: 16 };
    }
    let b = run(&w.program, &bits);
    let e = run(&w.program, &endpoints);
    assert!(
        e.replays.load_corrupt * 2 < b.replays.load_corrupt,
        "endpoints should at least halve corrupt replays ({} vs {})",
        e.replays.load_corrupt,
        b.replays.load_corrupt
    );
}

/// The XOR-fold hash spreads mcf's set-sized node stride (§3.2's closing
/// hypothesis, at machine level).
#[test]
fn xor_fold_hash_fixes_mcf() {
    let w = aim_workloads::by_name("mcf", aim_workloads::Scale::Small).unwrap();
    let low = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    let mut xor = low.clone();
    if let BackendConfig::SfcMdt { sfc, mdt } = &mut xor.backend {
        sfc.hash = aim_core::SetHash::XorFold;
        mdt.hash = aim_core::SetHash::XorFold;
    }
    let l = run(&w.program, &low);
    let x = run(&w.program, &xor);
    assert!(l.mdt_conflict_rate() > 16.0);
    assert!(
        x.mdt_conflict_rate() < 1.0,
        "XOR fold should eliminate mcf's conflicts, got {:.2}%",
        x.mdt_conflict_rate()
    );
}

/// The pipeline viewer returns one record per retired instruction (up to
/// its capacity), with stage cycles in dispatch <= issue <= complete <
/// retire order and a sequence that matches retirement order.
#[test]
fn pipeview_records_are_stage_monotone() {
    let w = aim_workloads::by_name("gzip", aim_workloads::Scale::Tiny).unwrap();
    let trace = Interpreter::new(&w.program).run(1_000_000).unwrap();
    let cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    let mut view = Pipeview::new(4096);
    let stats = Machine::new(&w.program, &trace, cfg).run_with(&mut view).expect("validated");
    let records = view.into_vec();
    assert_eq!(records.len() as u64, stats.retired.min(4096));
    for pair in records.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "retirement order");
        assert!(pair[0].retired <= pair[1].retired);
    }
    for r in &records {
        assert!(r.dispatched <= r.issued, "{r:?}");
        assert!(r.issued <= r.completed, "{r:?}");
        assert!(r.completed < r.retired, "{r:?}");
    }
    let rendered = aim_pipeline::pipeview::render(&records[..32.min(records.len())], 64);
    assert_eq!(rendered.lines().count(), 33);
}

/// The §4 search filter: on a load-dominated kernel whose MDT-aliasing loads
/// run with no stores in flight, the filter skips the MDT entirely, so a
/// deliberately starved MDT stops generating structural-conflict replays and
/// recovers most of its lost IPC — "higher performance from a much smaller
/// MDT".
#[test]
fn search_filter_rescues_a_starved_mdt() {
    let w = aim_workloads::by_name("gcc", aim_workloads::Scale::Small).unwrap();
    let mut base = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
    if let BackendConfig::SfcMdt { mdt, .. } = &mut base.backend {
        mdt.sets = 16;
        mdt.ways = 1;
    }
    let mut filtered = base.clone();
    filtered.mdt_filter = true;

    let b = run(&w.program, &base);
    let f = run(&w.program, &filtered);
    assert_eq!(b.mdt_filtered_loads, 0);
    assert!(
        f.mdt_filtered_loads > 1_000,
        "filter should skip many MDT accesses, got {}",
        f.mdt_filtered_loads
    );
    let b_conf = b.replays.load_mdt_conflicts + b.replays.store_mdt_conflicts;
    let f_conf = f.replays.load_mdt_conflicts + f.replays.store_mdt_conflicts;
    assert!(
        f_conf * 3 < b_conf,
        "filter should cut conflicts by >3x: {b_conf} -> {f_conf}"
    );
    assert!(
        f.ipc() > b.ipc() * 1.3,
        "filter should recover IPC on a 16-set MDT: {:.3} -> {:.3}",
        b.ipc(),
        f.ipc()
    );
}

/// The aggressive single-load recovery policy (§2.4.1) flushes less than the
/// conservative policy without breaking validation.
#[test]
fn aggressive_true_dep_recovery_squashes_less() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 800);
    asm.movi(r(2), 0x4000);
    asm.movi(r(5), 0x51);
    asm.label("loop");
    asm.slli(r(6), r(5), 13);
    asm.xor(r(5), r(5), r(6));
    asm.srli(r(6), r(5), 7);
    asm.xor(r(5), r(5), r(6));
    // Slow store (multiply chain) ...
    asm.mul(r(7), r(5), r(5));
    asm.muli(r(7), r(7), 0x0101_0101);
    asm.sd(r(7), r(2), 0);
    // ... then a single fast load of the same address: a true-dependence
    // race with exactly one in-flight load.
    asm.ld(r(8), r(2), 0);
    asm.add(r(20), r(20), r(8));
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().unwrap();

    let mut conservative = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::TrueOnly).build();
    // Clear the predictor on every dispatch — training never sticks, so the
    // race recurs each iteration and the recovery policies differentiate.
    conservative.dep_predictor.clear_interval = 1;
    let mut aggressive = conservative.clone();
    if let BackendConfig::SfcMdt { mdt, .. } = &mut aggressive.backend {
        mdt.true_dep_recovery = aim_core::TrueDepRecovery::SingleLoadAggressive;
    }
    let c = run(&program, &conservative);
    let a = run(&program, &aggressive);
    assert!(c.flushes.true_dep > 10, "need recurring true violations");
    let mdt_stats = *a.backend.mdt().expect("SFC/MDT backend");
    assert!(
        mdt_stats.aggressive_recoveries > 0,
        "single-load recovery should engage"
    );
    assert!(
        a.squashed <= c.squashed,
        "aggressive recovery must not squash more ({} vs {})",
        a.squashed,
        c.squashed
    );
}

/// `--paranoid` runs the wakeup-list and store-census integrity checks in
/// release builds too; both are invoked at the end of every
/// `squash_and_redirect`, so a run with plenty of mispredict *and*
/// violation squashes exercises the truncation bookkeeping directly: any
/// entry the squash path leaves dangling (or any census it fails to
/// decrement) trips a hard assert instead of surfacing cycles later.
#[test]
fn paranoid_checks_survive_heavy_squashing() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 1_500);
    asm.movi(r(2), 0xB000);
    asm.movi(r(5), 0x9E37);
    asm.label("loop");
    // xorshift for unpredictable branch directions
    asm.slli(r(6), r(5), 13);
    asm.xor(r(5), r(5), r(6));
    asm.srli(r(6), r(5), 7);
    asm.xor(r(5), r(5), r(6));
    // A slow store racing a fast same-address load: true-dependence
    // violations on top of the control squashes.
    asm.mul(r(7), r(5), r(5));
    asm.sd(r(7), r(2), 0);
    asm.ld(r(8), r(2), 0);
    asm.add(r(20), r(20), r(8));
    asm.andi(r(9), r(5), 1);
    asm.beq(r(9), Reg::ZERO, "skip");
    // Wrong-path store half the time, so squashes truncate pending stores.
    asm.xori(r(10), r(5), 0x55);
    asm.sd(r(10), r(2), 0);
    asm.label("skip");
    asm.ld(r(11), r(2), 0);
    asm.add(r(20), r(20), r(11));
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let program = asm.assemble().unwrap();

    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.paranoid = true;
    cfg.mdt_filter = true; // the census check is live only with the filter on
    cfg.oracle_fix_probability = 0.0; // raw gshare: plenty of wrong paths
    cfg.dep_predictor.clear_interval = 1; // violations recur every iteration
    let stats = run(&program, &cfg);
    assert!(stats.branch_mispredicts > 50, "need mispredict squashes");
    assert!(
        stats.flushes.true_dep + stats.flushes.anti_dep + stats.flushes.output_dep > 10,
        "need violation squashes: {:?}",
        stats.flushes
    );
    assert!(stats.squashed > 100, "squash path barely exercised");
}
