//! The shared backend-conformance suite: every [`MemBackend`] — current and
//! future — must pass the same scripted-trace contract checks
//! (`aim_backend::conformance`), instead of re-deriving correctness with
//! per-backend ad-hoc tests.
//!
//! Covered here, for all six backends:
//! * random out-of-order schedules with injected squashes
//!   (architectural equivalence with the in-order reference);
//! * sub-word byte-masked forwarding across overlapping accesses;
//! * late-store true-dependence recovery through `squash_after`;
//! * externally injected squash rollback and re-dispatch;
//! * retire-order store release under capacity pressure.
//!
//! Plus the filter-transparency property: with a filter sized to never
//! saturate, the filtered LSQ is performance-transparent — identical
//! violation/forwarding behavior to the plain LSQ on random programs.

use aim_backend::conformance::{
    check_contract, check_handoff_contract, run_script, Script, ScriptOp,
};
use aim_backend::{
    build, BackendConfig, BackendParams, BackendStats, FilterConfig, FilteredLsqBackend, LsqConfig,
    MdtConfig, MemKind, PcaxConfig, SetHash, SfcConfig, TableGeometry,
};
use aim_lsq::Lsq;
use aim_types::{AccessSize, Addr, MemAccess};
use proptest::prelude::*;

/// The six backend families, with their default geometries.
fn all_backend_params() -> Vec<(&'static str, BackendParams)> {
    vec![
        (
            "lsq",
            BackendParams::new(BackendConfig::Lsq(LsqConfig::baseline_48x32())),
        ),
        (
            "filtered",
            BackendParams::new(BackendConfig::FilteredLsq {
                lsq: LsqConfig::baseline_48x32(),
                filter: FilterConfig::baseline(),
            }),
        ),
        (
            "sfc-mdt",
            BackendParams::new(BackendConfig::SfcMdt {
                sfc: SfcConfig::baseline(),
                mdt: MdtConfig::baseline(),
            }),
        ),
        (
            "pcax",
            BackendParams::new(BackendConfig::Pcax {
                sfc: SfcConfig::baseline(),
                mdt: MdtConfig::baseline(),
                pcax: PcaxConfig::baseline(),
            }),
        ),
        ("oracle", BackendParams::new(BackendConfig::Oracle)),
        ("nospec", BackendParams::new(BackendConfig::NoSpec)),
    ]
}

/// The geometry-variant params the sweep subsystem exercises: a tiny
/// (4×1) and a large (4096×4) table for the two geometry-configurable
/// speculative backends, pcax and filtered.
fn geometry_backend_params() -> Vec<(String, BackendParams)> {
    let mut out = Vec::new();
    for (sets, ways) in [(4usize, 1usize), (4096, 4)] {
        let table = TableGeometry {
            sets,
            ways,
            hash: SetHash::LowBits,
        };
        out.push((
            format!("pcax@{}", table.label()),
            BackendParams::new(BackendConfig::Pcax {
                sfc: SfcConfig::baseline(),
                mdt: MdtConfig::baseline(),
                pcax: PcaxConfig::with_table(table),
            }),
        ));
        out.push((
            format!("filtered@{}", table.label()),
            BackendParams::new(BackendConfig::FilteredLsq {
                lsq: LsqConfig::baseline_48x32(),
                filter: FilterConfig {
                    sets,
                    ways,
                    max_count: FilterConfig::baseline().max_count,
                },
            }),
        ));
    }
    out
}

fn acc(addr: u64, size: AccessSize) -> MemAccess {
    MemAccess::new(Addr(addr), size).unwrap()
}

fn store(addr: u64, size: AccessSize, value: u64) -> ScriptOp {
    ScriptOp {
        kind: MemKind::Store,
        access: acc(addr, size),
        value,
    }
}

fn load(addr: u64, size: AccessSize) -> ScriptOp {
    ScriptOp {
        kind: MemKind::Load,
        access: acc(addr, size),
        value: 0,
    }
}

/// Runs one script through every backend, panicking with the backend name
/// on any contract breach.
fn conform_all(script: &Script) {
    for (name, params) in all_backend_params() {
        let mut backend = build(&params);
        if let Err(e) = check_contract(backend.as_mut(), script) {
            panic!("{name}: {e}");
        }
    }
}

#[test]
fn random_schedules_conform_on_every_backend() {
    for seed in 0..24u64 {
        let script = Script::random(seed, 24, 4);
        conform_all(&script);
    }
}

/// Satellite: the contract suite holds off the default geometry too —
/// shrinking a table to 4×1 (maximal aliasing and conflict pressure) or
/// growing it to 4096×4 must never break architectural equivalence.
#[test]
fn non_default_geometries_conform() {
    for seed in 0..16u64 {
        let script = Script::random(seed, 24, 4);
        for (name, params) in geometry_backend_params() {
            let mut backend = build(&params);
            if let Err(e) = check_contract(backend.as_mut(), &script) {
                panic!("{name}: {e}");
            }
        }
    }
}

#[test]
fn larger_windows_and_more_words_conform() {
    for seed in 100..108u64 {
        let script = Script::random(seed, 48, 8);
        conform_all(&script);
    }
}

#[test]
fn subword_overlap_forwarding_conforms() {
    // A double-word store overlaid by byte/half/word stores, read back at
    // every granularity: byte-masked merging must be exact on all backends.
    let ops = vec![
        store(0x2000, AccessSize::Double, 0x8877_6655_4433_2211),
        store(0x2002, AccessSize::Half, 0xBEEF),
        load(0x2000, AccessSize::Double),
        store(0x2007, AccessSize::Byte, 0x5A),
        load(0x2004, AccessSize::Word),
        load(0x2000, AccessSize::Word),
        load(0x2006, AccessSize::Half),
        load(0x2003, AccessSize::Byte),
    ];
    // In-order and a youngest-first schedule both must conform.
    conform_all(&Script::in_order(vec![], ops.clone()));
    let n = ops.len();
    conform_all(&Script {
        init: vec![(acc(0x2000, AccessSize::Double), 0x0102_0304_0506_0708)],
        ops,
        exec_priority: (0..n).rev().collect(),
        squashes: vec![],
    });
}

#[test]
fn late_store_recovery_conforms() {
    // The load is scheduled before the older store it truly depends on:
    // every speculative backend must detect the violation, roll back via
    // squash_after, and still retire the in-order value.
    let ops = vec![
        store(0x3000, AccessSize::Double, 0x1111),
        store(0x3000, AccessSize::Double, 0x2222),
        load(0x3000, AccessSize::Double),
        store(0x3008, AccessSize::Double, 0x3333),
        load(0x3008, AccessSize::Double),
    ];
    let n = ops.len();
    let script = Script {
        init: vec![],
        ops,
        // Loads first, stores last: maximal misspeculation.
        exec_priority: vec![2, 4, 3, 1, 0],
        squashes: vec![],
    };
    assert_eq!(script.exec_priority.len(), n);
    for (name, params) in all_backend_params() {
        let mut backend = build(&params);
        let got =
            check_contract(backend.as_mut(), &script).unwrap_or_else(|e| panic!("{name}: {e}"));
        // The bounds backends never misspeculate; the speculative ones must
        // actually have recovered here, not dodged the schedule.
        match name {
            "oracle" | "nospec" => assert_eq!(got.violations, 0, "{name} cannot violate"),
            _ => assert!(got.violations > 0, "{name} should have misspeculated"),
        }
    }
}

#[test]
fn external_squash_rollback_conforms() {
    // A mispredict-style squash lands mid-trace; squashed suffixes must be
    // dropped by the backend and re-dispatched with fresh seqs.
    let ops = vec![
        store(0x4000, AccessSize::Double, 7),
        load(0x4000, AccessSize::Double),
        store(0x4008, AccessSize::Double, 9),
        load(0x4008, AccessSize::Double),
        store(0x4000, AccessSize::Word, 0xAB),
        load(0x4000, AccessSize::Double),
    ];
    let n = ops.len();
    for survivor in 0..n {
        let script = Script {
            init: vec![],
            ops: ops.clone(),
            exec_priority: (0..n).collect(),
            squashes: vec![(2, survivor)],
        };
        conform_all(&script);
    }
}

/// Satellite: the sampled-mode handoff contract. Mid-trace, every backend
/// must survive a quiesce (squash of genuinely in-flight speculative work +
/// full `flush`) followed by a functionally-warmed program-order re-entry,
/// and still deliver the in-order architectural outcome — on the default
/// geometries and the aliasing-hostile variants alike.
#[test]
fn warm_detail_handoffs_conform_on_every_backend() {
    let mut params: Vec<(String, BackendParams)> = all_backend_params()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    params.extend(geometry_backend_params());
    for seed in 0..16u64 {
        let script = Script::random(seed, 32, 4);
        let n = script.ops.len();
        // Two handoffs per run, at varying phases so the quiesce lands on
        // different speculative frontiers across seeds.
        let first = 4 + (seed as usize % 8);
        let plan = [(first, 5), (n * 3 / 4, 4)];
        for (name, p) in &params {
            let mut backend = build(p);
            if let Err(e) = check_handoff_contract(backend.as_mut(), &script, &plan) {
                panic!("{name} seed {seed}: {e}");
            }
        }
    }
}

/// A handoff planted right on a violation-prone pattern: the late-store
/// script misspeculates in the first detail segment, then the quiesce and
/// warm re-entry must not strand the trained recovery state — the second
/// half still retires in-order values.
#[test]
fn handoff_after_recovery_conforms() {
    let ops = vec![
        store(0x3000, AccessSize::Double, 0x1111),
        store(0x3000, AccessSize::Double, 0x2222),
        load(0x3000, AccessSize::Double),
        store(0x3008, AccessSize::Double, 0x3333),
        load(0x3008, AccessSize::Double),
        store(0x3000, AccessSize::Word, 0x44),
        load(0x3000, AccessSize::Double),
    ];
    let n = ops.len();
    let script = Script {
        init: vec![],
        ops,
        // Loads first: the first segment misspeculates before the handoff.
        exec_priority: vec![2, 4, 6, 5, 3, 1, 0],
        squashes: vec![],
    };
    assert_eq!(script.exec_priority.len(), n);
    for (name, params) in all_backend_params() {
        let mut backend = build(&params);
        let got = check_handoff_contract(backend.as_mut(), &script, &[(3, 2)])
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        match name {
            "oracle" | "nospec" => assert_eq!(got.violations, 0, "{name} cannot violate"),
            _ => assert!(got.violations > 0, "{name} should have misspeculated"),
        }
    }
}

#[test]
fn capacity_pressure_preserves_retire_order() {
    // A 2×2 LSQ under a 16-op trace: dispatch stalls throttle the window
    // but stores must still release to memory strictly in program order.
    let mut ops = Vec::new();
    for i in 0..8u64 {
        ops.push(store(0x5000 + 8 * (i % 3), AccessSize::Double, i + 1));
        ops.push(load(0x5000 + 8 * ((i + 1) % 3), AccessSize::Double));
    }
    let script = Script::in_order(vec![], ops);
    for lsq in [
        LsqConfig {
            load_entries: 2,
            store_entries: 2,
        },
        LsqConfig::baseline_48x32(),
    ] {
        let mut backend = build(&BackendParams::new(BackendConfig::Lsq(lsq)));
        check_contract(backend.as_mut(), &script).unwrap();
        let mut filtered = build(&BackendParams::new(BackendConfig::FilteredLsq {
            lsq,
            filter: FilterConfig::baseline(),
        }));
        check_contract(filtered.as_mut(), &script).unwrap();
    }
}

/// Satellite regression: the direct `FilteredLsqBackend::new` constructor
/// and the `build(&BackendParams)` path must configure the identical
/// machine — same filter geometry, same wrapped LSQ — proven by identical
/// `BackendStats::Filtered` (and outcomes) on scripted traces, at the
/// baseline geometry and a deliberately non-default one.
#[test]
fn constructor_and_builder_filtered_paths_are_identical() {
    let non_default = FilterConfig {
        sets: 8,
        ways: 1,
        max_count: 2,
    };
    for filter in [FilterConfig::baseline(), non_default] {
        for seed in [3u64, 17, 40] {
            let script = Script::random(seed, 32, 4);
            let lsq_cfg = LsqConfig::baseline_48x32();

            let mut direct = FilteredLsqBackend::new(Lsq::new(lsq_cfg), filter);
            let direct_out = run_script(&mut direct, &script).unwrap();

            let mut built = build(&BackendParams::new(BackendConfig::FilteredLsq {
                lsq: lsq_cfg,
                filter,
            }));
            let built_out = run_script(built.as_mut(), &script).unwrap();

            assert_eq!(
                direct_out.stats, built_out.stats,
                "filter {}x{}@c{} seed {seed}: stats diverged between paths",
                filter.sets, filter.ways, filter.max_count
            );
            assert!(matches!(built_out.stats, BackendStats::Filtered(_)));
            assert_eq!(direct_out.load_values, built_out.load_values);
            assert_eq!(direct_out.violations, built_out.violations);
            assert_eq!(direct_out.replays, built_out.replays);
        }
    }
}

fn filtered_stats(stats: &BackendStats) -> aim_backend::FilteredStats {
    *stats.filtered().expect("filtered backend stats")
}

fn lsq_stats(stats: &BackendStats) -> aim_backend::LsqStats {
    *stats.lsq().expect("lsq backend stats")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite: with a filter sized to never saturate, the filtered LSQ
    /// is performance-transparent — same violations, same forwarding, same
    /// retired values as the plain LSQ; only the search counts shrink.
    #[test]
    fn unsaturable_filter_is_performance_transparent(seed in any::<u64>()) {
        let script = Script::random(seed, 32, 4);
        let lsq_cfg = LsqConfig::baseline_48x32();

        let mut plain = build(&BackendParams::new(BackendConfig::Lsq(lsq_cfg)));
        let plain_out = run_script(plain.as_mut(), &script)
            .map_err(|e| TestCaseError::fail(format!("lsq: {e}")))?;

        let mut filtered = build(&BackendParams::new(BackendConfig::FilteredLsq {
            lsq: lsq_cfg,
            filter: FilterConfig::unsaturable(lsq_cfg.store_entries),
        }));
        let filt_out = run_script(filtered.as_mut(), &script)
            .map_err(|e| TestCaseError::fail(format!("filtered: {e}")))?;

        prop_assert_eq!(&filt_out.load_values, &plain_out.load_values);
        prop_assert_eq!(&filt_out.final_mem, &plain_out.final_mem);
        prop_assert_eq!(filt_out.violations, plain_out.violations);
        prop_assert_eq!(filt_out.replays, plain_out.replays);
        prop_assert_eq!(filt_out.squashes, plain_out.squashes);

        let p = lsq_stats(&plain_out.stats);
        let f = filtered_stats(&filt_out.stats);
        prop_assert_eq!(f.filter.saturation_fallbacks, 0);
        prop_assert_eq!(f.lsq.violations, p.violations);
        prop_assert_eq!(f.lsq.full_forwards, p.full_forwards);
        prop_assert_eq!(f.lsq.partial_forwards, p.partial_forwards);
        prop_assert_eq!(f.lsq.silent_store_suppressions, p.silent_store_suppressions);
        prop_assert_eq!(f.lsq.lq_searches, p.lq_searches);
        prop_assert_eq!(f.lsq.peak_lq, p.peak_lq);
        prop_assert_eq!(f.lsq.peak_sq, p.peak_sq);
        // The filter only ever *removes* searches.
        prop_assert!(f.lsq.sq_searches <= p.sq_searches);
        prop_assert!(f.lsq.sq_entries_compared <= p.sq_entries_compared);
        prop_assert_eq!(
            f.filter.filtered_loads + f.filter.searched_loads,
            p.sq_searches
        );
    }

    /// Every backend conforms on proptest-driven random schedules too (the
    /// seeded sweep above pins known corners; this explores).
    #[test]
    fn random_schedules_conform_property(seed in any::<u64>()) {
        let script = Script::random(seed, 20, 3);
        for (name, params) in all_backend_params() {
            let mut backend = build(&params);
            check_contract(backend.as_mut(), &script)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        }
    }

    /// Satellite: the handoff contract under proptest-driven plans — random
    /// scripts, random handoff positions and warm lengths (including
    /// zero-length warms and back-to-back handoffs), every backend.
    #[test]
    fn warm_detail_handoffs_conform_property(
        seed in any::<u64>(),
        at1 in 0usize..20,
        warm1 in 0usize..8,
        gap in 0usize..12,
        warm2 in 0usize..8,
    ) {
        let script = Script::random(seed, 20, 3);
        let n = script.ops.len();
        let second = (at1 + warm1 + gap).min(n);
        let plan = [(at1, warm1), (second, warm2)];
        for (name, params) in all_backend_params() {
            let mut backend = build(&params);
            check_handoff_contract(backend.as_mut(), &script, &plan)
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        }
    }
}

/// The no-cross-core-state guarantee (see the `MemBackend` trait docs): an
/// adversarial sibling core committing stores to shared memory between
/// driver rounds — at addresses disjoint from the script's words but
/// aliasing the same table sets under the power-of-two `LowBits` index —
/// must leave every observable of the run except the final memory image
/// bit-identical to an interference-free run.
#[test]
fn sibling_interference_is_invisible_to_backends() {
    use aim_backend::conformance::run_script_with_interference;

    // Script words live at 0x1000..; the sibling writes 0x100000 higher.
    // 0x100000 is a multiple of every granule×sets product in use (max
    // 4096 sets × 64-byte granules = 256 KiB), so for LowBits-indexed
    // tables the sibling's granules land in the same sets as the script's.
    const SIBLING_OFFSET: u64 = 0x100000;
    let n_words = 4u64;

    let mut params: Vec<(String, BackendParams)> = all_backend_params()
        .into_iter()
        .map(|(n, p)| (n.to_string(), p))
        .collect();
    params.extend(geometry_backend_params());
    for seed in 0..12u64 {
        let script = Script::random(seed, 24, n_words);
        for (name, p) in &params {
            let mut clean_backend = build(p);
            let clean = run_script(clean_backend.as_mut(), &script)
                .unwrap_or_else(|e| panic!("{name} clean: {e}"));

            let mut noisy_backend = build(p);
            let mut sibling = |round: u64, mem: &mut aim_mem::MainMemory| {
                let word = SIBLING_OFFSET + 0x1000 + 8 * (round % n_words);
                mem.write(acc(word, AccessSize::Double), round.wrapping_mul(0x1111));
            };
            let noisy = run_script_with_interference(noisy_backend.as_mut(), &script, &mut sibling)
                .unwrap_or_else(|e| panic!("{name} with interference: {e}"));

            assert_eq!(clean.load_values, noisy.load_values, "{name}: load values");
            assert_eq!(clean.violations, noisy.violations, "{name}: violations");
            assert_eq!(clean.replays, noisy.replays, "{name}: replays");
            assert_eq!(clean.squashes, noisy.squashes, "{name}: squashes");
            assert_eq!(clean.rounds, noisy.rounds, "{name}: rounds");
            assert_eq!(
                format!("{:?}", clean.stats),
                format!("{:?}", noisy.stats),
                "{name}: backend stats"
            );
            // The final image differs exactly by the sibling's bytes.
            let noisy_script_mem: Vec<(u64, u8)> = noisy
                .final_mem
                .iter()
                .copied()
                .filter(|&(a, _)| a < SIBLING_OFFSET)
                .collect();
            assert_eq!(clean.final_mem, noisy_script_mem, "{name}: script memory");
            assert!(
                noisy.final_mem.iter().any(|&(a, _)| a >= SIBLING_OFFSET),
                "{name}: sibling writes landed"
            );
        }
    }
}

/// Same guarantee under *set-aliasing pressure on a tiny table*: with a
/// 4-set MDT every sibling granule collides with some script granule's
/// set, so any cross-core leakage into MDT timestamp checks would show up
/// as extra violations or replays.
#[test]
fn sibling_interference_with_tiny_mdt_geometry() {
    use aim_backend::conformance::run_script_with_interference;

    let params = BackendParams::new(BackendConfig::SfcMdt {
        sfc: SfcConfig {
            sets: 4,
            ways: 1,
            ..SfcConfig::baseline()
        },
        mdt: MdtConfig {
            sets: 4,
            ways: 1,
            ..MdtConfig::baseline()
        },
    });
    for seed in 0..12u64 {
        let script = Script::random(seed, 32, 4);
        let mut clean_backend = build(&params);
        let clean = run_script(clean_backend.as_mut(), &script).unwrap();
        let mut noisy_backend = build(&params);
        let mut sibling = |round: u64, mem: &mut aim_mem::MainMemory| {
            // Sweep all four sets every four rounds.
            let word = 0x200000 + 8 * (round % 4);
            mem.write(acc(word, AccessSize::Double), !round);
        };
        let noisy =
            run_script_with_interference(noisy_backend.as_mut(), &script, &mut sibling).unwrap();
        assert_eq!(
            clean.load_values, noisy.load_values,
            "seed {seed}: load values"
        );
        assert_eq!(
            clean.violations, noisy.violations,
            "seed {seed}: violations"
        );
        assert_eq!(clean.replays, noisy.replays, "seed {seed}: replays");
        assert_eq!(clean.rounds, noisy.rounds, "seed {seed}: rounds");
    }
}
