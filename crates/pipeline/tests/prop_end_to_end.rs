//! The repository's strongest property: random programs, executed
//! speculatively and out of order under randomly drawn machine
//! configurations, retire *exactly* the architectural trace.

use aim_core::{
    CorruptionPolicy, MdtConfig, MdtTagging, PartialMatchPolicy, SetHash, SfcConfig,
    TrueDepRecovery,
};
use aim_isa::Interpreter;
use aim_lsq::LsqConfig;
use aim_pipeline::{BackendConfig, Machine, OutputDepRecovery, SimConfig};
use aim_predictor::{EnforceMode, PredictorConfig};
use aim_workloads::stress::random_program;
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct MachineKnobs {
    sfc_sets: usize,
    sfc_ways: usize,
    mdt_sets: usize,
    mdt_ways: usize,
    mode_idx: u8,
    partial_replay: bool,
    output_corrupt: bool,
    aggressive_td: bool,
    stall_bits: bool,
    oracle: u8,
    granularity_idx: u8,
    flush_endpoints: bool,
    untagged: bool,
    xor_fold: bool,
    mdt_filter: bool,
}

fn knobs() -> impl Strategy<Value = MachineKnobs> {
    (
        (0usize..4, 0usize..3, 0usize..4, 0usize..3),
        0u8..3,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        0u8..3,
        0u8..3,
        (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                (sfc_s, sfc_w, mdt_s, mdt_w),
                mode_idx,
                partial_replay,
                output_corrupt,
                aggressive_td,
                stall_bits,
                oracle,
                granularity_idx,
                (flush_endpoints, untagged, xor_fold, mdt_filter),
            )| MachineKnobs {
                sfc_sets: 1 << (1 + sfc_s),
                sfc_ways: 1 + sfc_w,
                mdt_sets: 1 << (1 + mdt_s),
                mdt_ways: 1 + mdt_w,
                mode_idx,
                partial_replay,
                output_corrupt,
                aggressive_td,
                stall_bits,
                oracle,
                granularity_idx,
                flush_endpoints,
                untagged,
                xor_fold,
                mdt_filter,
            },
        )
}

fn config_from(k: &MachineKnobs) -> SimConfig {
    let mode = match k.mode_idx {
        0 => EnforceMode::TrueOnly,
        1 => EnforceMode::All,
        _ => EnforceMode::TotalOrder,
    };
    let mut cfg = SimConfig::baseline(BackendConfig::SfcMdt {
        sfc: SfcConfig {
            sets: k.sfc_sets,
            ways: k.sfc_ways,
            corruption: if k.flush_endpoints {
                CorruptionPolicy::FlushEndpoints { capacity: 4 }
            } else {
                CorruptionPolicy::CorruptBits
            },
            hash: if k.xor_fold {
                SetHash::XorFold
            } else {
                SetHash::LowBits
            },
        },
        mdt: MdtConfig {
            sets: k.mdt_sets,
            ways: k.mdt_ways,
            granularity: 8 << k.granularity_idx,
            true_dep_recovery: if k.aggressive_td {
                TrueDepRecovery::SingleLoadAggressive
            } else {
                TrueDepRecovery::Conservative
            },
            tagging: if k.untagged {
                MdtTagging::Untagged
            } else {
                MdtTagging::Tagged
            },
            hash: if k.xor_fold {
                SetHash::XorFold
            } else {
                SetHash::LowBits
            },
        },
    });
    cfg.dep_predictor = PredictorConfig::figure4(mode);
    cfg.partial_match_policy = if k.partial_replay {
        PartialMatchPolicy::Replay
    } else {
        PartialMatchPolicy::Combine
    };
    cfg.output_dep_recovery = if k.output_corrupt {
        OutputDepRecovery::MarkCorrupt
    } else {
        OutputDepRecovery::Flush
    };
    cfg.stall_bits = k.stall_bits;
    cfg.oracle_fix_probability = k.oracle as f64 / 2.0;
    cfg.mdt_filter = k.mdt_filter;
    cfg
}

proptest! {
    // Each case runs a full simulation; keep counts moderate.
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_programs_retire_the_architectural_trace(
        seed in any::<u64>(),
        k in knobs(),
    ) {
        let program = random_program(seed, 30, 25);
        let trace = Interpreter::new(&program).run(500_000).unwrap();
        prop_assert!(trace.halted());
        let cfg = config_from(&k);
        let stats = Machine::new(&program, &trace, cfg).run()
            .map_err(|e| TestCaseError::fail(format!("{k:?}: {e}")))?;
        prop_assert_eq!(stats.retired, trace.len() as u64);
    }

    #[test]
    fn random_programs_validate_under_lsq_sizes(
        seed in any::<u64>(),
        lq in 4usize..64,
        sq in 4usize..64,
    ) {
        let program = random_program(seed, 30, 25);
        let trace = Interpreter::new(&program).run(500_000).unwrap();
        let cfg = SimConfig::baseline(BackendConfig::Lsq(LsqConfig {
            load_entries: lq,
            store_entries: sq,
        }));
        let stats = Machine::new(&program, &trace, cfg).run()
            .map_err(|e| TestCaseError::fail(format!("lq {lq} sq {sq}: {e}")))?;
        prop_assert_eq!(stats.retired, trace.len() as u64);
    }
}
