//! Extended differential fuzzing, ignored by default (run explicitly):
//!
//! ```text
//! cargo test -p aim-integration --test extended_fuzz --release -- --ignored
//! ```
//!
//! Covers many more random programs and machine shapes than the default
//! suite, including every structure variant.

use aim_core::{
    CorruptionPolicy, MdtConfig, MdtTagging, PartialMatchPolicy, SetHash, SfcConfig,
    TrueDepRecovery,
};
use aim_isa::Interpreter;
use aim_pipeline::{BackendConfig, Machine, OutputDepRecovery, SimConfig};
use aim_predictor::{EnforceMode, PredictorConfig};
use aim_workloads::stress::random_program;
use aim_workloads::Xorshift;

fn random_config(rng: &mut Xorshift) -> SimConfig {
    let mode = match rng.below(3) {
        0 => EnforceMode::TrueOnly,
        1 => EnforceMode::All,
        _ => EnforceMode::TotalOrder,
    };
    let mut cfg = SimConfig::baseline(BackendConfig::SfcMdt {
        sfc: SfcConfig {
            sets: 1 << (1 + rng.below(5)),
            ways: 1 + rng.below(3) as usize,
            corruption: if rng.below(2) == 0 {
                CorruptionPolicy::CorruptBits
            } else {
                CorruptionPolicy::FlushEndpoints {
                    capacity: 1 + rng.below(8) as usize,
                }
            },
            hash: if rng.below(2) == 0 {
                SetHash::LowBits
            } else {
                SetHash::XorFold
            },
        },
        mdt: MdtConfig {
            sets: 1 << (1 + rng.below(5)),
            ways: 1 + rng.below(3) as usize,
            granularity: 8 << rng.below(3),
            true_dep_recovery: if rng.below(2) == 0 {
                TrueDepRecovery::Conservative
            } else {
                TrueDepRecovery::SingleLoadAggressive
            },
            tagging: if rng.below(2) == 0 {
                MdtTagging::Tagged
            } else {
                MdtTagging::Untagged
            },
            hash: if rng.below(2) == 0 {
                SetHash::LowBits
            } else {
                SetHash::XorFold
            },
        },
    });
    let mut pred = PredictorConfig::figure4(mode);
    pred.clear_interval = [0u64, 64, 2048][rng.below(3) as usize];
    cfg.dep_predictor = pred;
    cfg.partial_match_policy = if rng.below(2) == 0 {
        PartialMatchPolicy::Combine
    } else {
        PartialMatchPolicy::Replay
    };
    cfg.output_dep_recovery = if rng.below(2) == 0 {
        OutputDepRecovery::Flush
    } else {
        OutputDepRecovery::MarkCorrupt
    };
    cfg.stall_bits = rng.below(2) == 0;
    cfg.mdt_filter = rng.below(2) == 0;
    cfg.oracle_fix_probability = rng.below(3) as f64 / 2.0;
    if rng.below(4) == 0 {
        // Occasionally fuzz the aggressive machine shape too.
        cfg.width = 8;
        cfg.max_branches_per_cycle = 8;
        cfg.issue_width = 8;
        cfg.rob_entries = 256;
        cfg.phys_regs = 256 + 64;
    }
    cfg
}

#[test]
#[ignore = "long-running; run explicitly with --ignored"]
fn thousand_random_machines() {
    let mut rng = Xorshift::new(0xF422);
    for case in 0..1000u64 {
        let program = random_program(rng.next_u64(), 40, 28);
        let trace = Interpreter::new(&program).run(1_000_000).unwrap();
        assert!(trace.halted(), "case {case}");
        let cfg = random_config(&mut rng);
        let stats = Machine::new(&program, &trace, cfg.clone()).run()
            .unwrap_or_else(|e| panic!("case {case}: {e}\nconfig: {cfg:?}"));
        assert_eq!(stats.retired, trace.len() as u64, "case {case}");
    }
}
