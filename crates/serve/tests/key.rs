//! Cache-key stability: the content address is a function of *what the
//! simulation computes*, nothing else.
//!
//! Three claims, sampled over the whole [`ConfigSpec`] space from a `u64`
//! seed:
//!
//! 1. **Construction invariance** — builder calls in a different order,
//!    and defaults filled in explicitly, produce the same canonical
//!    config text and therefore the same key. A client that spells out
//!    `lsq: 48x32` must share cache entries with one that relies on the
//!    default.
//! 2. **Observability invariance** — flipping the event-trace, pipeline-
//!    viewer, and paranoid-check knobs never changes the key (they change
//!    what the host records, never what the machine computes).
//! 3. **Architectural sensitivity** — flipping any architecturally
//!    meaningful field (window geometry, penalties, predictor sizing,
//!    backend policy knobs, the oracle seed) always changes the key, so a
//!    cached entry can never be served for a different machine.
//!
//! Seeds that once exposed failures are pinned in
//! `key.proptest-regressions` and replayed by
//! [`regression_seeds_stay_green`] (the vendored proptest does not
//! consume regression files itself).

use aim_bench::{cache_key_of_texts, canonical_config_text, CacheKey, CODE_VERSION};
use aim_lsq::LsqConfig;
use aim_pipeline::{
    BackendChoice, FarSpec, FilterConfig, MachineClass, MemSpec, OutputDepRecovery, PcaxConfig,
    SampleSpec, SimConfig, TableGeometry,
};
use aim_predictor::EnforceMode;
use aim_serve::ConfigSpec;
use proptest::prelude::*;

/// A fixed program text: these properties quantify over configurations,
/// and the key's kernel sensitivity is pinned by `aim-bench` unit tests.
const PROGRAM: &str = "program-under-test";

fn key_of(cfg: &SimConfig) -> CacheKey {
    cache_key_of_texts(PROGRAM, &canonical_config_text(cfg), CODE_VERSION)
}

/// Decodes a seed into a point of the full [`ConfigSpec`] space.
fn spec_from_seed(seed: u64) -> ConfigSpec {
    let machine = match seed % 3 {
        0 => MachineClass::Baseline,
        1 => MachineClass::Aggressive,
        _ => MachineClass::Huge,
    };
    let backend = BackendChoice::ALL[((seed >> 2) % BackendChoice::ALL.len() as u64) as usize];
    let mode = match (seed >> 5) % 4 {
        0 => None,
        1 => Some(EnforceMode::TrueOnly),
        2 => Some(EnforceMode::All),
        _ => Some(EnforceMode::TotalOrder),
    };
    let lsq = match (seed >> 7) % 4 {
        0 | 1 => None,
        2 => Some(LsqConfig::baseline_48x32()),
        _ => Some(LsqConfig::aggressive_120x80()),
    };
    let pcax = ((seed >> 9) % 4 == 3).then_some((256, 1));
    let pcax_act = ((seed >> 11) % 4 == 3).then_some(3);
    let filt = ((seed >> 13) % 4 == 3).then_some((512, 4));
    let filt_count = ((seed >> 15) % 4 == 3).then_some(31);
    let far = match (seed >> 17) % 4 {
        0 | 1 => None,
        2 => Some(FarSpec::default()),
        _ => Some(FarSpec::new(200, 32, 4)),
    };
    let sample = match (seed >> 19) % 4 {
        0 | 1 => None,
        2 => SampleSpec::new(2_000, 500, 10),
        _ => SampleSpec::new(10_000, 1_000, 4),
    };
    ConfigSpec {
        mode,
        lsq,
        pcax,
        pcax_act,
        filt,
        filt_count,
        far,
        sample,
        ..ConfigSpec::new(machine, backend)
    }
}

/// Builds `spec`'s config with the builder calls in the reverse order.
fn build_reordered(spec: &ConfigSpec) -> SimConfig {
    let mut b = SimConfig::machine(spec.machine);
    if let Some(sample) = spec.sample {
        b = b.sample(sample);
    }
    if let Some(far) = spec.far {
        b = b.mem(MemSpec::figure4().with_far(far));
    }
    if spec.filt.is_some() || spec.filt_count.is_some() {
        let baseline = FilterConfig::baseline();
        let (sets, ways) = spec.filt.unwrap_or((baseline.sets, baseline.ways));
        b = b.filter(FilterConfig {
            sets,
            ways,
            max_count: spec.filt_count.unwrap_or(baseline.max_count),
        });
    }
    if spec.pcax.is_some() || spec.pcax_act.is_some() {
        let baseline = PcaxConfig::baseline();
        let table = spec.pcax.map_or(baseline.table, |(sets, ways)| TableGeometry {
            sets,
            ways,
            ..baseline.table
        });
        b = b.pcax(PcaxConfig {
            table,
            no_alias_act: spec.pcax_act.unwrap_or(baseline.no_alias_act),
            ..baseline
        });
    }
    if let Some(lsq) = spec.lsq {
        b = b.lsq(lsq);
    }
    if let Some(mode) = spec.mode {
        b = b.mode(mode);
    }
    b.backend(spec.backend).build()
}

/// Builds `spec`'s config with every defaulted knob filled in explicitly
/// (the builder defaults, spelled out).
fn build_default_filled(spec: &ConfigSpec) -> SimConfig {
    let aggressive = spec.machine != MachineClass::Baseline;
    let mode = spec.mode.unwrap_or(match spec.backend {
        BackendChoice::SfcMdt | BackendChoice::Pcax if aggressive => EnforceMode::TotalOrder,
        BackendChoice::SfcMdt | BackendChoice::Pcax => EnforceMode::All,
        _ => EnforceMode::TrueOnly,
    });
    let lsq = spec.lsq.unwrap_or_else(|| {
        if spec.machine == MachineClass::Huge {
            LsqConfig::aggressive_256x256()
        } else {
            LsqConfig::baseline_48x32()
        }
    });
    let pcax_baseline = PcaxConfig::baseline();
    let pcax = PcaxConfig {
        table: spec.pcax.map_or(pcax_baseline.table, |(sets, ways)| TableGeometry {
            sets,
            ways,
            ..pcax_baseline.table
        }),
        no_alias_act: spec.pcax_act.unwrap_or(pcax_baseline.no_alias_act),
        ..pcax_baseline
    };
    let filt_baseline = FilterConfig::baseline();
    let (sets, ways) = spec.filt.unwrap_or((filt_baseline.sets, filt_baseline.ways));
    let filter = FilterConfig {
        sets,
        ways,
        max_count: spec.filt_count.unwrap_or(filt_baseline.max_count),
    };
    // Spelling the default memory hierarchy out explicitly must be
    // key-identical to leaving `mem` off entirely.
    let mem = spec.far.map_or(MemSpec::figure4(), |far| MemSpec::figure4().with_far(far));
    let mut b = SimConfig::machine(spec.machine)
        .backend(spec.backend)
        .mode(mode)
        .lsq(lsq)
        .filter(filter)
        .pcax(pcax)
        .mem(mem);
    if let Some(sample) = spec.sample {
        b = b.sample(sample);
    }
    b.build()
}

/// The architectural mutations the key must be sensitive to.
fn mutate(cfg: &mut SimConfig, which: u64) {
    match which % 16 {
        0 => cfg.rob_entries += 1,
        1 => cfg.phys_regs += 1,
        2 => cfg.width += 1,
        3 => cfg.mispredict_penalty += 1,
        4 => cfg.seed ^= 1,
        5 => cfg.mdt_filter = !cfg.mdt_filter,
        6 => cfg.stall_bits = !cfg.stall_bits,
        7 => cfg.store_fifo_entries += 1,
        8 => cfg.max_instrs += 1_000,
        9 => cfg.gshare_counters *= 2,
        10 => cfg.sfc_store_extra_latency += 1,
        11 => {
            cfg.hierarchy.far = match cfg.hierarchy.far {
                None => Some(FarSpec::default()),
                Some(_) => None,
            }
        }
        12 => match &mut cfg.hierarchy.far {
            Some(far) => far.latency += 1,
            None => cfg.hierarchy.l2_miss_cycles += 1,
        },
        13 => {
            cfg.output_dep_recovery = match cfg.output_dep_recovery {
                OutputDepRecovery::Flush => OutputDepRecovery::MarkCorrupt,
                OutputDepRecovery::MarkCorrupt => OutputDepRecovery::Flush,
            }
        }
        14 => {
            // Sampling on/off is architecturally meaningful to the *stats*
            // a cell stores, so it must be a cache miss.
            cfg.sample = match cfg.sample {
                None => SampleSpec::new(2_000, 500, 10),
                Some(_) => None,
            }
        }
        _ => match &mut cfg.sample {
            Some(sample) => sample.warm_insts += 1,
            None => cfg.sample = SampleSpec::new(1_000, 250, 2),
        },
    }
}

/// One property case; see the module docs for the three claims.
fn check_key_case(seed: u64) -> Result<(), TestCaseError> {
    let spec = spec_from_seed(seed);
    let cfg = spec.to_config();
    let key = key_of(&cfg);

    // Determinism and construction invariance.
    prop_assert_eq!(key, key_of(&cfg));
    let reordered = build_reordered(&spec);
    prop_assert_eq!(
        canonical_config_text(&cfg),
        canonical_config_text(&reordered),
        "builder order changed the canonical text for {:?}",
        spec
    );
    let filled = build_default_filled(&spec);
    prop_assert_eq!(
        canonical_config_text(&cfg),
        canonical_config_text(&filled),
        "explicit defaults changed the canonical text for {:?}",
        spec
    );
    prop_assert_eq!(key, key_of(&filled));

    // Observability invariance.
    let mut noisy = cfg.clone();
    noisy.event_trace = (seed >> 8) & 1 == 0;
    noisy.pipeview = (seed >> 9) & 1 == 0;
    noisy.paranoid = (seed >> 10) & 1 == 0;
    prop_assert_eq!(key, key_of(&noisy), "observability knobs fed the key for {:?}", spec);

    // Architectural sensitivity.
    let mut flipped = cfg.clone();
    mutate(&mut flipped, seed >> 11);
    prop_assert_ne!(
        key,
        key_of(&flipped),
        "architectural flip {} left the key unchanged for {:?}",
        (seed >> 11) % 16,
        spec
    );

    // The version string feeds the key (a simulator upgrade is a miss).
    prop_assert_ne!(
        key,
        cache_key_of_texts(PROGRAM, &canonical_config_text(&cfg), "aim-sim-other/0")
    );
    Ok(())
}

proptest! {
    // Pure hashing and Debug formatting — no simulation — so a generous
    // case count stays cheap.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn keys_are_stable_and_architecturally_sensitive(seed in any::<u64>()) {
        check_key_case(seed)?;
    }
}

/// Replays every seed recorded in the sibling `.proptest-regressions`
/// file (standard proptest format, parsed as in the `aim-bench` sweep
/// tests).
#[test]
fn regression_seeds_stay_green() {
    let recorded = include_str!("key.proptest-regressions");
    let mut replayed = 0;
    for line in recorded.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed: u64 = line
            .split("seed = ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed regression line: {line}"));
        check_key_case(seed).unwrap_or_else(|e| panic!("regression seed {seed}: {e}"));
        replayed += 1;
    }
    assert!(replayed >= 4, "regression file lost its seeds");
}
