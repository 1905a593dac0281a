//! Content-addressed cache keys for memoized simulation results.
//!
//! The paper's argument — replace associative search with address-indexed
//! lookup — applies one level up: the `aim-serve` job server replaces
//! *re-simulation* with a hash-indexed result store. A cached `SimStats`
//! may silently stand in for a real simulation, so the key must change
//! whenever the simulation's output could, and only then:
//!
//! * **kernel bytes** — the full program (instruction stream, initial data
//!   image, code base), so a workload edit or a different [`Scale`]
//!   invalidates its entries;
//! * **canonicalized [`SimConfig`]** — every architectural knob, with the
//!   integrity-check knob [`SimConfig::paranoid`] normalized away: it
//!   changes what the host checks, never what the machine computes (the
//!   `table_hostperf` fingerprint gate relies on the same fact);
//! * **code-version string** — [`CODE_VERSION`], bumped whenever a change
//!   anywhere in the simulator can alter any statistic. The stats
//!   fingerprint in `BENCH_hostperf.json` changes on exactly those
//!   commits, which is the review cue to bump this constant.
//!
//! Two configurations that build identical [`SimConfig`] values — builder
//! calls in a different order, defaults filled explicitly — render the
//! same canonical text and therefore the same key; the
//! `crates/serve/tests/key.rs` property test pins both directions.
//!
//! [`Scale`]: aim_workloads::Scale

use aim_isa::Program;
use aim_pipeline::SimConfig;
use core::fmt;

/// The cache's code-version string. Bump on any change that can alter any
/// architectural statistic anywhere in the simulator: the same commits
/// that change the `table_hostperf` stats fingerprint, which
/// `scripts/tier1.sh` pins. Stale entries are then simply never found,
/// which is the only safe failure mode.
pub const CODE_VERSION: &str = "aim-sim-2026-08/1";

/// A 128-bit content address: two independent FNV-1a streams over the same
/// key text. One 64-bit hash leaves accidental collisions plausible over
/// the life of a busy cache directory; two independent ones make them
/// astronomically unlikely while staying dependency-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub [u64; 2]);

impl CacheKey {
    /// The 32-hex-digit rendering used as the on-disk entry file name.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.0[0], self.0[1])
    }
}

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.hex())
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Salt mixed into the second stream's offset basis so the two 64-bit
/// halves are independent functions of the same text.
const SECOND_STREAM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a over `bytes`, continuing from `hash`.
pub(crate) fn fnv1a(mut hash: u64, bytes: impl Iterator<Item = u8>) -> u64 {
    for byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The canonical text of a program: its full `Debug` rendering, which
/// covers the instruction stream, every initial-data region, and the code
/// base. Byte-stable for a fixed program within one code version, and any
/// change to any instruction or data byte changes it.
pub fn program_text(program: &Program) -> String {
    format!("{program:?}")
}

/// The canonical text of a configuration: the `Debug` rendering of the
/// config with [`SimConfig::paranoid`] normalized to its default.
/// Everything else — machine width and window, backend family and every
/// structure geometry, predictor mode, cache hierarchy, recovery policies,
/// seeds, instruction budget — stays in the text, so flipping any of them
/// changes the key.
pub fn canonical_config_text(cfg: &SimConfig) -> String {
    let mut canon = cfg.clone();
    canon.paranoid = false;
    format!("{canon:?}")
}

/// Derives the content address of one (program, config) simulation under
/// `code_version` (pass [`CODE_VERSION`] outside of tests).
pub fn cache_key(program: &Program, cfg: &SimConfig, code_version: &str) -> CacheKey {
    cache_key_of_texts(
        &program_text(program),
        &canonical_config_text(cfg),
        code_version,
    )
}

/// [`cache_key`] over already-rendered canonical texts.
pub fn cache_key_of_texts(program_text: &str, config_text: &str, code_version: &str) -> CacheKey {
    KeyPrefix::new(program_text, code_version).key(config_text)
}

/// The two hash streams after `code_version ‖ 0 ‖ program_text ‖ 0`: every
/// key of one (program, code version) continues from here over the config
/// text alone, so a server hashes each program once, not once per request.
#[derive(Debug, Clone, Copy)]
pub struct KeyPrefix([u64; 2]);

impl KeyPrefix {
    /// Hashes the key text up to the config.
    pub fn new(program_text: &str, code_version: &str) -> KeyPrefix {
        let feed = |offset: u64| {
            let h = fnv1a(offset, code_version.bytes());
            let h = fnv1a(h, [0u8].into_iter());
            let h = fnv1a(h, program_text.bytes());
            fnv1a(h, [0u8].into_iter())
        };
        KeyPrefix([feed(FNV_OFFSET), feed(FNV_OFFSET ^ SECOND_STREAM_SALT)])
    }

    /// The key of this prefix followed by `config_text`.
    pub fn key(&self, config_text: &str) -> CacheKey {
        CacheKey(self.0.map(|h| fnv1a(h, config_text.bytes())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_pipeline::{BackendChoice, MachineClass};
    use aim_workloads::Scale;

    fn program(name: &str, scale: Scale) -> Program {
        aim_workloads::by_name(name, scale).unwrap().program
    }

    #[test]
    fn key_is_deterministic_and_hex_renders_128_bits() {
        let p = program("gzip", Scale::Tiny);
        let cfg = SimConfig::machine(MachineClass::Baseline).build();
        let a = cache_key(&p, &cfg, CODE_VERSION);
        let b = cache_key(&p, &cfg, CODE_VERSION);
        assert_eq!(a, b);
        assert_eq!(a.hex().len(), 32);
        assert_eq!(a.to_string(), a.hex());
        assert!(a.hex().chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn kernel_config_and_version_all_feed_the_key() {
        let p = program("gzip", Scale::Tiny);
        let cfg = SimConfig::machine(MachineClass::Baseline).build();
        let base = cache_key(&p, &cfg, CODE_VERSION);
        assert_ne!(
            base,
            cache_key(&program("mcf", Scale::Tiny), &cfg, CODE_VERSION)
        );
        assert_ne!(
            base,
            cache_key(&program("gzip", Scale::Small), &cfg, CODE_VERSION)
        );
        let lsq = SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::Lsq)
            .build();
        assert_ne!(base, cache_key(&p, &lsq, CODE_VERSION));
        assert_ne!(base, cache_key(&p, &cfg, "aim-sim-alt/99"));
    }

    #[test]
    fn paranoid_checks_do_not_feed_the_key() {
        let p = program("gzip", Scale::Tiny);
        let plain = SimConfig::machine(MachineClass::Baseline).build();
        let mut noisy = plain.clone();
        noisy.paranoid = true;
        assert_eq!(canonical_config_text(&plain), canonical_config_text(&noisy));
        assert_eq!(
            cache_key(&p, &plain, CODE_VERSION),
            cache_key(&p, &noisy, CODE_VERSION)
        );
    }

    /// Keys recorded before the program prefix was memoized: the split
    /// must not move a single bit.
    #[test]
    fn key_bytes_are_pinned() {
        assert_eq!(
            cache_key_of_texts("ab", "c", "v"),
            CacheKey([13_049_424_068_381_677_133, 10_214_625_284_772_107_716])
        );
    }

    #[test]
    fn field_separators_prevent_boundary_aliasing() {
        // Moving a byte across the program/config boundary must not alias.
        let a = cache_key_of_texts("ab", "c", "v");
        let b = cache_key_of_texts("a", "bc", "v");
        assert_ne!(a, b);
        let a = cache_key_of_texts("p", "c", "vx");
        let b = cache_key_of_texts("xp", "c", "v");
        assert_ne!(a, b);
    }
}
