//! The cache's correctness anchor: cached ≡ recomputed, byte for byte.
//!
//! Runs **every committed kernel × every `table_hostperf` configuration**,
//! plus one sampled cell per kernel (the tuned policy over its trace on
//! the huge/far-800 SFC/MDT cell) and every far-tier cell on one kernel,
//! at tiny scale through one server three times:
//!
//! 1. **cold** — empty cache; every cell must simulate (`source: sim`)
//!    under a key of its own, so a sampled cell never shares its
//!    full-detail twin's entry;
//! 2. **warm** — every cell must come back from disk (`source: cache`)
//!    with a byte-identical statistics text and fingerprint, and the
//!    server must run **zero** simulations for the whole pass;
//! 3. **verify** — every cell recomputes and must byte-match its cached
//!    entry (`verify: match`, `verify_mismatches == 0`).
//!
//! A sample of cells is additionally cross-checked against a direct
//! `aim_bench::run` outside the server, so the server's canonical text is
//! anchored to the harness the `aim-bench` artifacts use — the same
//! fingerprint idiom `BENCH_hostperf.json` gates on.

use aim_bench::{
    cache_key_of_texts, canonical_config_text, fingerprint_stats, fingerprint_text, program_text,
    CODE_VERSION,
};
use aim_serve::{
    farmem_configs, hostperf_configs, sampled_policy, ConfigSpec, JobSpec, Server, Source,
    VerifyOutcome,
};
use aim_workloads::Scale;
use std::collections::HashSet;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aim_serve_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn prepare(kernel: &str) -> aim_bench::Prepared {
    aim_bench::prepare(
        aim_workloads::by_name(kernel, Scale::Tiny).unwrap(),
        Scale::Tiny,
    )
}

/// The kernel the cold/warm/verify passes run the far-tier cells on: a far
/// cell (a 1024- or 4096-entry window, hundreds of cycles per miss) costs
/// most of a second per simulation in a debug build, so one kernel carries
/// them. `art` drives the far tier past its MSHR bound.
const FAR_KERNEL: &str = "art";

/// The huge/far-800 SFC/MDT cell under the tuned sampling policy for the
/// kernel whose tiny trace is `prepared`: the `sampled` artifact's cell,
/// whose full-detail twin is a far-tier cell.
fn sampled_config(prepared: &aim_bench::Prepared) -> (String, ConfigSpec) {
    let (name, full) = farmem_configs()
        .into_iter()
        .find(|(name, _)| name == "huge-far800-sfc-mdt")
        .expect("the far-tier matrix has a huge-far800 SFC/MDT cell");
    let sample = Some(sampled_policy(prepared.trace.len() as u64));
    (format!("{name}-sampled"), ConfigSpec { sample, ..full })
}

/// Every kernel's `table_hostperf` cells and sampled cell, and the
/// far-tier cells of [`FAR_KERNEL`], labelled `kernel/config`.
fn all_cells() -> Vec<(String, JobSpec)> {
    let mut cells = Vec::new();
    for kernel in aim_workloads::names() {
        let mut configs = hostperf_configs();
        if kernel == FAR_KERNEL {
            configs.extend(farmem_configs());
        }
        configs.push(sampled_config(&prepare(kernel)));
        cells.extend(
            configs
                .into_iter()
                .map(|(name, cfg)| (format!("{kernel}/{name}"), cfg.job(kernel, Scale::Tiny))),
        );
    }
    cells
}

#[test]
fn cold_warm_verify_are_byte_identical_with_zero_warm_sims() {
    let dir = temp_dir("cold_warm_verify");
    let server = Server::new(&dir, 4).unwrap();
    let cells = all_cells();

    // Cold: every cell simulates.
    let mut cold = Vec::with_capacity(cells.len());
    for (label, spec) in &cells {
        let resp = server.submit(spec, false, false).unwrap();
        assert_eq!(
            resp.source,
            Source::Sim,
            "{label}: cold request did not simulate"
        );
        assert!(
            resp.cycles > 0 && resp.retired > 0,
            "{label}: empty statistics"
        );
        assert_eq!(
            resp.fingerprint,
            fingerprint_text(&resp.stats_text),
            "{label}: fingerprint is not the text's FNV"
        );
        cold.push(resp);
    }
    let keys: HashSet<&str> = cold.iter().map(|resp| resp.key.as_str()).collect();
    assert_eq!(keys.len(), cells.len(), "two cells share a cache key");
    let after_cold = server.counters();
    assert_eq!(after_cold.sims_run as usize, cells.len());
    assert_eq!(after_cold.cache_misses as usize, cells.len());
    assert_eq!(after_cold.cache_hits, 0);

    // Warm: zero simulations, byte-identical answers.
    for ((label, spec), cold_resp) in cells.iter().zip(&cold) {
        let resp = server.submit(spec, false, false).unwrap();
        assert_eq!(
            resp.source,
            Source::Cache,
            "{label}: warm request was not a cache hit"
        );
        assert_eq!(
            resp.key, cold_resp.key,
            "{label}: key drifted between rounds"
        );
        assert_eq!(
            resp.stats_text, cold_resp.stats_text,
            "{label}: warm statistics differ byte-wise from cold"
        );
        assert_eq!(
            resp.fingerprint, cold_resp.fingerprint,
            "{label}: fingerprint drifted"
        );
        assert_eq!(
            (resp.cycles, resp.retired),
            (cold_resp.cycles, cold_resp.retired)
        );
    }
    let after_warm = server.counters();
    assert_eq!(
        after_warm.sims_run, after_cold.sims_run,
        "a warm pass ran simulations"
    );
    assert_eq!(after_warm.cache_hits as usize, cells.len());

    // Verify: every recomputation byte-matches its cached entry.
    for ((label, spec), cold_resp) in cells.iter().zip(&cold) {
        let resp = server.submit(spec, true, false).unwrap();
        assert_eq!(
            resp.verify,
            Some(VerifyOutcome::Match),
            "{label}: verify did not reproduce the cached bytes"
        );
        assert_eq!(
            resp.stats_text, cold_resp.stats_text,
            "{label}: verify text drifted"
        );
    }
    let after_verify = server.counters();
    assert_eq!(after_verify.verify_mismatches, 0);
    assert_eq!(after_verify.verified as usize, cells.len());
    assert_eq!(
        after_verify.sims_run as usize,
        2 * cells.len(),
        "verify must re-simulate every cell exactly once"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_statistics_match_the_direct_harness_byte_for_byte() {
    let dir = temp_dir("direct_anchor");
    let server = Server::new(&dir, 2).unwrap();
    // A dense-traffic sample: two int kernels and one fp kernel across
    // every served configuration.
    for kernel in ["gzip", "mcf", "swim"] {
        let prepared = prepare(kernel);
        let configs = hostperf_configs()
            .into_iter()
            .chain(farmem_configs())
            .chain([sampled_config(&prepared)]);
        for (name, cfg_spec) in configs {
            let spec = cfg_spec.job(kernel, Scale::Tiny);
            let resp = server.submit(&spec, false, false).unwrap();
            let direct = aim_bench::run(&prepared, &cfg_spec.to_config());
            let direct_text = format!("{:?}", direct.with_zeroed_host());
            assert_eq!(
                resp.stats_text, direct_text,
                "{kernel}/{name}: server text diverges from aim_bench::run"
            );
            assert_eq!(
                resp.fingerprint,
                fingerprint_stats(std::iter::once(&direct))
            );
            assert_eq!((resp.cycles, resp.retired), (direct.cycles, direct.retired));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn code_version_bump_invalidates_without_false_hits() {
    let dir = temp_dir("version_bump");
    let spec = hostperf_configs()[0].1.job("gzip", Scale::Tiny);

    let v1 = Server::with_code_version(&dir, 1, "aim-sim-test/1").unwrap();
    let first = v1.submit(&spec, false, false).unwrap();
    assert_eq!(first.source, Source::Sim);
    assert_eq!(
        v1.submit(&spec, false, false).unwrap().source,
        Source::Cache
    );

    // A new code version on the same directory must miss (stale entries
    // are simply never found)...
    let v2 = Server::with_code_version(&dir, 1, "aim-sim-test/2").unwrap();
    let bumped = v2.submit(&spec, false, false).unwrap();
    assert_eq!(
        bumped.source,
        Source::Sim,
        "version bump must not reuse old entries"
    );
    assert_ne!(bumped.key, first.key);

    // ...while the original version's entry is still intact beside it.
    let v1_again = Server::with_code_version(&dir, 1, "aim-sim-test/1").unwrap();
    assert_eq!(
        v1_again.submit(&spec, false, false).unwrap().source,
        Source::Cache
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn no_cache_recomputes_but_refreshes_the_entry() {
    let dir = temp_dir("no_cache");
    let server = Server::new(&dir, 1).unwrap();
    let spec = hostperf_configs()[2].1.job("crafty", Scale::Tiny);

    let cold = server.submit(&spec, false, false).unwrap();
    let forced = server.submit(&spec, false, true).unwrap();
    assert_eq!(forced.source, Source::Sim, "no_cache must bypass the cache");
    assert_eq!(
        forced.stats_text, cold.stats_text,
        "recomputation must be deterministic"
    );
    assert_eq!(server.counters().sims_run, 2);
    // The refreshed entry still serves warm requests.
    assert_eq!(
        server.submit(&spec, false, false).unwrap().source,
        Source::Cache
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The server keys a request from its memoized program prefix; every
/// `hostperf_configs` and `farmem_configs` cell must get the key the full
/// key text hashes to.
#[test]
fn memoized_prefix_keys_equal_full_text_keys() {
    let dir = temp_dir("prefix_keys");
    let server = Server::new(&dir, 1).unwrap();
    let configs: Vec<_> = hostperf_configs()
        .into_iter()
        .chain(farmem_configs())
        .collect();
    for kernel in aim_workloads::names() {
        let ptext = program_text(&aim_workloads::by_name(kernel, Scale::Tiny).unwrap().program);
        for (name, cfg) in &configs {
            let ctext = canonical_config_text(&cfg.to_config());
            assert_eq!(
                server.key_of(&cfg.job(kernel, Scale::Tiny)).unwrap(),
                cache_key_of_texts(&ptext, &ctext, CODE_VERSION),
                "{kernel}/{name}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
