//! Concurrency and robustness: single-flight under racing clients,
//! corruption recovery at the server level, verify-as-repair, and the
//! wire layer's error replies.

use aim_bench::fingerprint_text;
use aim_pipeline::{BackendChoice, MachineClass};
use aim_serve::{
    hostperf_configs, serve_connection, CacheEntry, ConfigSpec, DiskCache, JobResponse, JobSpec,
    Server, Source, VerifyOutcome,
};
use aim_types::wire::{duplex, read_frame, write_frame, WireMsg};
use aim_workloads::Scale;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aim_serve_srv_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec(config_index: usize, kernel: &str) -> JobSpec {
    hostperf_configs()[config_index].1.job(kernel, Scale::Tiny)
}

/// N threads racing duplicate requests: each *unique* job simulates
/// exactly once; duplicates are answered by the cache or by parking on
/// the in-flight leader, never by a second simulation.
#[test]
fn racing_duplicates_simulate_each_unique_job_once() {
    const THREADS: usize = 4;
    let dir = temp_dir("single_flight");
    let server = Arc::new(Server::new(&dir, 4).unwrap());
    let specs: Vec<JobSpec> = ["gzip", "mcf", "vpr_place", "twolf"]
        .iter()
        .map(|k| spec(0, k))
        .collect();
    let barrier = Arc::new(Barrier::new(THREADS * specs.len()));

    let handles: Vec<_> = (0..THREADS)
        .flat_map(|_| specs.clone())
        .map(|job| {
            let server = Arc::clone(&server);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                server.submit(&job, false, false).unwrap()
            })
        })
        .collect();
    let responses: Vec<JobResponse> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // All duplicates of a key agree byte-wise regardless of which path
    // (sim, dedup wait, or cache) answered them.
    for job in &specs {
        let key = server.key_of(job).unwrap().hex();
        let texts: Vec<&String> = responses
            .iter()
            .filter(|r| r.key == key)
            .map(|r| &r.stats_text)
            .collect();
        assert_eq!(texts.len(), THREADS);
        assert!(
            texts.windows(2).all(|w| w[0] == w[1]),
            "racing answers diverged for {key}"
        );
    }

    let c = server.counters();
    assert_eq!(
        c.sims_run as usize,
        specs.len(),
        "a duplicate request re-simulated"
    );
    assert_eq!(c.requests as usize, THREADS * specs.len());
    // Every request either hit the cache or missed; a missing request
    // either led the simulation or parked as a dedup waiter, so the
    // waiter count is exactly the misses beyond the four leaders.
    assert_eq!(
        (c.cache_hits + c.cache_misses) as usize,
        THREADS * specs.len()
    );
    assert_eq!(c.dedup_waits, c.cache_misses - specs.len() as u64);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted entry under the server: detected by checksum, evicted,
/// recomputed — and the recomputation matches the original bytes.
#[test]
fn corrupt_entries_are_evicted_and_recomputed() {
    let dir = temp_dir("corrupt");
    let server = Server::new(&dir, 2).unwrap();
    let job = spec(1, "gzip");

    let cold = server.submit(&job, false, false).unwrap();
    assert_eq!(cold.source, Source::Sim);

    // Flip a payload byte behind the server's back.
    let cache = DiskCache::open(&dir).unwrap();
    let path = cache.entry_path(server.key_of(&job).unwrap());
    let text = std::fs::read_to_string(&path).unwrap();
    let tampered = text.replacen("cycles: ", "cycles:  ", 1);
    assert_ne!(text, tampered, "tamper target not found in entry payload");
    std::fs::write(&path, tampered).unwrap();

    let recovered = server.submit(&job, false, false).unwrap();
    assert_eq!(
        recovered.source,
        Source::Sim,
        "corrupt entry must force recomputation"
    );
    assert_eq!(
        recovered.stats_text, cold.stats_text,
        "recovery changed the answer"
    );
    let c = server.counters();
    assert_eq!(c.corrupt_evictions, 1);
    assert_eq!(c.sims_run, 2);

    // The repaired entry serves warm again.
    assert_eq!(
        server.submit(&job, false, false).unwrap().source,
        Source::Cache
    );

    // Truncation is caught the same way.
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text.as_bytes()[..text.len() / 2]).unwrap();
    let retrunc = server.submit(&job, false, false).unwrap();
    assert_eq!(retrunc.source, Source::Sim);
    assert_eq!(retrunc.stats_text, cold.stats_text);
    assert_eq!(server.counters().corrupt_evictions, 2);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A forged entry (internally consistent, wrong statistics) is the one
/// corruption a checksum cannot catch — `--verify` exists for exactly
/// this, and repairs the entry with the fresh bytes.
#[test]
fn verify_flags_and_repairs_a_forged_entry() {
    let dir = temp_dir("forged");
    let server = Server::new(&dir, 2).unwrap();
    let job = spec(3, "gzip");

    let honest = server.submit(&job, false, false).unwrap();
    let forged = CacheEntry {
        cycles: honest.cycles + 1,
        retired: honest.retired,
        stats_text: honest.stats_text.replacen("cycles: ", "cycles: 1", 1),
    };
    assert_ne!(forged.stats_text, honest.stats_text);
    let cache = DiskCache::open(&dir).unwrap();
    cache.store(server.key_of(&job).unwrap(), &forged).unwrap();

    // A plain warm request happily serves the forgery (checksum is valid)…
    let duped = server.submit(&job, false, false).unwrap();
    assert_eq!(duped.source, Source::Cache);
    assert_eq!(duped.stats_text, forged.stats_text);

    // …verify catches and repairs it.
    let verified = server.submit(&job, true, false).unwrap();
    assert_eq!(verified.verify, Some(VerifyOutcome::Mismatch));
    assert_eq!(
        verified.stats_text, honest.stats_text,
        "verify must answer with fresh bytes"
    );
    let c = server.counters();
    assert_eq!(c.verify_mismatches, 1);
    assert_eq!(c.verified, 1);

    // Repaired: warm again, and a second verify now matches.
    let warm = server.submit(&job, false, false).unwrap();
    assert_eq!(
        (warm.source, warm.stats_text.as_str()),
        (Source::Cache, honest.stats_text.as_str())
    );
    assert_eq!(
        server.submit(&job, true, false).unwrap().verify,
        Some(VerifyOutcome::Match)
    );
    assert_eq!(
        server.counters().verify_mismatches,
        1,
        "a repaired entry must verify clean"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Malformed requests get one-line `ok: false` replies, and the
/// connection survives them.
#[test]
fn wire_errors_are_actionable_and_non_fatal() {
    let dir = temp_dir("wire_errors");
    let server = Arc::new(Server::new(&dir, 1).unwrap());
    let (mut client, server_end) = duplex();
    let srv = Arc::clone(&server);
    let handler = std::thread::spawn(move || serve_connection(&srv, server_end));

    let mut run = |msg: &WireMsg| {
        write_frame(&mut client, msg.to_json().as_bytes()).unwrap();
        let frame = read_frame(&mut client).unwrap().expect("server hung up");
        WireMsg::parse(std::str::from_utf8(&frame).unwrap()).unwrap()
    };

    // Unknown kernel.
    let mut bad = spec(0, "gzip");
    bad.kernel = "no-such-kernel".to_string();
    let reply = run(&bad.to_wire(false, false));
    assert_eq!(reply.bool_field("ok"), Some(false));
    let err = reply.str_field("err").unwrap();
    assert!(
        err.contains("no-such-kernel"),
        "error does not name the kernel: {err}"
    );

    // Unknown op.
    let mut msg = WireMsg::new();
    msg.put_str("op", "frobnicate");
    let reply = run(&msg);
    assert_eq!(reply.bool_field("ok"), Some(false));
    assert!(reply.str_field("err").unwrap().contains("frobnicate"));

    // Missing op.
    let reply = run(&WireMsg::new());
    assert_eq!(reply.bool_field("ok"), Some(false));
    assert!(reply.str_field("err").unwrap().contains("op"));

    // The connection still serves a real job after three bad requests…
    let reply = run(&spec(0, "gzip").to_wire(false, false));
    assert_eq!(reply.bool_field("ok"), Some(true));
    assert_eq!(reply.str_field("source"), Some("sim"));
    let fp = reply.str_field("fingerprint").unwrap().to_string();
    let text = reply.str_field("stats").unwrap().to_string();
    let parsed = u64::from_str_radix(fp.trim_start_matches("0x"), 16).unwrap();
    assert_eq!(parsed, fingerprint_text(&text));

    // …and stats + shutdown close it down cleanly.
    let mut msg = WireMsg::new();
    msg.put_str("op", "stats");
    let reply = run(&msg);
    assert_eq!(reply.u64_field("sims_run"), Some(1));
    let mut msg = WireMsg::new();
    msg.put_str("op", "shutdown");
    let reply = run(&msg);
    assert_eq!(reply.bool_field("ok"), Some(true));
    drop(client);
    handler.join().unwrap().unwrap();
    assert!(server.is_shutdown());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A job whose simulation panics (here a hand-built spec the wire decoder
/// would reject, so it reaches the pool) must not wedge the server: the
/// leader and a racing duplicate both get the typed error within a bounded
/// wait, a resubmission errors again instead of parking on a stale
/// in-flight slot, and the lone worker still serves a valid request.
#[test]
fn a_panicking_job_errors_every_waiter_and_the_pool_survives() {
    let dir = temp_dir("panicking_job");
    let server = Arc::new(Server::new(&dir, 1).unwrap());
    let bad = ConfigSpec {
        pcax_act: Some(9),
        ..ConfigSpec::new(MachineClass::Baseline, BackendChoice::Pcax)
    }
    .job("gzip", Scale::Tiny);
    let submit_racing = |clients: usize| {
        let (tx, rx) = mpsc::channel();
        for _ in 0..clients {
            let (server, bad, tx) = (Arc::clone(&server), bad.clone(), tx.clone());
            std::thread::spawn(move || tx.send(server.submit(&bad, false, false)));
        }
        for _ in 0..clients {
            let reply = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a client got no reply to a panicking job");
            let err = reply.expect_err("a panicking job must not succeed");
            assert!(err.starts_with("simulation panicked: "), "{err}");
            assert!(err.contains("no_alias_act"), "{err}");
        }
    };
    submit_racing(2);
    submit_racing(1);
    let ok = server
        .submit(&spec(0, "gzip"), false, false)
        .expect("the pool survived");
    assert_eq!(ok.source, Source::Sim);
    let _ = std::fs::remove_dir_all(&dir);
}
