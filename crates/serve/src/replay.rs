//! The cold/warm replay driver behind the `aim-sim serve --replay` gate.
//!
//! Replays the committed `table_hostperf` request matrix — every kernel
//! in the registry × every backend on both machine classes — through a
//! fresh in-process server several times over real framed connections
//! (the in-memory [`duplex`] transport, byte-compatible with the socket
//! path). Round 0 runs against an empty cache and must simulate every
//! cell; each warm round must be answered **entirely** from the cache,
//! running zero simulations, and must return byte-identical statistics
//! texts cell for cell. An optional trailing verify round recomputes
//! every cell and requires every byte-comparison to report `match`.
//!
//! The driver returns a [`ServeReport`] (`aim-serve-report/v1`) plus the
//! consistency verdict; the CLI prints the `serve: cache-consistent`
//! acceptance line `scripts/tier1.sh` greps.
//!
//! [`duplex`]: aim_types::wire::duplex

use crate::proto::{JobResponse, VerifyOutcome};
use crate::server::{serve_connection, Server};
use crate::sock::request_over;
use aim_bench::specs::hostperf_configs;
use aim_bench::{fingerprint_texts, ServeReport, ServeRound};
use aim_pipeline::JobSpec;
use aim_types::wire::duplex;
use aim_workloads::Scale;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Parameters of one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Workload scale.
    pub scale: Scale,
    /// Simulation worker threads.
    pub workers: usize,
    /// Concurrent client connections per round.
    pub clients: usize,
    /// Total rounds (round 0 cold, the rest warm). Must be at least 2 for
    /// the warm checks to mean anything.
    pub rounds: usize,
    /// Append a verify round recomputing every cell.
    pub verify: bool,
    /// Cache directory (reused across rounds; start it empty for a true
    /// cold round).
    pub cache_dir: PathBuf,
}

/// What a replay run concluded.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The accounting report (`aim-serve-report/v1`).
    pub report: ServeReport,
    /// Whether every consistency check passed: warm rounds byte-identical
    /// to cold with zero simulations, and (if requested) every verify
    /// comparison a `match`.
    pub consistent: bool,
    /// The matrix statistics fingerprint (identical across rounds when
    /// consistent).
    pub fingerprint: u64,
    /// Human-readable findings, one line per failed check (empty when
    /// consistent).
    pub findings: Vec<String>,
}

/// Runs one round of `cells` through `clients` framed in-memory
/// connections against a shared local server; returns the responses in
/// cell order. This is the transport the replay gate's rounds submit
/// their matrices through.
///
/// # Errors
///
/// Returns a one-line message for protocol or transport failures.
pub fn run_cells(
    server: &Arc<Server>,
    cells: &[JobSpec],
    clients: usize,
    verify: bool,
) -> Result<Vec<JobResponse>, String> {
    let clients = clients.clamp(1, cells.len().max(1));
    let mut client_threads = Vec::new();
    let mut server_threads = Vec::new();
    for c in 0..clients {
        let (mut client_end, server_end) = duplex();
        let shard: Vec<(usize, JobSpec)> = cells
            .iter()
            .enumerate()
            .filter(|(i, _)| i % clients == c)
            .map(|(i, s)| (i, s.clone()))
            .collect();
        {
            let server = Arc::clone(server);
            server_threads.push(std::thread::spawn(move || {
                let _ = serve_connection(&server, server_end);
            }));
        }
        client_threads.push(std::thread::spawn(move || {
            let mut out = Vec::with_capacity(shard.len());
            for (i, spec) in shard {
                let reply = request_over(&mut client_end, &spec.to_wire(verify, false))
                    .map_err(|e| format!("cell {i}: {e}"))?;
                out.push((
                    i,
                    JobResponse::from_wire(&reply).map_err(|e| format!("cell {i}: {e}"))?,
                ));
            }
            Ok::<_, String>(out)
        }));
    }
    let mut indexed = Vec::with_capacity(cells.len());
    for thread in client_threads {
        indexed.extend(thread.join().expect("client thread")?);
    }
    for thread in server_threads {
        thread.join().expect("server thread");
    }
    indexed.sort_by_key(|(i, _)| *i);
    Ok(indexed.into_iter().map(|(_, r)| r).collect())
}

/// Replays the hostperf matrix per [`ReplayOptions`].
///
/// # Errors
///
/// Returns a one-line message for server construction or protocol
/// failures (an inconsistent-but-functioning cache is reported through
/// [`ReplayOutcome::consistent`], not as an error).
pub fn run_replay(opts: &ReplayOptions) -> Result<ReplayOutcome, String> {
    let server = Arc::new(
        Server::new(&opts.cache_dir, opts.workers).map_err(|e| format!("cache dir: {e}"))?,
    );
    let cells: Vec<JobSpec> = aim_workloads::names()
        .iter()
        .flat_map(|kernel| {
            hostperf_configs()
                .into_iter()
                .map(|(_, cfg)| cfg.job(kernel, opts.scale))
        })
        .collect();

    let mut findings = Vec::new();
    let mut rounds = Vec::new();
    let mut cold_texts: Vec<String> = Vec::new();
    let mut cold_wall = 0.0f64;
    let mut slowest_warm = 0.0f64;

    for round in 0..opts.rounds.max(1) {
        let before = server.counters();
        let t0 = Instant::now();
        let responses = run_cells(&server, &cells, opts.clients, false)?;
        let wall = t0.elapsed().as_secs_f64();
        let after = server.counters();
        let label = if round == 0 {
            "cold".to_string()
        } else {
            format!("warm{round}")
        };
        let sims = after.sims_run - before.sims_run;
        let hits = after.cache_hits - before.cache_hits;
        let texts: Vec<String> = responses.into_iter().map(|r| r.stats_text).collect();
        if round == 0 {
            cold_texts = texts;
            cold_wall = wall;
            if sims as usize != cells.len() {
                findings.push(format!(
                    "cold round ran {sims} simulations for {} unique cells",
                    cells.len()
                ));
            }
        } else {
            slowest_warm = slowest_warm.max(wall);
            if sims != 0 {
                findings.push(format!("{label}: {sims} simulations ran on a warm cache"));
            }
            if hits as usize != cells.len() {
                findings.push(format!(
                    "{label}: {hits} cache hits for {} requests",
                    cells.len()
                ));
            }
            let diverging = texts
                .iter()
                .zip(&cold_texts)
                .filter(|(w, c)| w != c)
                .count();
            if diverging != 0 {
                findings.push(format!(
                    "{label}: {diverging} cells differ byte-wise from the cold round"
                ));
            }
        }
        rounds.push(ServeRound {
            label,
            cells: cells.len() as u64,
            wall_seconds: wall,
            sims_run: sims,
            cache_hits: hits,
        });
    }

    if opts.verify {
        let before = server.counters();
        let t0 = Instant::now();
        let responses = run_cells(&server, &cells, opts.clients, true)?;
        let wall = t0.elapsed().as_secs_f64();
        let after = server.counters();
        let mismatched = responses
            .iter()
            .filter(|r| r.verify != Some(VerifyOutcome::Match))
            .count();
        if mismatched != 0 {
            findings.push(format!(
                "verify: {mismatched} cells did not re-simulate to a byte-identical entry"
            ));
        }
        rounds.push(ServeRound {
            label: "verify".to_string(),
            cells: cells.len() as u64,
            wall_seconds: wall,
            sims_run: after.sims_run - before.sims_run,
            cache_hits: after.cache_hits - before.cache_hits,
        });
    }

    let fingerprint = fingerprint_texts(cold_texts.iter().map(String::as_str));
    let c = server.counters();
    let report = ServeReport {
        scale: opts.scale,
        workers: server.workers(),
        clients: opts.clients,
        requests: c.requests,
        cache_hits: c.cache_hits,
        cache_misses: c.cache_misses,
        dedup_waits: c.dedup_waits,
        sims_run: c.sims_run,
        corrupt_evictions: c.corrupt_evictions,
        verified: c.verified,
        verify_mismatches: c.verify_mismatches,
        worker_utilization: server.worker_utilization(),
        warm_speedup: if slowest_warm > 0.0 {
            cold_wall / slowest_warm
        } else {
            0.0
        },
        rounds,
    };
    Ok(ReplayOutcome {
        consistent: findings.is_empty(),
        report,
        fingerprint,
        findings,
    })
}
