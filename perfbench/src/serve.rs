//! The `serve` workload: one `Server` with [`SERVER_WORKERS`] simulation
//! thread and [`workers`] closed-loop client connections over the framed
//! in-memory transport.
//!
//! The setup opens a server over an empty cache and pre-warms it with the
//! tiny `table_hostperf` cells; that server serves the stream. The setup
//! is timed again on fresh servers after the stream, [`SETUP_REPS`] times
//! in all. The measured stream runs in rounds shaped like the repo's own
//! serve drivers (`run_replay`, `table_far_mem`, `table_sampled`): a cold
//! pass that submits every tiny `table_far_mem` cell once (first-touch
//! misses), then a warm pass that submits the same cells again (hits), so
//! a round sends one hit per miss. A few cold cells go to every client at
//! once, behind a barrier, so single-flight dedup folds them. After each
//! round the benchmark evicts the round's entries, so the next round's
//! cold pass misses again.

use crate::inproc::put_self_times;
use crate::trace::{self, Span, Tracer};
use crate::{
    another_pass, guarded, median, out_dir, peak_rss_mb, quantile, ratio, workers, Args, Outcome,
    Rng,
};
use aim_bench::{
    cache_key_of_texts, canonical_config_text, fingerprint_stats, program_text, CacheKey,
    CODE_VERSION,
};
use aim_serve::{
    farmem_configs, hostperf_configs, request_over, run_cells, serve_connection, CacheEntry,
    CounterSnapshot, DiskCache, JobResponse, JobSpec, Lookup, Server, Source,
};
use aim_types::wire::{duplex, WireMsg};
use aim_workloads::Scale;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// How big a run's request streams are.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// How many kernels of the registry, in registry order.
    pub kernels: usize,
    /// Cold-pass cells every client sends at once per round.
    pub shared: usize,
    /// Served cells cross-checked against in-process runs per run.
    pub cross_checks: usize,
    /// Stream requests whose layers the traced run times one by one.
    pub probes: usize,
}

impl Size {
    pub const FULL: Size = Size {
        kernels: usize::MAX,
        shared: 8,
        cross_checks: 8,
        probes: 200,
    };
}

/// Every served cell is a tiny-scale kernel.
const SCALE: Scale = Scale::Tiny;

/// Times the setup is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Simulation threads of the server. One: with two, the two simulations
/// running at once on a host of a few shared cores slowed each other by an
/// amount that changed from run to run, as they did on the in-process
/// workloads. The [`workers`] clients still keep a request queued behind
/// the running one, and still send the shared misses at once.
const SERVER_WORKERS: usize = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A warm-pass request for a cell the cold pass created.
    Hit,
    /// A cold-pass request one client sends alone.
    Miss,
    /// A cold-pass request every client sends at once.
    Shared,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    kind: Kind,
    /// Index into the miss pool.
    cell: usize,
}

/// One answered (or failed) request.
struct Record {
    id: u64,
    req: Req,
    secs: f64,
    reply: Result<JobResponse, String>,
}

/// What a round keeps of one request once its reply is checked (the
/// replies themselves are dropped, so the benchmark's own memory does not
/// grow with the number of rounds).
struct Answer {
    id: u64,
    secs: f64,
    /// `None` for a failed request.
    source: Option<Source>,
    retired: u64,
}

/// One round of the stream.
struct Round {
    traced: bool,
    wall: f64,
    answers: Vec<Answer>,
    counters: CounterSnapshot,
    utilization: f64,
    probed: Probed,
}

/// What a traced round's probe measured besides its spans.
#[derive(Debug, Default, Clone, Copy)]
struct Probed {
    hits: u64,
    program_text_bytes: u64,
    reply_bytes: u64,
}

/// Request ids carry the round, pass (0 cold, 1 warm), client and
/// position.
fn request_id(round: usize, pass: usize, client: usize, i: usize) -> u64 {
    ((round as u64) << 40) | ((pass as u64) << 36) | ((client as u64) << 32) | i as u64
}

/// Each client's cold and warm streams over a pool of `pool` cells. The
/// first `size.shared` cells of a seeded permutation go to every client,
/// at random positions in the same relative order; the rest are dealt out
/// as private misses. Each client's warm stream sends its cold cells again,
/// in another order.
fn streams(
    size: &Size,
    pool: usize,
    clients: usize,
    rng: &mut Rng,
) -> (Vec<Vec<Req>>, Vec<Vec<Req>>) {
    let mut cells: Vec<usize> = (0..pool).collect();
    rng.shuffle(&mut cells);
    let (shared, private) = cells.split_at(size.shared.min(pool));
    let cold: Vec<Vec<Req>> = (0..clients)
        .map(|c| {
            let mut reqs: Vec<Req> = private
                .iter()
                .skip(c)
                .step_by(clients)
                .map(|&cell| Req {
                    kind: Kind::Miss,
                    cell,
                })
                .collect();
            let mut positions: Vec<usize> = (0..shared.len())
                .map(|_| rng.below(reqs.len() + 1))
                .collect();
            positions.sort_unstable();
            // Inserting from the back keeps the shared misses in order.
            for (&pos, &cell) in positions.iter().zip(shared).rev() {
                reqs.insert(
                    pos,
                    Req {
                        kind: Kind::Shared,
                        cell,
                    },
                );
            }
            reqs
        })
        .collect();
    let warm = cold
        .iter()
        .map(|stream| {
            let mut reqs: Vec<Req> = stream
                .iter()
                .map(|r| Req {
                    kind: Kind::Hit,
                    cell: r.cell,
                })
                .collect();
            rng.shuffle(&mut reqs);
            reqs
        })
        .collect();
    (cold, warm)
}

/// Sends every client's stream over its own connection; returns the
/// records and the time to drain all streams.
fn drive(
    server: &Arc<Server>,
    streams: &[Vec<Req>],
    pool: &[JobSpec],
    round: usize,
    pass: usize,
    tracer: &Tracer,
) -> (f64, Vec<Record>) {
    let clients = streams.len();
    let barrier = Barrier::new(clients);
    let start = Instant::now();
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let (mut client_end, server_end) = duplex();
                scope.spawn(move || {
                    let _ = serve_connection(server, server_end);
                });
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(stream.len());
                    for (i, &req) in stream.iter().enumerate() {
                        if req.kind == Kind::Shared {
                            barrier.wait();
                        }
                        let id = request_id(round, pass, c, i);
                        let msg = pool[req.cell].to_wire(false, false);
                        let t0 = Instant::now();
                        let reply = tracer
                            .span("serve.request_over", id, || {
                                request_over(&mut client_end, &msg)
                            })
                            .map_err(|e| format!("transport: {e}"))
                            .and_then(|m| {
                                tracer.span("wire.from_wire", id, || JobResponse::from_wire(&m))
                            });
                        out.push(Record {
                            id,
                            req,
                            secs: t0.elapsed().as_secs_f64(),
                            reply,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    (start.elapsed().as_secs_f64(), records)
}

/// Checks every reply of one round: no failures, warm requests answered
/// from the cache, private cold requests simulated, no cell simulated twice
/// in the round, and every reply byte-identical to the reply that first
/// created its entry (in this round or an earlier one).
fn check(out: &mut Outcome, creators: &mut HashMap<String, String>, records: &[Record]) {
    let mut simulated = HashSet::new();
    for r in records {
        let Ok(resp) = &r.reply else { continue };
        if resp.source != Source::Sim {
            continue;
        }
        if !simulated.insert(resp.key.as_str()) {
            out.fail(&format!(
                "request {:#x}: key {} simulated twice in one round",
                r.id, resp.key
            ));
        }
        creators
            .entry(resp.key.clone())
            .or_insert_with(|| resp.stats_text.clone());
    }
    for r in records {
        out.attempted += 1;
        let resp = match &r.reply {
            Ok(resp) => resp,
            Err(e) => {
                out.fail(&format!("request {:#x}: {e}", r.id));
                continue;
            }
        };
        let expected = match r.req.kind {
            Kind::Hit => resp.source == Source::Cache,
            Kind::Miss => resp.source == Source::Sim,
            Kind::Shared => true,
        };
        if !expected {
            out.fail(&format!(
                "request {:#x}: {:?} answered from {}",
                r.id,
                r.req.kind,
                resp.source.token()
            ));
        }
        if creators.get(&resp.key) != Some(&resp.stats_text) {
            out.fail(&format!(
                "request {:#x}: {} reply differs from the reply that created {}",
                r.id,
                resp.source.token(),
                resp.key
            ));
        }
    }
}

fn diff(after: CounterSnapshot, before: CounterSnapshot) -> CounterSnapshot {
    CounterSnapshot {
        requests: after.requests - before.requests,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        dedup_waits: after.dedup_waits - before.dedup_waits,
        sims_run: after.sims_run - before.sims_run,
        corrupt_evictions: after.corrupt_evictions - before.corrupt_evictions,
        verified: after.verified - before.verified,
        verify_mismatches: after.verify_mismatches - before.verify_mismatches,
    }
}

/// Times each layer's public call on a seeded sample of the stream's
/// requests, one at a time, against the live server and its cache; returns
/// the sizes it saw. Hits time the key, the cache read, the handling and
/// the wire; misses time an in-process simulation of their cell.
#[allow(clippy::too_many_arguments)]
fn probe(
    out: &mut Outcome,
    server: &Server,
    cache_dir: &Path,
    records: &[Record],
    pool: &[JobSpec],
    n: usize,
    rng: &mut Rng,
    tracer: &Tracer,
) -> Result<Probed, String> {
    let mut probed = Probed::default();
    let cache = DiskCache::open(cache_dir).map_err(|e| format!("cache: {e}"))?;
    let store_dir = cache_dir.with_extension("probe");
    let store = DiskCache::open(&store_dir).map_err(|e| format!("probe cache: {e}"))?;
    let mut texts: HashMap<String, String> = HashMap::new();
    let mut prepared: HashMap<String, aim_bench::Prepared> = HashMap::new();
    for _ in 0..n.min(records.len()) {
        let r = &records[rng.below(records.len())];
        let Ok(resp) = &r.reply else { continue };
        let spec = &pool[r.req.cell];
        let id = r.id;
        if r.req.kind != Kind::Hit {
            out.attempted += 1;
            let simulated = guarded(|| {
                let p = prepared.entry(spec.kernel.clone()).or_insert_with(|| {
                    aim_bench::prepare(
                        aim_workloads::by_name(&spec.kernel, SCALE).expect("stream kernels exist"),
                        SCALE,
                    )
                });
                tracer.span("serve.sim", id, || {
                    aim_bench::run(p, &spec.config.to_config())
                });
            });
            if let Err(e) = simulated {
                out.fail(&format!(
                    "request {id:#x}: in-process simulation of {} panicked: {e}",
                    spec.kernel
                ));
            }
            continue;
        }
        let ptext = texts.entry(spec.kernel.clone()).or_insert_with(|| {
            program_text(
                &aim_workloads::by_name(&spec.kernel, SCALE)
                    .expect("stream kernels exist")
                    .program,
            )
        });
        let key = tracer.span("serve.key_of", id, || server.key_of(spec))?;
        let ctext = tracer.span("bench.config_text", id, || {
            canonical_config_text(&spec.config.to_config())
        });
        let own = tracer.span("bench.key_hash", id, || {
            cache_key_of_texts(ptext, &ctext, CODE_VERSION)
        });
        if own != key || key.hex() != resp.key {
            out.fail(&format!(
                "request {id:#x}: key {} does not match the served key {}",
                own.hex(),
                resp.key
            ));
        }
        let Lookup::Hit(entry) = tracer.span("serve.cache_load", id, || cache.load(key)) else {
            out.fail(&format!(
                "request {id:#x}: served hit {} is not in the cache",
                resp.key
            ));
            continue;
        };
        let msg = spec.to_wire(false, false);
        let (reply, _) = tracer.span("serve.handle", id, || server.handle(&msg));
        let handled = JobResponse::from_wire(&reply)?;
        let json = tracer.span("wire.encode", id, || handled.to_wire().to_json());
        let decoded = tracer.span("wire.decode", id, || {
            WireMsg::parse(&json).and_then(|m| JobResponse::from_wire(&m))
        })?;
        if decoded != handled || handled.stats_text != entry.stats_text {
            out.fail(&format!(
                "request {id:#x}: reply does not round-trip the cached entry"
            ));
        }
        let entry = CacheEntry {
            cycles: entry.cycles,
            retired: entry.retired,
            stats_text: entry.stats_text,
        };
        tracer
            .span("serve.cache_store", id, || store.store(key, &entry))
            .map_err(|e| format!("probe store: {e}"))?;
        probed.hits += 1;
        probed.program_text_bytes += ptext.len() as u64;
        probed.reply_bytes += json.len() as u64;
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    Ok(probed)
}

/// Opens a fresh server over an empty cache and pre-warms it with the
/// `prewarm` cells; returns the server and every entry's creating reply
/// text by key.
fn setup(
    out: &mut Outcome,
    dir: &Path,
    prewarm: &[JobSpec],
) -> Result<(Arc<Server>, HashMap<String, String>), String> {
    let _ = std::fs::remove_dir_all(dir);
    let server = Arc::new(
        Server::new(dir, SERVER_WORKERS)
            .map_err(|e| format!("cache dir {}: {e}", dir.display()))?,
    );
    let warm = run_cells(&server, prewarm, workers(), false)?;
    let mut creators = HashMap::new();
    for (resp, spec) in warm.into_iter().zip(prewarm) {
        out.attempted += 1;
        if resp.source != Source::Sim {
            out.fail(&format!(
                "pre-warm of {} came from {}",
                spec.kernel,
                resp.source.token()
            ));
        }
        creators.insert(resp.key, resp.stats_text);
    }
    Ok((server, creators))
}

/// The state the rounds share.
struct Stream<'a> {
    server: Arc<Server>,
    cache_dir: &'a Path,
    pool: &'a [JobSpec],
    /// The cache key of every pool cell, for the eviction after a round.
    keys: Vec<CacheKey>,
    /// Every entry's creating reply text by key.
    creators: HashMap<String, String>,
    /// One served fingerprint per key, for the cross-check.
    served: BTreeMap<String, (JobSpec, u64)>,
}

/// One cold→warm round over fresh connections, with its checks and
/// (traced) layer probes; evicts the pool's entries afterwards.
fn round(
    out: &mut Outcome,
    st: &mut Stream,
    size: &Size,
    round: usize,
    rng: &mut Rng,
    tracer: &Tracer,
) -> Result<Round, String> {
    let (cold, warm) = streams(size, st.pool.len(), workers(), rng);
    let before = st.server.counters();
    let (cold_wall, mut records) = drive(&st.server, &cold, st.pool, round, 0, tracer);
    let (warm_wall, warm_records) = drive(&st.server, &warm, st.pool, round, 1, tracer);
    let wall = cold_wall + warm_wall;
    records.extend(warm_records);
    let counters = diff(st.server.counters(), before);
    check(out, &mut st.creators, &records);
    for r in &records {
        if let Ok(resp) = &r.reply {
            st.served
                .entry(resp.key.clone())
                .or_insert((st.pool[r.req.cell].clone(), resp.fingerprint));
        }
    }
    let probed = if tracer.is_on() {
        probe(
            out,
            &st.server,
            st.cache_dir,
            &records,
            st.pool,
            size.probes,
            rng,
            tracer,
        )?
    } else {
        Probed::default()
    };
    let cache = DiskCache::open(st.cache_dir).map_err(|e| format!("cache: {e}"))?;
    // A cell whose cold request failed has no entry. An entry left behind
    // makes the next round's private miss a hit, which `check` counts.
    for &key in &st.keys {
        let _ = std::fs::remove_file(cache.entry_path(key));
    }
    println!(
        "round {round}: {} requests in {wall:.3} s ({cold_wall:.3} cold + {warm_wall:.3} warm), {} hits, {} sims, {} dedup{}",
        records.len(),
        counters.cache_hits,
        counters.sims_run,
        counters.dedup_waits,
        if tracer.is_on() { " (traced)" } else { "" },
    );
    let answers = records
        .into_iter()
        .map(|r| {
            let (source, retired) = r
                .reply
                .map_or((None, 0), |resp| (Some(resp.source), resp.retired));
            Answer {
                id: r.id,
                secs: r.secs,
                source,
                retired,
            }
        })
        .collect();
    Ok(Round {
        traced: tracer.is_on(),
        wall,
        answers,
        counters,
        utilization: st.server.worker_utilization(),
        probed,
    })
}

/// Re-simulates a seeded sample of the served cells in process and checks
/// each served fingerprint against it.
fn cross_check(
    out: &mut Outcome,
    served: &BTreeMap<String, (JobSpec, u64)>,
    n: usize,
    rng: &mut Rng,
) {
    let cells: Vec<&(JobSpec, u64)> = served.values().collect();
    let mut picks: Vec<usize> = (0..cells.len()).collect();
    rng.shuffle(&mut picks);
    for &i in picks.iter().take(n) {
        let (spec, fingerprint) = cells[i];
        out.attempted += 1;
        let ok = guarded(|| {
            let w = aim_workloads::by_name(&spec.kernel, spec.scale).expect("served kernels exist");
            let stats =
                aim_bench::run(&aim_bench::prepare(w, spec.scale), &spec.config.to_config());
            fingerprint_stats([&stats])
        });
        match ok {
            Ok(fp) if fp == *fingerprint => {}
            Ok(fp) => out.fail(&format!(
                "{} served fingerprint {fingerprint:#018x}, in-process {fp:#018x}",
                spec.kernel
            )),
            Err(e) => out.fail(&format!(
                "{}: in-process cross-check panicked: {e}",
                spec.kernel
            )),
        }
    }
    println!(
        "cross-check: {} served cells re-simulated in process",
        n.min(cells.len())
    );
}

pub fn serve(args: &Args, size: &Size) -> Result<Outcome, String> {
    let kernels: Vec<&str> = aim_workloads::names()
        .into_iter()
        .take(size.kernels)
        .collect();
    let cells = |configs: Vec<(String, aim_serve::ConfigSpec)>| -> Vec<JobSpec> {
        kernels
            .iter()
            .flat_map(|k| {
                configs
                    .iter()
                    .map(|(_, c)| c.job(k, SCALE))
                    .collect::<Vec<_>>()
            })
            .collect()
    };
    let prewarm = cells(hostperf_configs());
    let pool = cells(farmem_configs());
    println!(
        "setup: {} pre-warm cells; rounds of {} clients x (cold + warm) over {} miss cells, {} sent by every client",
        prewarm.len(),
        workers(),
        pool.len(),
        size.shared
    );

    let mut out = Outcome::default();
    let mut rng = Rng::new(args.seed);
    let dir = |i: usize| out_dir().join(format!("serve-cache-{}-{i}", std::process::id()));
    let t0 = Instant::now();
    let (server, creators) = setup(&mut out, &dir(0), &prewarm)?;
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let cache_dir = dir(0);

    let keys = pool
        .iter()
        .map(|spec| server.key_of(spec))
        .collect::<Result<Vec<_>, _>>()?;
    let mut st = Stream {
        server,
        cache_dir: &cache_dir,
        pool: &pool,
        keys,
        creators,
        served: BTreeMap::new(),
    };
    let traced = Tracer::new(true);
    let untraced = Tracer::new(false);
    let mut rounds: Vec<Round> = Vec::new();
    let min_rounds = if args.trace { 4 } else { 3 };
    let start = Instant::now();
    loop {
        let i = rounds.len();
        let tracer = if args.trace && i % 2 == 1 {
            &traced
        } else {
            &untraced
        };
        let r = round(&mut out, &mut st, size, i, &mut rng, tracer)?;
        let last = r.wall;
        rounds.push(r);
        if rounds.len() >= min_rounds
            && !another_pass(start.elapsed().as_secs_f64(), last, args.seconds)
        {
            break;
        }
    }
    // The peak memory of one server's life, read before the checks and the
    // repeated setups below allocate more.
    let peak_rss = peak_rss_mb();
    let served = std::mem::take(&mut st.served);
    drop(st);
    let _ = std::fs::remove_dir_all(&cache_dir);
    // The setup is timed again on fresh servers that are dropped at once.
    // That happens after the stream: a dropped server's freed memory stays
    // with the allocator's per-thread arenas, and before the stream it
    // raised the stream's peak memory by a varying 4–14 MiB.
    for i in 1..SETUP_REPS {
        let t0 = Instant::now();
        let opened = setup(&mut out, &dir(i), &prewarm)?;
        setups.push(t0.elapsed().as_secs_f64());
        drop(opened);
        let _ = std::fs::remove_dir_all(dir(i));
    }
    println!("setup: {} s median of {SETUP_REPS}", median(&setups));
    cross_check(&mut out, &served, size.cross_checks, &mut rng);

    let untraced_rounds: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let lat = |rounds: &[&Round], f: &dyn Fn(&Source) -> bool| -> Vec<f64> {
        rounds
            .iter()
            .flat_map(|r| &r.answers)
            .filter(|a| a.source.as_ref().is_some_and(f))
            .map(|a| a.secs * 1e3)
            .collect()
    };
    let hit_ms = lat(&untraced_rounds, &|s| *s == Source::Cache);
    let miss_ms = lat(&untraced_rounds, &|s| *s != Source::Cache);
    let sims: Vec<&Answer> = untraced_rounds
        .iter()
        .flat_map(|r| &r.answers)
        .filter(|a| a.source == Some(Source::Sim))
        .collect();
    let sim_retired: u64 = sims.iter().map(|a| a.retired).sum();
    let sim_secs: f64 = sims.iter().map(|r| r.secs).sum();
    let walls: Vec<f64> = untraced_rounds.iter().map(|r| r.wall).collect();
    let rates: Vec<f64> = untraced_rounds
        .iter()
        .map(|r| r.answers.len() as f64 / r.wall)
        .collect();
    out.put("setup_s", median(&setups));
    out.put("wall_s", median(&walls));
    out.put("sim_mips", ratio(sim_retired as f64, sim_secs) / 1e6);
    // A cell is a job the server runs; hits, half the requests, show in
    // `wall_s`, `req_per_s` and the per-layer `hit_ms_*`.
    out.put("cell_ms_p50", quantile(&miss_ms, 0.5));
    out.put("cell_ms_p90", quantile(&miss_ms, 0.9));
    out.put("peak_rss_mb", peak_rss);
    out.put("req_per_s", median(&rates));
    println!(
        "latency: {} hits p50 {:.4} ms p99 {:.4} ms; {} misses p50 {:.3} ms p90 {:.3} ms",
        hit_ms.len(),
        quantile(&hit_ms, 0.5),
        quantile(&hit_ms, 0.99),
        miss_ms.len(),
        quantile(&miss_ms, 0.5),
        quantile(&miss_ms, 0.9)
    );

    if args.trace {
        out.put("hit_ms_p50", quantile(&hit_ms, 0.5));
        out.put("hit_ms_p99", quantile(&hit_ms, 0.99));
        out.put("miss_ms_p50", quantile(&miss_ms, 0.5));
        out.put("miss_ms_p90", quantile(&miss_ms, 0.9));
        put_layers(&mut out, &rounds, &traced.spans());
        trace::write_all(args, &[&traced]);
    }
    Ok(out)
}

/// Per-layer metrics of the traced rounds.
fn put_layers(out: &mut Outcome, rounds: &[Round], spans: &[Span]) {
    let traced: Vec<&Round> = rounds.iter().filter(|r| r.traced).collect();
    let n = traced.len().max(1) as f64;
    let by_name = trace::total_by_name(spans);
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |(calls, secs)| ratio(*secs, *calls as f64) * 1e6)
    };
    out.put("bench.config_text_us", mean_us("bench.config_text"));
    out.put("bench.key_hash_us", mean_us("bench.key_hash"));
    out.put("serve.key_us", mean_us("serve.key_of"));
    out.put("serve.cache_load_us", mean_us("serve.cache_load"));
    out.put("serve.handle_us", mean_us("serve.handle"));
    out.put("serve.cache_store_us", mean_us("serve.cache_store"));
    out.put("serve.sim_ms", mean_us("serve.sim") / 1e3);
    out.put("wire.encode_us", mean_us("wire.encode"));
    out.put("wire.decode_us", mean_us("wire.decode"));
    let probed = |f: fn(&Probed) -> u64| traced.iter().map(|r| f(&r.probed)).sum::<u64>() as f64;
    let hits = probed(|p| p.hits);
    out.put(
        "bench.program_text_bytes",
        ratio(probed(|p| p.program_text_bytes), hits),
    );
    out.put("wire.reply_bytes", ratio(probed(|p| p.reply_bytes), hits));
    // Client round trip of a hit minus the server's handling of one: the
    // framing and the in-memory transport.
    let hits: HashSet<u64> = traced
        .iter()
        .flat_map(|r| &r.answers)
        .filter(|a| a.source == Some(Source::Cache))
        .map(|a| a.id)
        .collect();
    let over: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.request_over" && hits.contains(&s.cell))
        .map(Span::secs)
        .collect();
    let over_us = ratio(over.iter().sum(), over.len() as f64) * 1e6;
    out.put("serve.transport_us", over_us - mean_us("serve.handle"));

    let sum = |f: &dyn Fn(&CounterSnapshot) -> u64| {
        traced.iter().map(|r| f(&r.counters)).sum::<u64>() as f64
    };
    out.put(
        "serve.hit_frac",
        ratio(sum(&|c| c.cache_hits), sum(&|c| c.requests)),
    );
    out.put("serve.dedup_waits", sum(&|c| c.dedup_waits) / n);
    out.put("serve.sims_run", sum(&|c| c.sims_run) / n);
    out.put("serve.corrupt_evictions", sum(&|c| c.corrupt_evictions) / n);
    out.put(
        "serve.worker_utilization",
        traced.iter().map(|r| r.utilization).sum::<f64>() / n,
    );

    // Stream spans only: the probes run outside the measured stream.
    let stream: Vec<Span> = spans
        .iter()
        .filter(|s| s.name == "serve.request_over" || s.name == "wire.from_wire")
        .cloned()
        .collect();
    put_self_times(out, &[], 1.0, &stream, n);
    let untraced: Vec<f64> = rounds
        .iter()
        .filter(|r| !r.traced)
        .map(|r| r.wall)
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|r| r.wall).collect();
    out.put(
        "trace.overhead_s",
        median(&traced_walls) - median(&untraced),
    );
    out.put("trace.spans", spans.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_complete, END_TO_END, PER_LAYER};

    const SMOKE: Size = Size {
        kernels: 2,
        shared: 2,
        cross_checks: 2,
        probes: 20,
    };

    #[test]
    fn streams_send_each_cell_once_cold_and_once_warm() {
        let (cold, warm) = streams(&SMOKE, 11, 2, &mut Rng::new(5));
        assert_eq!((cold.len(), warm.len()), (2, 2));
        let cells = |s: &[Req], kind: Kind| {
            let mut v: Vec<usize> = s
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.cell)
                .collect();
            v.sort_unstable();
            v
        };
        let shared = |c: usize| {
            cold[c]
                .iter()
                .filter(|r| r.kind == Kind::Shared)
                .map(|r| r.cell)
                .collect::<Vec<_>>()
        };
        assert_eq!(shared(0), shared(1));
        assert_eq!(shared(0).len(), 2);
        let mut all: Vec<usize> = shared(0);
        for c in 0..2 {
            all.extend(cells(&cold[c], Kind::Miss));
            // The warm pass repeats the client's cold cells, and only those.
            let mut sent = cells(&cold[c], Kind::Miss);
            sent.extend(shared(c));
            sent.sort_unstable();
            assert_eq!(cells(&warm[c], Kind::Hit), sent);
            assert_eq!(warm[c].len(), cold[c].len());
        }
        all.sort_unstable();
        assert_eq!(all, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn serve_smoke() {
        for trace in [false, true] {
            let args = Args {
                workload: "serve".into(),
                seed: 2,
                seconds: 0.01,
                trace,
            };
            let out = serve(&args, &SMOKE).unwrap();
            assert_complete(&out, if trace { PER_LAYER } else { END_TO_END });
            if trace {
                assert!(out.metrics["serve.key_us"] > 0.0);
                assert!(out.metrics["wire.reply_bytes"] > 0.0);
                assert!(out.metrics["hit_ms_p50"] > 0.0);
            }
        }
    }
}
