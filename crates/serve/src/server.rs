//! The job server: a worker pool, single-flight deduplication, and the
//! request dispatcher.
//!
//! A connection handler thread decodes one request at a time and calls
//! [`Server::submit`]. The fast path never touches the pipeline: build
//! the kernel's [`Program`](aim_isa::Program) (cheap and deterministic),
//! derive the content address, and answer a cache hit straight from disk.
//! Only a miss costs simulation, and misses are **sharded across a
//! work-stealing pool**: every worker pulls from one shared queue, so a
//! burst of misses from one connection spreads over all workers while
//! other connections' jobs interleave rather than queue behind it.
//!
//! Identical in-flight requests are folded by **single-flight**: the
//! first requester of a key becomes the leader and enqueues the
//! simulation; later requesters of the same key park on the job's slot
//! and wake with the leader's result. Each unique job therefore simulates
//! exactly once no matter how many clients race it — the property
//! `crates/serve/tests/server.rs` pins with a barrier.
//!
//! The expensive trace preparation (architecturally executing a kernel to
//! produce its golden trace) is memoized per `(kernel, scale)` behind a
//! [`OnceLock`], so even a cold matrix interprets each kernel once, not
//! once per configuration.

use crate::cache::{CacheEntry, DiskCache, Lookup};
use crate::proto::{error_reply, JobResponse, Source, VerifyOutcome};
use aim_bench::{canonical_config_text, program_text, CacheKey, KeyPrefix, Prepared};
use aim_pipeline::JobSpec;
use aim_types::wire::{read_frame, write_frame, WireMsg};
use aim_workloads::Scale;
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Lifetime counters, all monotone.
#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    dedup_waits: AtomicU64,
    sims_run: AtomicU64,
    corrupt_evictions: AtomicU64,
    verified: AtomicU64,
    verify_mismatches: AtomicU64,
}

/// A point-in-time copy of the server's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Requests handled.
    pub requests: u64,
    /// Requests answered from the cache.
    pub cache_hits: u64,
    /// Requests that missed the cache.
    pub cache_misses: u64,
    /// Requests folded onto an in-flight duplicate.
    pub dedup_waits: u64,
    /// Pipeline simulations executed.
    pub sims_run: u64,
    /// Cache entries evicted by validation.
    pub corrupt_evictions: u64,
    /// Verify recomputations performed.
    pub verified: u64,
    /// Verify recomputations that diverged from the cached bytes.
    pub verify_mismatches: u64,
}

/// One in-flight unique job; waiters park here.
#[derive(Default)]
struct JobSlot {
    result: Mutex<Option<Result<CacheEntry, String>>>,
    done: Condvar,
}

impl JobSlot {
    fn fulfill(&self, result: Result<CacheEntry, String>) {
        *self.result.lock().expect("slot lock") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<CacheEntry, String> {
        let mut guard = self.result.lock().expect("slot lock");
        while guard.is_none() {
            guard = self.done.wait(guard).expect("slot lock");
        }
        guard.clone().expect("checked above")
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<PoolQueue>,
    available: Condvar,
    busy_nanos: AtomicU64,
}

#[derive(Default)]
struct PoolQueue {
    jobs: VecDeque<Job>,
    stop: bool,
}

/// The shared-queue worker pool: any idle worker steals the next job.
struct WorkPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
    started: Instant,
}

impl WorkPool {
    fn new(workers: usize) -> WorkPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            available: Condvar::new(),
            busy_nanos: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let job = {
                        let mut q = shared.queue.lock().expect("pool lock");
                        loop {
                            if let Some(job) = q.jobs.pop_front() {
                                break job;
                            }
                            if q.stop {
                                return;
                            }
                            q = shared.available.wait(q).expect("pool lock");
                        }
                    };
                    let t0 = Instant::now();
                    job();
                    let spent = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    shared.busy_nanos.fetch_add(spent, Ordering::Relaxed);
                })
            })
            .collect();
        WorkPool {
            shared,
            handles,
            workers,
            started: Instant::now(),
        }
    }

    fn execute(&self, job: Job) {
        let mut q = self.shared.queue.lock().expect("pool lock");
        q.jobs.push_back(job);
        drop(q);
        self.shared.available.notify_one();
    }

    /// Fraction of the pool's aggregate lifetime spent running jobs.
    fn utilization(&self) -> f64 {
        let lifetime = self.started.elapsed().as_secs_f64() * self.workers as f64;
        if lifetime <= 0.0 {
            return 0.0;
        }
        let busy = self.shared.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9;
        (busy / lifetime).min(1.0)
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        self.shared.queue.lock().expect("pool lock").stop = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

type PreparedCell = Arc<OnceLock<Arc<Prepared>>>;

/// The job server.
pub struct Server {
    cache: DiskCache,
    pool: WorkPool,
    code_version: String,
    counters: Arc<Counters>,
    /// Key hash states per `(kernel, scale)` after the program text: a
    /// request hashes only its config text.
    key_prefixes: Mutex<HashMap<(String, Scale), KeyPrefix>>,
    /// Golden traces per `(kernel, scale)`, interpreted once on first
    /// miss.
    prepared: Mutex<HashMap<(String, Scale), PreparedCell>>,
    inflight: Mutex<HashMap<CacheKey, Arc<JobSlot>>>,
    shutdown: AtomicBool,
}

impl Server {
    /// Opens a server over `cache_dir` with `workers` simulation threads,
    /// keyed under [`aim_bench::CODE_VERSION`].
    ///
    /// # Errors
    ///
    /// Propagates the cache-directory creation error.
    pub fn new(cache_dir: &Path, workers: usize) -> std::io::Result<Server> {
        Server::with_code_version(cache_dir, workers, aim_bench::CODE_VERSION)
    }

    /// [`Server::new`] with an explicit code-version string (tests use
    /// this to model a simulator upgrade invalidating the cache).
    ///
    /// # Errors
    ///
    /// Propagates the cache-directory creation error.
    pub fn with_code_version(
        cache_dir: &Path,
        workers: usize,
        code_version: &str,
    ) -> std::io::Result<Server> {
        Ok(Server {
            cache: DiskCache::open(cache_dir)?,
            pool: WorkPool::new(workers),
            code_version: code_version.to_string(),
            counters: Arc::new(Counters::default()),
            key_prefixes: Mutex::new(HashMap::new()),
            prepared: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        })
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.pool.workers
    }

    /// Whether a shutdown request has been received.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (listeners stop accepting; open connections
    /// finish their current request).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Copies the lifetime counters.
    pub fn counters(&self) -> CounterSnapshot {
        let c = &self.counters;
        CounterSnapshot {
            requests: c.requests.load(Ordering::Relaxed),
            cache_hits: c.cache_hits.load(Ordering::Relaxed),
            cache_misses: c.cache_misses.load(Ordering::Relaxed),
            dedup_waits: c.dedup_waits.load(Ordering::Relaxed),
            sims_run: c.sims_run.load(Ordering::Relaxed),
            corrupt_evictions: c.corrupt_evictions.load(Ordering::Relaxed),
            verified: c.verified.load(Ordering::Relaxed),
            verify_mismatches: c.verify_mismatches.load(Ordering::Relaxed),
        }
    }

    /// Fraction of the worker pool's lifetime spent simulating.
    pub fn worker_utilization(&self) -> f64 {
        self.pool.utilization()
    }

    /// The content address `spec` resolves to under this server's code
    /// version.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown kernel.
    pub fn key_of(&self, spec: &JobSpec) -> Result<CacheKey, String> {
        let prefix = self.key_prefix_of(&spec.kernel, spec.scale)?;
        Ok(prefix.key(&canonical_config_text(&spec.config.to_config())))
    }

    fn key_prefix_of(&self, kernel: &str, scale: Scale) -> Result<KeyPrefix, String> {
        let mut prefixes = self.key_prefixes.lock().expect("key prefix lock");
        if let Some(prefix) = prefixes.get(&(kernel.to_string(), scale)) {
            return Ok(*prefix);
        }
        let workload = aim_workloads::by_name(kernel, scale)
            .ok_or_else(|| format!("no such kernel `{kernel}` (see aim-workloads)"))?;
        let prefix = KeyPrefix::new(&program_text(&workload.program), &self.code_version);
        prefixes.insert((kernel.to_string(), scale), prefix);
        Ok(prefix)
    }

    fn prepared_of(&self, kernel: &str, scale: Scale) -> Result<Arc<Prepared>, String> {
        let cell = {
            let mut map = self.prepared.lock().expect("prepared lock");
            Arc::clone(
                map.entry((kernel.to_string(), scale))
                    .or_insert_with(|| Arc::new(OnceLock::new())),
            )
        };
        // `get_or_init` blocks concurrent initializers, so each kernel is
        // interpreted once even under a racing cold matrix.
        let workload = aim_workloads::by_name(kernel, scale)
            .ok_or_else(|| format!("no such kernel `{kernel}` (see aim-workloads)"))?;
        Ok(Arc::clone(cell.get_or_init(|| {
            Arc::new(aim_bench::prepare(workload, scale))
        })))
    }

    /// Runs `spec`'s simulation on the worker pool and returns (and, when
    /// `store` is set, persists) the resulting entry.
    fn compute(&self, spec: &JobSpec, key: CacheKey, store: bool) -> Result<CacheEntry, String> {
        let slot = Arc::new(JobSlot::default());
        let done = Arc::clone(&slot);
        let counters = Arc::clone(&self.counters);
        let cache = self.cache.clone();
        let cfg = spec.config.to_config();
        let kernel = spec.kernel.clone();
        let scale = spec.scale;
        // The pool job needs the trace; resolve it here so `self` need not
        // be `Arc`-captured (preparation memoizes per kernel anyway).
        let prepared = self.prepared_of(&kernel, scale)?;
        self.pool.execute(Box::new(move || {
            counters.sims_run.fetch_add(1, Ordering::Relaxed);
            // A simulation that panics (a configuration the decoder could
            // not reject, or a simulator bug) must still fulfil the slot:
            // the leader and every dedup waiter are parked on it.
            let run = panic::catch_unwind(AssertUnwindSafe(|| aim_bench::run(&prepared, &cfg)));
            let result = run
                .map_err(|payload| format!("simulation panicked: {}", panic_message(&*payload)))
                .and_then(|stats| {
                    let entry = CacheEntry::from_stats(&stats);
                    if store {
                        cache
                            .store(key, &entry)
                            .map(|()| entry)
                            .map_err(|e| format!("cache store for {key}: {e}"))
                    } else {
                        Ok(entry)
                    }
                });
            done.fulfill(result);
        }));
        slot.wait()
    }

    /// Handles one simulation request end to end.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for unknown kernels or cache I/O
    /// failures; the connection layer ships it as an `ok: false` reply.
    pub fn submit(
        &self,
        spec: &JobSpec,
        verify: bool,
        no_cache: bool,
    ) -> Result<JobResponse, String> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let key = self.key_of(spec)?;
        let respond =
            |entry: &CacheEntry, source: Source, outcome: Option<VerifyOutcome>| JobResponse {
                key: key.hex(),
                source,
                cycles: entry.cycles,
                retired: entry.retired,
                fingerprint: entry.fingerprint(),
                stats_text: entry.stats_text.clone(),
                verify: outcome,
            };

        if verify {
            // Recompute unconditionally and byte-compare against whatever
            // the cache holds; the fresh result becomes the entry either
            // way, so verify also repairs.
            let cached = match self.cache.load(key) {
                Lookup::Hit(entry) => Some(entry),
                Lookup::Miss => None,
                Lookup::Corrupt => {
                    self.counters
                        .corrupt_evictions
                        .fetch_add(1, Ordering::Relaxed);
                    None
                }
            };
            let fresh = self.compute(spec, key, true)?;
            let outcome = match cached {
                None => VerifyOutcome::Cold,
                Some(old) => {
                    self.counters.verified.fetch_add(1, Ordering::Relaxed);
                    if old == fresh {
                        VerifyOutcome::Match
                    } else {
                        self.counters
                            .verify_mismatches
                            .fetch_add(1, Ordering::Relaxed);
                        VerifyOutcome::Mismatch
                    }
                }
            };
            return Ok(respond(&fresh, Source::Sim, Some(outcome)));
        }

        if no_cache {
            let fresh = self.compute(spec, key, true)?;
            return Ok(respond(&fresh, Source::Sim, None));
        }

        match self.cache.load(key) {
            Lookup::Hit(entry) => {
                self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(respond(&entry, Source::Cache, None));
            }
            Lookup::Corrupt => {
                self.counters
                    .corrupt_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            Lookup::Miss => {}
        }
        self.counters.cache_misses.fetch_add(1, Ordering::Relaxed);

        // Single-flight: first requester of the key leads, the rest park.
        let (slot, leader) = {
            let mut inflight = self.inflight.lock().expect("inflight lock");
            match inflight.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(JobSlot::default());
                    inflight.insert(key, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };
        if leader {
            let result = self.compute(spec, key, true);
            slot.fulfill(result.clone());
            self.inflight.lock().expect("inflight lock").remove(&key);
            Ok(respond(&result?, Source::Sim, None))
        } else {
            self.counters.dedup_waits.fetch_add(1, Ordering::Relaxed);
            Ok(respond(&slot.wait()?, Source::Dedup, None))
        }
    }

    /// Dispatches one decoded request; the boolean says whether the
    /// connection should close after replying (shutdown).
    pub fn handle(&self, msg: &WireMsg) -> (WireMsg, bool) {
        match msg.str_field("op") {
            Some("sim") => {
                let reply = JobSpec::from_wire(msg).and_then(|spec| {
                    self.submit(
                        &spec,
                        msg.bool_field("verify").unwrap_or(false),
                        msg.bool_field("no_cache").unwrap_or(false),
                    )
                });
                match reply {
                    Ok(resp) => (resp.to_wire(), false),
                    Err(e) => (error_reply(&e), false),
                }
            }
            Some("stats") => {
                let c = self.counters();
                let mut reply = WireMsg::new();
                reply
                    .put_bool("ok", true)
                    .put_u64("workers", self.workers() as u64)
                    .put_u64("requests", c.requests)
                    .put_u64("cache_hits", c.cache_hits)
                    .put_u64("cache_misses", c.cache_misses)
                    .put_u64("dedup_waits", c.dedup_waits)
                    .put_u64("sims_run", c.sims_run)
                    .put_u64("corrupt_evictions", c.corrupt_evictions)
                    .put_u64("verified", c.verified)
                    .put_u64("verify_mismatches", c.verify_mismatches)
                    .put_f64("worker_utilization", self.worker_utilization());
                (reply, false)
            }
            Some("shutdown") => {
                self.request_shutdown();
                let mut reply = WireMsg::new();
                reply.put_bool("ok", true);
                (reply, true)
            }
            Some(other) => (
                error_reply(&format!("unknown op `{other}` (sim|stats|shutdown)")),
                false,
            ),
            None => (error_reply("request is missing the `op` field"), false),
        }
    }
}

/// The message a panic was raised with (`panic!` payloads are a `&str` or
/// a `String`).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Serves one framed connection until the peer hangs up, a protocol error
/// occurs, or a shutdown request is handled.
///
/// # Errors
///
/// Propagates stream I/O errors (including truncated frames).
pub fn serve_connection<S: Read + Write>(server: &Server, mut stream: S) -> std::io::Result<()> {
    while let Some(frame) = read_frame(&mut stream)? {
        let (reply, close) = match std::str::from_utf8(&frame) {
            Ok(text) => match WireMsg::parse(text) {
                Ok(msg) => server.handle(&msg),
                Err(e) => (error_reply(&format!("bad request: {e}")), false),
            },
            Err(_) => (error_reply("bad request: frame is not UTF-8"), false),
        };
        write_frame(&mut stream, reply.to_json().as_bytes())?;
        if close {
            break;
        }
    }
    Ok(())
}
