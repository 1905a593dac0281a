//! `aim-serve`: a long-running simulation job server with a
//! content-addressed result cache.
//!
//! The `aim-bench` artifacts re-simulate their full
//! (workload × config) matrices on every invocation, even when nothing
//! relevant changed. This crate moves that work behind a server: clients
//! submit `(kernel, configuration, scale)` requests over length-prefixed
//! JSON frames ([`aim_types::wire`]), the server shards misses across a
//! worker pool, and every finished simulation is memoized in an on-disk
//! cache addressed by a stable hash of the kernel bytes, the
//! canonicalized [`SimConfig`](aim_pipeline::SimConfig), and the
//! simulator's code-version string ([`aim_bench::cache_key`]). A warm
//! request is answered from disk without running a single pipeline cycle.
//!
//! The paper's theme — replace associative search with address-indexed
//! lookup — applies one level up: re-simulation is the associative search
//! of experiment harnesses, and the content address replaces it with an
//! exact-match lookup whose correctness is checked the same way the
//! repo's other fast paths are, by **byte-identity against the slow
//! path**. `--verify` recomputes a cached entry and compares the stored
//! statistics text byte-for-byte; the replay driver ([`run_replay`])
//! replays a whole matrix cold and warm and requires identical
//! fingerprints with zero warm simulations.
//!
//! Module map:
//!
//! * `proto` — the server's side of the job protocol: [`JobResponse`] and
//!   its wire encoding (requests are [`JobSpec`]s, re-exported from
//!   `aim-pipeline` with [`ConfigSpec`]);
//! * `cache` — the checksummed on-disk entry store ([`DiskCache`]);
//! * `server` — the worker pool, single-flight deduplication, and
//!   request handling over any `Read + Write` stream ([`Server`]);
//! * `sock` — Unix-socket and stdin/stdout transports;
//! * `replay` — the cold/warm replay driver behind the
//!   `aim-sim serve --replay` tier-1 gate ([`run_replay`]).
//!
//! The matrices clients name by [`ConfigSpec`] are re-exported from
//! `aim-bench` ([`hostperf_configs`], [`farmem_configs`]), with the
//! per-kernel tiled sampling policy ([`sampled_policy`]) that turns a
//! kernel's trace length into the `sample` field of a sampled cell.

mod cache;
mod proto;
mod replay;
mod server;
mod sock;

pub use aim_bench::specs::{farmem_configs, hostperf_configs};
pub use aim_bench::{sampled_policy, SAMPLE_DETAIL_DIVISOR, SAMPLE_PERIODS};
pub use aim_pipeline::{ConfigSpec, JobSpec};
pub use cache::{CacheEntry, DiskCache, Lookup};
pub use proto::{JobResponse, Source, VerifyOutcome};
pub use replay::{run_cells, run_replay, ReplayOptions, ReplayOutcome};
pub use server::{serve_connection, CounterSnapshot, Server};
pub use sock::{request_over, serve_stdio, StdioStream};
#[cfg(unix)]
pub use sock::{serve_unix, submit_unix};
