//! The job-server report (`BENCH_serve.json`, `aim-serve-report/v1`).
//!
//! The `aim-serve` replay driver runs the same request matrix through the
//! server several times — a cold round that must simulate every cell, then
//! warm rounds that must be served entirely from the content-addressed
//! cache — and records what the heavy-traffic path actually did: cache
//! hits and misses, duplicate requests folded by single-flight, corrupt
//! entries evicted, verify-mode recomputations, worker-pool utilization,
//! and the warm/cold wall-time ratio the cache exists to deliver.
//!
//! The report renders through the shared [`Report`] writer, with its rounds
//! under `rounds`; `tests/golden/serve.golden.json` pins its layout.

use crate::Report;
use aim_types::wire::WireMsg;
use aim_workloads::Scale;

/// One replay round's aggregate outcome.
#[derive(Debug, Clone)]
pub struct ServeRound {
    /// Round label (`cold`, `warm1`, `warm2`, …).
    pub label: String,
    /// Requests submitted this round.
    pub cells: u64,
    /// Wall-clock seconds for the round.
    pub wall_seconds: f64,
    /// Simulations actually executed during the round (0 for a healthy
    /// warm round).
    pub sims_run: u64,
    /// Requests answered from the on-disk cache during the round.
    pub cache_hits: u64,
}

/// The job-server accounting report.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Workload scale the matrix ran at.
    pub scale: Scale,
    /// Simulation worker threads the server ran.
    pub workers: usize,
    /// Concurrent submitter connections the replay drove.
    pub clients: usize,
    /// Total requests handled.
    pub requests: u64,
    /// Requests answered from the cache.
    pub cache_hits: u64,
    /// Requests that missed the cache.
    pub cache_misses: u64,
    /// Duplicate in-flight requests folded onto an existing computation.
    pub dedup_waits: u64,
    /// Simulations executed.
    pub sims_run: u64,
    /// Cache entries rejected by the checksum and recomputed.
    pub corrupt_evictions: u64,
    /// Verify-mode recomputations performed.
    pub verified: u64,
    /// Verify-mode recomputations that diverged from the cached bytes.
    pub verify_mismatches: u64,
    /// Fraction of worker-pool lifetime spent simulating.
    pub worker_utilization: f64,
    /// Cold wall time divided by the slowest warm round's wall time.
    pub warm_speedup: f64,
    /// Per-round outcomes, in execution order.
    pub rounds: Vec<ServeRound>,
}

impl Report for ServeReport {
    const SCHEMA: &'static str = "aim-serve-report/v1";
    const FILE: &'static str = "BENCH_serve.json";
    const LIST_KEY: &'static str = "rounds";
    type Row = ServeRound;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", "aim_serve")
            .put_str("scale", self.scale.token())
            .put_u64("workers", self.workers as u64)
            .put_u64("clients", self.clients as u64)
            .put_u64("requests", self.requests)
            .put_u64("cache_hits", self.cache_hits)
            .put_u64("cache_misses", self.cache_misses)
            .put_u64("dedup_waits", self.dedup_waits)
            .put_u64("sims_run", self.sims_run)
            .put_u64("corrupt_evictions", self.corrupt_evictions)
            .put_u64("verified", self.verified)
            .put_u64("verify_mismatches", self.verify_mismatches)
            .put_f64("worker_utilization", self.worker_utilization)
            .put_f64("warm_speedup", self.warm_speedup);
    }

    fn rows(&self) -> &[ServeRound] {
        &self.rounds
    }

    fn row(r: &ServeRound, m: &mut WireMsg) {
        m.put_str("label", &r.label)
            .put_u64("cells", r.cells)
            .put_f64("wall_seconds", r.wall_seconds)
            .put_u64("sims_run", r.sims_run)
            .put_u64("cache_hits", r.cache_hits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_schema_counters_and_rounds() {
        let report = ServeReport {
            scale: Scale::Tiny,
            workers: 4,
            clients: 2,
            requests: 480,
            cache_hits: 240,
            cache_misses: 240,
            dedup_waits: 3,
            sims_run: 240,
            corrupt_evictions: 1,
            verified: 30,
            verify_mismatches: 0,
            worker_utilization: 0.75,
            warm_speedup: 42.0,
            rounds: vec![ServeRound {
                label: "cold".to_string(),
                cells: 240,
                wall_seconds: 2.5,
                sims_run: 240,
                cache_hits: 0,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-serve-report/v1\""));
        assert!(json.contains("\"artifact\": \"aim_serve\""));
        assert!(json.contains("\"dedup_waits\": 3"));
        assert!(json.contains("\"warm_speedup\": 42.000000"));
        assert!(json.contains("\"label\": \"cold\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
