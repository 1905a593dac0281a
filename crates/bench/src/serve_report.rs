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
//! Emitted JSON (hand-written — no serde in the offline build):
//!
//! ```json
//! {
//!   "schema": "aim-serve-report/v1",
//!   "artifact": "aim_serve",
//!   "scale": "tiny",
//!   "workers": 4,
//!   "clients": 4,
//!   "requests": 510,
//!   "cache_hits": 240,
//!   "cache_misses": 240,
//!   "dedup_waits": 0,
//!   "sims_run": 270,
//!   "corrupt_evictions": 0,
//!   "verified": 30,
//!   "verify_mismatches": 0,
//!   "worker_utilization": 0.82,
//!   "warm_speedup": 104.6,
//!   "rounds": [
//!     {"label": "cold", "cells": 240, "wall_seconds": 2.1,
//!      "sims_run": 240, "cache_hits": 0}
//!   ]
//! }
//! ```

use crate::sweep::{json_escape, json_number};
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

impl ServeReport {
    /// Renders the report as `aim-serve-report/v1` JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.rounds.len() * 120);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"aim-serve-report/v1\",\n");
        out.push_str("  \"artifact\": \"aim_serve\",\n");
        out.push_str(&format!("  \"scale\": \"{}\",\n", self.scale));
        out.push_str(&format!("  \"workers\": {},\n", self.workers));
        out.push_str(&format!("  \"clients\": {},\n", self.clients));
        out.push_str(&format!("  \"requests\": {},\n", self.requests));
        out.push_str(&format!("  \"cache_hits\": {},\n", self.cache_hits));
        out.push_str(&format!("  \"cache_misses\": {},\n", self.cache_misses));
        out.push_str(&format!("  \"dedup_waits\": {},\n", self.dedup_waits));
        out.push_str(&format!("  \"sims_run\": {},\n", self.sims_run));
        out.push_str(&format!("  \"corrupt_evictions\": {},\n", self.corrupt_evictions));
        out.push_str(&format!("  \"verified\": {},\n", self.verified));
        out.push_str(&format!("  \"verify_mismatches\": {},\n", self.verify_mismatches));
        out.push_str(&format!(
            "  \"worker_utilization\": {},\n",
            json_number(self.worker_utilization)
        ));
        out.push_str(&format!("  \"warm_speedup\": {},\n", json_number(self.warm_speedup)));
        out.push_str("  \"rounds\": [");
        for (i, round) in self.rounds.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"cells\": {}, \"wall_seconds\": {}, \
                 \"sims_run\": {}, \"cache_hits\": {}}}",
                json_escape(&round.label),
                round.cells,
                json_number(round.wall_seconds),
                round.sims_run,
                round.cache_hits,
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Writes the report to the default location — `$AIM_SERVE_JSON` if
    /// set, else `BENCH_serve.json` in the working directory — and returns
    /// the path written.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_default(&self) -> std::io::Result<String> {
        let path =
            std::env::var("AIM_SERVE_JSON").unwrap_or_else(|_| "BENCH_serve.json".to_string());
        self.write(&path)?;
        Ok(path)
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
