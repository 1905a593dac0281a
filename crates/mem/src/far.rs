//! The far-memory tier: a high-latency backing store behind the shared L2
//! with an MSHR-style bound on simultaneously outstanding misses and
//! batched completion.
//!
//! This reproduces the regime of the Asynchronous Memory Access Unit work
//! (arXiv 2404.11044): loads that cost hundreds of cycles, with thousands
//! of them potentially in flight at once — exactly where associative
//! LSQ search throttles and the paper's address-indexed structures are
//! claimed to scale. When a [`FarSpec`] is present on the
//! [`MemSpec`](crate::MemSpec), every L2 miss is a far-memory access and
//! the near-memory `l2_miss_cycles` ladder step is replaced by this
//! model's completion time.
//!
//! The model is deliberately small and deterministic:
//!
//! * An access to a far line already in flight **coalesces**: it completes
//!   when the outstanding miss does, costing no new MSHR.
//! * Otherwise the access allocates an MSHR and completes at
//!   `now + latency`, rounded **up** to the next multiple of `batch`
//!   (far-memory transports return data in bursts).
//! * When all MSHRs are busy, a *refusable* access (the load-execute
//!   path) is refused at admission ([`FarMemory::admit`]) so the pipeline
//!   can replay it; a *never-refuse* access ([`FarMemory::access`] —
//!   instruction fetch, store commit, head-of-ROB bypass) queues behind
//!   the earliest completing miss instead.
//!
//! # Examples
//!
//! ```
//! use aim_mem::{FarMemory, FarSpec};
//!
//! let mut far = FarMemory::new(FarSpec::new(400, 2, 1));
//! assert_eq!(far.access(7, 0), 400);   // cold miss
//! assert_eq!(far.access(7, 100), 300); // coalesces with the first
//! assert_eq!(far.access(8, 0), 400);   // second MSHR
//! assert!(!far.admit(9, 0));           // both MSHRs busy: refused
//! assert!(far.admit(9, 400));          // slots drained
//! assert_eq!(far.access(9, 400), 400);
//! ```

use std::fmt;
use std::str::FromStr;

use aim_types::token::parse_fields;

/// Configuration of the far-memory tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FarSpec {
    /// Cycles from request to data return (before batch rounding).
    pub latency: u64,
    /// Maximum simultaneously outstanding far misses (MSHR count).
    pub mshrs: usize,
    /// Completion times round up to a multiple of this many cycles
    /// (`1` disables batching).
    pub batch: u64,
}

impl FarSpec {
    /// Creates a far-memory spec.
    ///
    /// # Panics
    ///
    /// Panics if `latency`, `mshrs`, or `batch` is zero.
    pub fn new(latency: u64, mshrs: usize, batch: u64) -> FarSpec {
        assert!(latency > 0, "far latency must be nonzero");
        assert!(mshrs > 0, "far tier needs at least one MSHR");
        assert!(batch > 0, "batch granularity must be nonzero (1 = none)");
        FarSpec {
            latency,
            mshrs,
            batch,
        }
    }
}

/// The `LATENCYxMSHRSxBATCH` token the CLI's `--far` and the wire's `far`
/// field use (`400x64x8`).
impl fmt::Display for FarSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.latency, self.mshrs, self.batch)
    }
}

impl FromStr for FarSpec {
    type Err = String;

    /// Parses `LATENCYxMSHRSxBATCH`, rejecting the zero values
    /// [`FarSpec::new`] would panic on.
    fn from_str(s: &str) -> Result<FarSpec, String> {
        let bad = || format!("`far` wants LATENCYxMSHRSxBATCH, got `{s}`");
        let [latency, mshrs, batch] = parse_fields(s).ok_or_else(bad)?;
        let mshrs = usize::try_from(mshrs).map_err(|_| bad())?;
        if latency == 0 || mshrs == 0 || batch == 0 {
            return Err(format!("`far` parameters must be nonzero, got `{s}`"));
        }
        Ok(FarSpec::new(latency, mshrs, batch))
    }
}

impl Default for FarSpec {
    /// 400-cycle far loads, 64 MSHRs, 8-cycle completion batches — the
    /// disaggregated-memory operating point the far-memory experiments
    /// sweep around.
    fn default() -> FarSpec {
        FarSpec::new(400, 64, 8)
    }
}

/// Counters for the far-memory tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarStats {
    /// Far accesses that started or joined a miss (excludes refusals).
    pub accesses: u64,
    /// Accesses that coalesced onto an already-outstanding miss.
    pub coalesced: u64,
    /// Refusable accesses rejected because every MSHR was busy.
    pub busy: u64,
    /// Never-refuse accesses that queued past the MSHR bound.
    pub overflow: u64,
    /// High-water mark of simultaneously outstanding misses.
    pub peak_inflight: usize,
}

/// The far-memory tier's timing state: the bounded set of in-flight misses.
///
/// Purely a timing model, like [`Cache`](crate::Cache) — data is always
/// supplied by [`MainMemory`](crate::MainMemory). Callers pass the current
/// cycle so completed misses can be drained and latencies computed; the
/// "line" key is whatever granularity the caller coalesces at (the memory
/// systems use the L2 line number).
#[derive(Debug, Clone)]
pub struct FarMemory {
    spec: FarSpec,
    /// Outstanding misses as `(ready_cycle, line)`.
    inflight: Vec<(u64, u64)>,
    stats: FarStats,
}

impl FarMemory {
    /// Creates an idle far-memory tier.
    pub fn new(spec: FarSpec) -> FarMemory {
        FarMemory {
            spec,
            inflight: Vec::with_capacity(spec.mshrs),
            stats: FarStats::default(),
        }
    }

    /// The configured parameters.
    pub fn spec(&self) -> FarSpec {
        self.spec
    }

    /// The tier's counters.
    pub fn stats(&self) -> FarStats {
        self.stats
    }

    /// Outstanding misses not yet drained (testing/diagnostics).
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Retires misses whose data has returned by `now`.
    fn drain(&mut self, now: u64) {
        self.inflight.retain(|&(ready, _)| ready > now);
    }

    /// Rounds a completion time up to the batch granularity.
    fn batch_align(&self, t: u64) -> u64 {
        t.div_ceil(self.spec.batch) * self.spec.batch
    }

    fn earliest_ready(&self) -> u64 {
        self.inflight
            .iter()
            .map(|&(ready, _)| ready)
            .min()
            .expect("queried with at least one miss in flight")
    }

    fn push(&mut self, ready: u64, line: u64) {
        self.inflight.push((ready, line));
        self.stats.peak_inflight = self.stats.peak_inflight.max(self.inflight.len());
    }

    fn find(&self, line: u64) -> Option<u64> {
        self.inflight
            .iter()
            .find(|&&(_, l)| l == line)
            .map(|&(ready, _)| ready)
    }

    /// A never-refuse access to `line` at cycle `now`: returns the cycles
    /// until data is available. Coalesces with an in-flight miss when
    /// possible; when every MSHR is busy it queues behind the earliest
    /// completing miss (counted as `overflow`).
    pub fn access(&mut self, line: u64, now: u64) -> u64 {
        self.drain(now);
        self.stats.accesses += 1;
        if let Some(ready) = self.find(line) {
            self.stats.coalesced += 1;
            return ready - now;
        }
        let start = if self.inflight.len() >= self.spec.mshrs {
            self.stats.overflow += 1;
            self.earliest_ready().max(now)
        } else {
            now
        };
        let ready = self.batch_align(start + self.spec.latency);
        self.push(ready, line);
        ready - now
    }

    /// The admission decision of a refusable access to `line` at cycle
    /// `now`: drains completed misses and reports whether the access would
    /// be accepted (an MSHR is free, or the line is already in flight to
    /// coalesce with). A refusal is counted as `busy` — the caller replays
    /// the access later; an acceptance allocates nothing — follow up with
    /// [`FarMemory::access`].
    pub fn admit(&mut self, line: u64, now: u64) -> bool {
        self.drain(now);
        if self.find(line).is_some() || self.inflight.len() < self.spec.mshrs {
            return true;
        }
        self.stats.busy += 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far(latency: u64, mshrs: usize, batch: u64) -> FarMemory {
        FarMemory::new(FarSpec::new(latency, mshrs, batch))
    }

    #[test]
    fn cold_access_costs_latency() {
        let mut f = far(400, 4, 1);
        assert_eq!(f.access(1, 10), 400);
        assert_eq!(f.inflight(), 1);
        assert_eq!(f.stats().accesses, 1);
    }

    #[test]
    fn batching_rounds_completion_up() {
        let mut f = far(400, 4, 64);
        // 10 + 400 = 410 rounds up to 448.
        assert_eq!(f.access(1, 10), 438);
        // Already batch-aligned completions stay put: 0 + 400 → 448? No:
        // 400 is not a multiple of 64; 448 is. From cycle 48, 448 - 48 = 400.
        assert_eq!(f.access(2, 48), 400);
    }

    #[test]
    fn coalescing_joins_the_outstanding_miss() {
        let mut f = far(400, 4, 1);
        assert_eq!(f.access(1, 0), 400);
        assert_eq!(f.access(1, 150), 250);
        assert_eq!(f.access(1, 399), 1);
        let s = f.stats();
        assert_eq!((s.accesses, s.coalesced), (3, 2));
        assert_eq!(f.inflight(), 1); // still one MSHR
    }

    #[test]
    fn admit_refuses_when_full_and_recovers() {
        let mut f = far(100, 2, 1);
        assert!(f.admit(1, 0));
        assert_eq!(f.access(1, 0), 100);
        assert!(f.admit(2, 0));
        assert_eq!(f.access(2, 0), 100);
        // Both MSHRs busy: refused, counted, and nothing allocated.
        assert!(!f.admit(3, 0));
        assert_eq!(f.stats().busy, 1);
        assert_eq!(f.inflight(), 2);
        // A coalescing access is never refused, even when full.
        assert!(f.admit(2, 50));
        assert_eq!(f.access(2, 50), 50);
        // At cycle 100 both misses have completed; MSHRs are free again.
        assert!(f.admit(3, 100));
        assert_eq!(f.access(3, 100), 100);
        assert_eq!(f.stats().busy, 1);
    }

    #[test]
    fn admit_decides_without_allocating() {
        let mut f = far(100, 1, 1);
        assert!(f.admit(1, 0));
        assert_eq!(f.inflight(), 0); // admission allocates nothing
        assert_eq!(f.access(1, 0), 100);
        assert!(!f.admit(2, 10)); // MSHR busy with line 1
        assert_eq!(f.stats().busy, 1);
        assert_eq!(f.inflight(), 1);
        assert!(f.admit(1, 10)); // coalescible: admitted even when full
        assert!(f.admit(2, 100)); // drained
        assert_eq!(f.stats().busy, 1);
    }

    #[test]
    fn queued_access_waits_for_the_earliest_slot() {
        let mut f = far(100, 2, 1);
        assert_eq!(f.access(1, 0), 100);
        assert_eq!(f.access(2, 20), 100);
        // Full: queues behind line 1 (ready at 100): 100 + 100 - 30 = 170.
        assert_eq!(f.access(3, 30), 170);
        assert_eq!(f.stats().overflow, 1);
        assert_eq!(f.stats().peak_inflight, 3);
    }

    #[test]
    fn drain_retires_completed_misses() {
        let mut f = far(100, 2, 1);
        f.access(1, 0);
        f.access(2, 0);
        assert_eq!(f.inflight(), 2);
        // An unrelated access at cycle 100 drains both.
        f.access(3, 100);
        assert_eq!(f.inflight(), 1);
    }

    #[test]
    #[should_panic(expected = "far latency")]
    fn zero_latency_rejected() {
        let _ = FarSpec::new(0, 1, 1);
    }

    #[test]
    fn default_spec_is_the_documented_operating_point() {
        let d = FarSpec::default();
        assert_eq!((d.latency, d.mshrs, d.batch), (400, 64, 8));
    }
}
