//! The shared memory system: one committed [`MainMemory`] and one unified
//! L2 cache (plus the optional far tier), shared by N per-core memory
//! systems.
//!
//! The L1 instruction and data caches are private to a core (they live in
//! [`CoreMemSys`]), while the L2, the far tier and committed memory form
//! one [`SharedMemSystem`]. A core owns that tier by value while it runs:
//! a single-core machine's core holds it for the whole run, and a
//! multi-core machine keeps the one tier and lends it to the core it is
//! about to step ([`CoreMemSys::receive`]), taking it back afterwards
//! ([`CoreMemSys::hand_back`]). An access through a core that does not
//! hold the tier panics; it never reads a stale copy.
//!
//! Sharing is single-threaded by design: the multi-core scheduler
//! interleaves cores deterministically on one host thread, so exactly one
//! core touches the tier at a time and every simulated schedule is
//! reproducible from its seed. Cross-thread parallelism stays where it
//! already is — *between* independent simulations in `run_matrix`, never
//! inside one machine.
//!
//! The defined cross-core commit point is a store's retirement (or its
//! head-of-ROB bypass, which can only happen when every older instruction
//! of that core has already retired): [`CoreMemSys::write`] is the only
//! path by which a core's store becomes visible to its siblings, so
//! committed stores from different cores interleave in retirement order
//! under whatever core schedule the driver runs.
//!
//! # Examples
//!
//! ```
//! use aim_mem::{CoreMemSys, MainMemory, MemLevel, MemSpec, SharedMemSystem};
//! use aim_types::Addr;
//!
//! let tier = SharedMemSystem::new(MainMemory::new(), MemSpec::default());
//! let mut c0 = CoreMemSys::detached(MemSpec::default());
//! let mut c1 = CoreMemSys::detached(MemSpec::default());
//!
//! c0.receive(tier);
//! let (level, _) = c0.access_data_at(Addr(0x4000), 0);
//! assert_eq!(level, MemLevel::Memory); // cold everywhere
//! c1.receive(c0.hand_back());
//! // Core 1 misses its private L1D but hits the shared L2 that core 0 filled.
//! let (level, _) = c1.access_data_at(Addr(0x4000), 1);
//! assert_eq!(level, MemLevel::L2);
//! ```

use aim_types::{Addr, MemAccess};

use crate::cache::{Cache, CacheStats};
use crate::far::{FarMemory, FarStats};
use crate::hierarchy::{MemLevel, MemSpec};
use crate::memory::MainMemory;

/// The panic message of an access through a core that does not hold the
/// shared tier.
const LENT: &str = "shared memory tier accessed while lent to another core";

/// The process-wide tier of the memory system: committed architectural
/// memory plus the unified L2 cache (and, when configured, the far-memory
/// tier behind it), shared by every core.
#[derive(Debug)]
pub struct SharedMemSystem {
    mem: MainMemory,
    l2: Cache,
    far: Option<FarMemory>,
}

impl SharedMemSystem {
    /// Builds the shared tier over an initial committed-memory image. A
    /// [`MemSpec::far`] tier, when present, lives here — shared by every
    /// core, like the L2 it sits behind.
    pub fn new(mem: MainMemory, config: MemSpec) -> SharedMemSystem {
        SharedMemSystem {
            mem,
            l2: Cache::new(config.l2),
            far: config.far.map(FarMemory::new),
        }
    }

    /// The committed memory image.
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Hit/miss counters of the shared L2.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Counters of the far-memory tier, if one is configured.
    pub fn far_stats(&self) -> Option<FarStats> {
        self.far.as_ref().map(FarMemory::stats)
    }

    /// Unwraps the committed memory image.
    pub fn into_memory(self) -> MainMemory {
        self.mem
    }
}

/// One core's view of the memory system: private L1I/L1D caches in front of
/// the [`SharedMemSystem`], which the core holds while it runs.
///
/// Every access walks one latency ladder: L1 hit → `l1_hit_cycles`; L2 hit
/// → `+l1_miss_cycles`; L2 miss → `+l2_miss_cycles`, or the far tier's
/// completion time when one is configured.
#[derive(Debug)]
pub struct CoreMemSys {
    config: MemSpec,
    l1i: Cache,
    l1d: Cache,
    shared: Option<SharedMemSystem>,
}

impl CoreMemSys {
    /// Builds a self-contained single-core memory system that holds its
    /// own shared tier for good — the single-core `Machine` path.
    pub fn single(mem: MainMemory, config: MemSpec) -> CoreMemSys {
        CoreMemSys {
            shared: Some(SharedMemSystem::new(mem, config)),
            ..CoreMemSys::detached(config)
        }
    }

    /// Builds a core (cold private L1s) that does not hold the shared tier
    /// yet: a multi-core machine lends it with [`CoreMemSys::receive`].
    pub fn detached(config: MemSpec) -> CoreMemSys {
        CoreMemSys {
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            shared: None,
        }
    }

    /// Lends the shared tier to this core until [`CoreMemSys::hand_back`].
    ///
    /// # Panics
    ///
    /// Panics if the core already holds a tier.
    pub fn receive(&mut self, shared: SharedMemSystem) {
        assert!(
            self.shared.replace(shared).is_none(),
            "core already holds the shared memory tier"
        );
    }

    /// Takes the shared tier back from this core.
    ///
    /// # Panics
    ///
    /// Panics if the core does not hold it.
    pub fn hand_back(&mut self) -> SharedMemSystem {
        self.shared.take().expect(LENT)
    }

    fn tier(&self) -> &SharedMemSystem {
        self.shared.as_ref().expect(LENT)
    }

    fn tier_mut(&mut self) -> &mut SharedMemSystem {
        self.shared.as_mut().expect(LENT)
    }

    /// The latency ladder: the one place an access's serving level and
    /// latency are computed.
    fn access_at(&mut self, instr: bool, addr: Addr, now: u64) -> (MemLevel, u64) {
        let cfg = &self.config;
        let l1 = if instr { &mut self.l1i } else { &mut self.l1d };
        if l1.access(addr) {
            return (MemLevel::L1, cfg.l1_hit_cycles);
        }
        let shared = self.shared.as_mut().expect(LENT);
        let base = cfg.l1_hit_cycles + cfg.l1_miss_cycles;
        if shared.l2.access(addr) {
            return (MemLevel::L2, base);
        }
        let fill = match shared.far.as_mut() {
            Some(far) => far.access(cfg.far_line(addr), now),
            None => cfg.l2_miss_cycles,
        };
        (MemLevel::Memory, base + fill)
    }

    /// Fetches an instruction address at cycle `now`; returns the serving
    /// level and latency. With a far tier, an L2 miss goes to far memory
    /// with never-refuse (queueing) semantics.
    pub fn access_instr_at(&mut self, addr: Addr, now: u64) -> (MemLevel, u64) {
        self.access_at(true, addr, now)
    }

    /// Accesses a data address at cycle `now`; returns the serving level
    /// and latency. With a far tier, an L2 miss goes to far memory with
    /// never-refuse (queueing) semantics — the path for accesses that
    /// cannot be replayed (store commit, head-of-ROB bypass, forwarded-load
    /// tag touch) and for loads [`CoreMemSys::admit_data_at`] admitted.
    pub fn access_data_at(&mut self, addr: Addr, now: u64) -> (MemLevel, u64) {
        self.access_at(false, addr, now)
    }

    /// Admission check for a refusable data access at cycle `now`: `false`
    /// means the access would miss both caches into a far tier whose MSHRs
    /// are all busy (counted against the tier's `busy` stat) — nothing is
    /// filled or allocated, so the caller can drop and replay the access as
    /// if it never happened. Always `true` without a far tier.
    pub fn admit_data_at(&mut self, addr: Addr, now: u64) -> bool {
        let shared = self.shared.as_mut().expect(LENT);
        match shared.far.as_mut() {
            Some(far) if !self.l1d.probe(addr) && !shared.l2.probe(addr) => {
                far.admit(self.config.far_line(addr), now)
            }
            _ => true,
        }
    }

    /// Counters of the shared far-memory tier, if one is configured.
    pub fn far_stats(&self) -> Option<FarStats> {
        self.tier().far_stats()
    }

    /// Reads committed memory.
    pub fn read(&self, access: MemAccess) -> u64 {
        self.tier().mem.read(access)
    }

    /// Commits a store to shared memory — the cross-core visibility point.
    pub fn write(&mut self, access: MemAccess, value: u64) {
        self.tier_mut().mem.write(access, value);
    }

    /// Commits a store at cycle `now` with its write-back cache traffic:
    /// writes the value to shared memory and issues the never-refuse data
    /// access that fills the tags and occupies far-tier MSHRs. This is the
    /// single commit path for both detailed retirement and functional
    /// warm-up, so the cache/far state a sampled window inherits matches
    /// what a full-detail run would have produced. Returns the serving
    /// level and latency (retirement ignores it — commit never stalls).
    pub fn commit_store(&mut self, access: MemAccess, value: u64, now: u64) -> (MemLevel, u64) {
        self.write(access, value);
        self.access_data_at(access.addr(), now)
    }

    /// The committed memory image (for backends, which take `&MainMemory`).
    pub fn mem(&self) -> &MainMemory {
        &self.tier().mem
    }

    /// Hit/miss counters for (this core's L1I, this core's L1D, the shared
    /// L2). The L2 column reports the whole shared cache — for a
    /// single-core system that is exactly the per-core traffic; with
    /// siblings it aggregates every core's refills.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (self.l1i.stats(), self.l1d.stats(), self.tier().l2.stats())
    }

    /// Unwraps the committed memory image of the tier this core holds.
    pub fn into_memory(self) -> MainMemory {
        self.shared.expect(LENT).into_memory()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FarSpec;
    use aim_types::AccessSize;

    fn double(addr: u64) -> MemAccess {
        MemAccess::new(Addr(addr), AccessSize::Double).unwrap()
    }

    #[test]
    fn commit_store_writes_and_fills_tags() {
        let cfg = MemSpec::default();
        let mut c = CoreMemSys::single(MainMemory::new(), cfg);
        let access = double(0x8000);
        let (lv, _) = c.commit_store(access, 0xDEAD_BEEF, 0);
        assert_eq!(lv, MemLevel::Memory);
        assert_eq!(c.read(access), 0xDEAD_BEEF);
        // The commit filled the cache line: a re-access hits L1.
        let (lv, lat) = c.access_data_at(access.addr(), 1);
        assert_eq!((lv, lat), (MemLevel::L1, cfg.l1_hit_cycles));
    }

    #[test]
    fn l2_is_shared_and_l1_private() {
        let cfg = MemSpec::default();
        let mut c0 = CoreMemSys::detached(cfg);
        let mut c1 = CoreMemSys::detached(cfg);
        c0.receive(SharedMemSystem::new(MainMemory::new(), cfg));
        let (lv, _) = c0.access_data_at(Addr(0x4000), 0);
        assert_eq!(lv, MemLevel::Memory);
        // Sibling misses its private L1D, hits the L2 line core 0 filled.
        c1.receive(c0.hand_back());
        let (lv, lat) = c1.access_data_at(Addr(0x4000), 1);
        assert_eq!((lv, lat), (MemLevel::L2, 11));
        // Each core's L1D saw exactly one access; the shared L2 saw both.
        assert_eq!(c1.stats().1.accesses(), 1);
        let tier = c1.hand_back();
        assert_eq!(tier.l2_stats().accesses(), 2);
        c0.receive(tier);
        assert_eq!(c0.stats().1.accesses(), 1);
    }

    #[test]
    fn writes_are_visible_across_cores() {
        let cfg = MemSpec::default();
        let mut c0 = CoreMemSys::single(MainMemory::new(), cfg);
        let mut c1 = CoreMemSys::detached(cfg);
        let acc = double(0x1000);
        c0.write(acc, 0xdead_beef);
        c1.receive(c0.hand_back());
        assert_eq!(c1.read(acc), 0xdead_beef);
    }

    #[test]
    #[should_panic(expected = "lent to another core")]
    fn access_while_the_tier_is_lent_away_panics() {
        let cfg = MemSpec::default();
        let mut c0 = CoreMemSys::single(MainMemory::new(), cfg);
        let mut c1 = CoreMemSys::detached(cfg);
        c1.receive(c0.hand_back());
        // An L1 hit would never reach the tier; a cold access must.
        let _ = c0.access_data_at(Addr(0x4000), 0);
    }

    #[test]
    fn far_tier_replaces_the_near_memory_ladder_step() {
        let cfg = MemSpec::default().with_far(FarSpec::new(400, 4, 1));
        let mut c = CoreMemSys::single(MainMemory::new(), cfg);
        // Cold miss at cycle 0: 1 (L1) + 10 (L2) + 400 (far) = 411.
        assert_eq!(c.access_data_at(Addr(0x4000), 0), (MemLevel::Memory, 411));
        // The tags filled, so a later access hits L1 as usual.
        assert_eq!(c.access_data_at(Addr(0x4000), 5), (MemLevel::L1, 1));
        let far = c.far_stats().unwrap();
        assert_eq!((far.accesses, far.coalesced), (1, 0));
    }

    #[test]
    fn far_misses_coalesce_across_sibling_cores() {
        let cfg = MemSpec::default().with_far(FarSpec::new(400, 4, 1));
        let mut c0 = CoreMemSys::single(MainMemory::new(), cfg);
        let mut c1 = CoreMemSys::detached(cfg);
        assert_eq!(c0.access_data_at(Addr(0x4000), 0), (MemLevel::Memory, 411));
        // Core 1 misses its private L1D, hits the L2 line core 0 already
        // filled — no second far miss.
        c1.receive(c0.hand_back());
        assert_eq!(c1.access_data_at(Addr(0x4000), 10), (MemLevel::L2, 11));
        // A different L2 line of the same far region is a fresh far miss
        // that coalesces only if the far line matches; 0x4080 is L2 line
        // 0x81 vs 0x80, so it allocates a second MSHR.
        assert_eq!(c1.access_data_at(Addr(0x4080), 10), (MemLevel::Memory, 411));
        let far = c1.hand_back().far_stats().unwrap();
        assert_eq!((far.accesses, far.peak_inflight), (2, 2));
    }

    /// Without a far tier the ladder ignores the clock: the same stream
    /// at any cycles gives the same levels, latencies and counters, and
    /// every admission succeeds.
    #[test]
    fn near_ladder_ignores_the_clock_without_a_far_tier() {
        let cfg = MemSpec::default();
        let mut early = CoreMemSys::single(MainMemory::new(), cfg);
        let mut late = CoreMemSys::single(MainMemory::new(), cfg);
        let addrs = [0x0u64, 0x40, 0x9000, 0x0, 0x9040, 0x2_0000, 0x9000];
        for (i, &a) in addrs.iter().enumerate() {
            let now = i as u64 * 3;
            assert_eq!(
                early.access_instr_at(Addr(a), 0),
                late.access_instr_at(Addr(a), now + 1_000)
            );
            assert!(late.admit_data_at(Addr(a), now));
            assert_eq!(
                early.access_data_at(Addr(a), 0),
                late.access_data_at(Addr(a), now + 1_000)
            );
        }
        assert_eq!(early.stats(), late.stats());
        assert_eq!(late.far_stats(), None);
    }

    #[test]
    fn refused_far_access_leaves_no_trace() {
        let cfg = MemSpec::default().with_far(FarSpec::new(100, 1, 1));
        let mut c = CoreMemSys::single(MainMemory::new(), cfg);
        assert!(c.admit_data_at(Addr(0x1000), 0));
        assert_eq!(c.access_data_at(Addr(0x1000), 0), (MemLevel::Memory, 111));
        // The only MSHR is busy with a different line: refused.
        assert!(!c.admit_data_at(Addr(0x8000), 10));
        let (_, l1d, l2) = c.stats();
        // The refused admission filled and counted nothing but `busy`.
        assert_eq!(l1d.accesses(), 1);
        assert_eq!(l2.accesses(), 1);
        let far = c.far_stats().unwrap();
        assert_eq!((far.accesses, far.busy), (1, 1));
        // Replaying after the MSHR drains succeeds with full latency: the
        // refused line's tags were never filled.
        assert!(c.admit_data_at(Addr(0x8000), 100));
        assert_eq!(c.access_data_at(Addr(0x8000), 100), (MemLevel::Memory, 111));
    }

    #[test]
    fn into_memory_takes_the_committed_image() {
        let cfg = MemSpec::default();
        let acc = double(0x8);
        let mut solo = CoreMemSys::single(MainMemory::new(), cfg);
        solo.write(acc, 7);
        assert_eq!(solo.into_memory().read(acc), 7);

        let mut c0 = CoreMemSys::single(MainMemory::new(), cfg);
        c0.write(acc, 9);
        assert_eq!(c0.hand_back().into_memory().read(acc), 9);
    }
}
