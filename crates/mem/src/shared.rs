//! The shared memory system: one committed [`MainMemory`] and one unified
//! L2 cache, shared by N per-core memory systems.
//!
//! This is the multi-core split of [`CacheHierarchy`](crate::CacheHierarchy):
//! the L1 instruction and data caches are private to a core (they live in
//! [`CoreMemSys`]), while the L2 and committed memory are process-wide state
//! behind a [`SharedHandle`]. A single-core machine is the degenerate case —
//! one `CoreMemSys` holding the only handle — and its hit/miss/latency
//! behavior is operation-for-operation identical to `CacheHierarchy`, which
//! is what the N=1 stats-fingerprint gate in `aim-bench hostperf --check`
//! asserts.
//!
//! Sharing is single-threaded by design (`Rc<RefCell<..>>`): the multi-core
//! scheduler interleaves cores deterministically on one host thread, which
//! keeps every simulated schedule reproducible from its seed. Cross-thread
//! parallelism stays where it already is — *between* independent
//! simulations in `run_matrix`, never inside one machine.
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
//! use aim_mem::{CoreMemSys, HierarchyConfig, MainMemory, MemLevel, SharedMemSystem};
//! use aim_types::Addr;
//!
//! let shared = SharedMemSystem::new(MainMemory::new(), HierarchyConfig::default()).into_handle();
//! let mut c0 = CoreMemSys::attach(0, HierarchyConfig::default(), shared.clone());
//! let mut c1 = CoreMemSys::attach(1, HierarchyConfig::default(), shared);
//!
//! let (level, _) = c0.access_data(Addr(0x4000));
//! assert_eq!(level, MemLevel::Memory); // cold everywhere
//! // Core 1 misses its private L1D but hits the shared L2 that core 0 filled.
//! let (level, _) = c1.access_data(Addr(0x4000));
//! assert_eq!(level, MemLevel::L2);
//! ```

use std::cell::{Ref, RefCell};
use std::rc::Rc;

use aim_types::{Addr, MemAccess};

use crate::cache::{Cache, CacheStats};
use crate::far::{FarMemory, FarStats};
use crate::hierarchy::{HierarchyConfig, MemLevel};
use crate::memory::MainMemory;

/// The process-wide tier of the memory system: committed architectural
/// memory plus the unified L2 cache (and, when configured, the far-memory
/// tier behind it), shared by every core.
#[derive(Debug)]
pub struct SharedMemSystem {
    mem: MainMemory,
    l2: Cache,
    far: Option<FarMemory>,
}

/// A shared, single-threaded handle to the [`SharedMemSystem`]. Cores hold
/// clones; the multi-core driver holds one more for final-state extraction.
pub type SharedHandle = Rc<RefCell<SharedMemSystem>>;

impl SharedMemSystem {
    /// Builds the shared tier over an initial committed-memory image. A
    /// [`MemSpec::far`](crate::MemSpec::far) tier, when present, lives here
    /// — shared by every attached core, like the L2 it sits behind.
    pub fn new(mem: MainMemory, config: HierarchyConfig) -> SharedMemSystem {
        SharedMemSystem {
            mem,
            l2: Cache::new(config.l2),
            far: config.far.map(FarMemory::new),
        }
    }

    /// Wraps the system in a [`SharedHandle`] for cores to clone.
    pub fn into_handle(self) -> SharedHandle {
        Rc::new(RefCell::new(self))
    }

    /// The committed memory image.
    pub fn mem(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable committed memory (store commit, test setup).
    pub fn mem_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
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
/// the [`SharedMemSystem`].
///
/// The access methods replicate `CacheHierarchy`'s latency ladder exactly
/// (L1 hit → `l1_hit_cycles`; L2 hit → `+l1_miss_cycles`; memory →
/// `+l2_miss_cycles`), so a core attached to an otherwise-idle shared
/// system is indistinguishable from the single-core hierarchy.
#[derive(Debug)]
pub struct CoreMemSys {
    core_id: usize,
    config: HierarchyConfig,
    l1i: Cache,
    l1d: Cache,
    shared: SharedHandle,
}

impl CoreMemSys {
    /// Attaches a new core (cold private L1s) to a shared system.
    pub fn attach(core_id: usize, config: HierarchyConfig, shared: SharedHandle) -> CoreMemSys {
        CoreMemSys {
            core_id,
            config,
            l1i: Cache::new(config.l1i),
            l1d: Cache::new(config.l1d),
            shared,
        }
    }

    /// Builds a self-contained single-core memory system (core id 0) over
    /// its own private shared tier — the single-core `Machine` path.
    pub fn single(mem: MainMemory, config: HierarchyConfig) -> CoreMemSys {
        CoreMemSys::attach(0, config, SharedMemSystem::new(mem, config).into_handle())
    }

    /// This core's id.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// The configured hierarchy parameters.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// The handle to the shared tier (clone to attach sibling cores).
    pub fn shared(&self) -> &SharedHandle {
        &self.shared
    }

    fn access(&mut self, instr: bool, addr: Addr) -> (MemLevel, u64) {
        let cfg = &self.config;
        let l1 = if instr { &mut self.l1i } else { &mut self.l1d };
        if l1.access(addr) {
            (MemLevel::L1, cfg.l1_hit_cycles)
        } else if self.shared.borrow_mut().l2.access(addr) {
            (MemLevel::L2, cfg.l1_hit_cycles + cfg.l1_miss_cycles)
        } else {
            (
                MemLevel::Memory,
                cfg.l1_hit_cycles + cfg.l1_miss_cycles + cfg.l2_miss_cycles,
            )
        }
    }

    fn access_at(&mut self, instr: bool, addr: Addr, now: u64) -> (MemLevel, u64) {
        let cfg = self.config;
        let l1 = if instr { &mut self.l1i } else { &mut self.l1d };
        if l1.access(addr) {
            return (MemLevel::L1, cfg.l1_hit_cycles);
        }
        let mut shared = self.shared.borrow_mut();
        let base = cfg.l1_hit_cycles + cfg.l1_miss_cycles;
        if shared.l2.access(addr) {
            (MemLevel::L2, base)
        } else {
            match shared.far.as_mut() {
                Some(far) => (MemLevel::Memory, base + far.access(cfg.far_line(addr), now)),
                None => (MemLevel::Memory, base + cfg.l2_miss_cycles),
            }
        }
    }

    /// Fetches an instruction address; returns the serving level and latency.
    ///
    /// This legacy form ignores any far tier (it has no notion of the
    /// current cycle) — far-aware callers use [`CoreMemSys::access_instr_at`].
    pub fn access_instr(&mut self, addr: Addr) -> (MemLevel, u64) {
        self.access(true, addr)
    }

    /// Accesses a data address (load, or store commit); returns the serving
    /// level and latency in cycles.
    ///
    /// This legacy form ignores any far tier (it has no notion of the
    /// current cycle) — far-aware callers use [`CoreMemSys::access_data_at`].
    pub fn access_data(&mut self, addr: Addr) -> (MemLevel, u64) {
        self.access(false, addr)
    }

    /// Fetches an instruction address at cycle `now`. Identical to
    /// [`CoreMemSys::access_instr`] without a far tier; with one, an L2
    /// miss goes to far memory with never-refuse (queueing) semantics.
    pub fn access_instr_at(&mut self, addr: Addr, now: u64) -> (MemLevel, u64) {
        self.access_at(true, addr, now)
    }

    /// Accesses a data address at cycle `now`. Identical to
    /// [`CoreMemSys::access_data`] without a far tier; with one, an L2
    /// miss goes to far memory with never-refuse (queueing) semantics —
    /// the path for accesses that cannot be replayed (store commit,
    /// head-of-ROB bypass, forwarded-load tag touch).
    pub fn access_data_at(&mut self, addr: Addr, now: u64) -> (MemLevel, u64) {
        self.access_at(false, addr, now)
    }

    /// Admission check for a refusable data access at cycle `now`: `false`
    /// means the access would miss both caches into a far tier whose MSHRs
    /// are all busy (counted against the tier's `busy` stat) — nothing is
    /// filled or allocated, so the caller can drop and replay the access as
    /// if it never happened. Always `true` without a far tier.
    pub fn admit_data_at(&mut self, addr: Addr, now: u64) -> bool {
        let mut shared = self.shared.borrow_mut();
        let s = &mut *shared;
        match s.far.as_mut() {
            Some(far) if !self.l1d.probe(addr) && !s.l2.probe(addr) => {
                far.admit(self.config.far_line(addr), now)
            }
            _ => true,
        }
    }

    /// Accesses a data address at cycle `now` with refusable far-memory
    /// semantics: `None` means the access would miss to far memory but
    /// every MSHR is busy — nothing is filled or counted, so the caller
    /// can replay the access later as if it never happened. Always `Some`
    /// without a far tier (then identical to [`CoreMemSys::access_data`]).
    pub fn try_access_data_at(&mut self, addr: Addr, now: u64) -> Option<(MemLevel, u64)> {
        let cfg = self.config;
        let far_miss = self.shared.borrow().far.is_some()
            && !self.l1d.probe(addr)
            && !self.shared.borrow().l2.probe(addr);
        if far_miss {
            // Reserve the MSHR before filling any tags: a refused access
            // must leave no trace, so its replay probes a cold path again.
            let mut shared = self.shared.borrow_mut();
            let far = shared.far.as_mut().expect("probed far_miss above");
            let extra = far.try_access(cfg.far_line(addr), now)?;
            let l1_hit = self.l1d.access(addr);
            let l2_hit = shared.l2.access(addr);
            debug_assert!(!l1_hit && !l2_hit, "probes said both tags miss");
            return Some((
                MemLevel::Memory,
                cfg.l1_hit_cycles + cfg.l1_miss_cycles + extra,
            ));
        }
        Some(self.access_at(false, addr, now))
    }

    /// Counters of the shared far-memory tier, if one is configured.
    pub fn far_stats(&self) -> Option<FarStats> {
        self.shared.borrow().far_stats()
    }

    /// Reads committed memory.
    pub fn read(&self, access: MemAccess) -> u64 {
        self.shared.borrow().mem.read(access)
    }

    /// Commits a store to shared memory — the cross-core visibility point.
    pub fn write(&mut self, access: MemAccess, value: u64) {
        self.shared.borrow_mut().mem.write(access, value);
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

    /// Borrows the committed memory image (for backends, which take
    /// `&MainMemory`). The borrow is a `RefCell` guard: do not hold it
    /// across another `CoreMemSys` call.
    pub fn mem(&self) -> Ref<'_, MainMemory> {
        Ref::map(self.shared.borrow(), |s| &s.mem)
    }

    /// Hit/miss counters for (this core's L1I, this core's L1D, the shared
    /// L2). The L2 column reports the whole shared cache — for a
    /// single-core system that is exactly the per-core traffic; with
    /// siblings attached it aggregates every core's refills.
    pub fn stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        (
            self.l1i.stats(),
            self.l1d.stats(),
            self.shared.borrow().l2.stats(),
        )
    }

    /// Unwraps the committed memory image: takes it if this is the last
    /// handle to the shared tier, clones it otherwise.
    pub fn into_memory(self) -> MainMemory {
        match Rc::try_unwrap(self.shared) {
            Ok(cell) => cell.into_inner().mem,
            Err(shared) => shared.borrow().mem.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchy;

    #[test]
    fn single_core_matches_cache_hierarchy_exactly() {
        let cfg = HierarchyConfig::default();
        let mut h = CacheHierarchy::new(cfg);
        let mut c = CoreMemSys::single(MainMemory::new(), cfg);
        // A mixed instruction/data stream with reuse at every level.
        let addrs = [
            0x0u64, 0x40, 0x80, 0x9000, 0x9040, 0x0, 0x9000, 0x2_0000, 0x9000, 0x40,
        ];
        for (i, &a) in addrs.iter().enumerate() {
            if i % 3 == 0 {
                assert_eq!(h.access_instr(Addr(a)), c.access_instr(Addr(a)), "i@{a:#x}");
            } else {
                assert_eq!(h.access_data(Addr(a)), c.access_data(Addr(a)), "d@{a:#x}");
            }
        }
        assert_eq!(h.stats(), c.stats());
    }

    #[test]
    fn commit_store_writes_and_fills_tags() {
        let cfg = HierarchyConfig::default();
        let mut c = CoreMemSys::single(MainMemory::new(), cfg);
        let access = MemAccess::new(Addr(0x8000), aim_types::AccessSize::Double).unwrap();
        let (lv, _) = c.commit_store(access, 0xDEAD_BEEF, 0);
        assert_eq!(lv, MemLevel::Memory);
        assert_eq!(c.read(access), 0xDEAD_BEEF);
        // The commit filled the cache line: a re-access hits L1.
        let (lv, lat) = c.access_data_at(access.addr(), 1);
        assert_eq!((lv, lat), (MemLevel::L1, cfg.l1_hit_cycles));
    }

    #[test]
    fn l2_is_shared_and_l1_private() {
        let cfg = HierarchyConfig::default();
        let shared = SharedMemSystem::new(MainMemory::new(), cfg).into_handle();
        let mut c0 = CoreMemSys::attach(0, cfg, shared.clone());
        let mut c1 = CoreMemSys::attach(1, cfg, shared.clone());
        let (lv, _) = c0.access_data(Addr(0x4000));
        assert_eq!(lv, MemLevel::Memory);
        // Sibling misses its private L1D, hits the L2 line core 0 filled.
        let (lv, lat) = c1.access_data(Addr(0x4000));
        assert_eq!((lv, lat), (MemLevel::L2, 11));
        // Each core's L1D saw exactly one access; the shared L2 saw both.
        assert_eq!(c0.stats().1.accesses(), 1);
        assert_eq!(c1.stats().1.accesses(), 1);
        assert_eq!(shared.borrow().l2_stats().accesses(), 2);
    }

    #[test]
    fn writes_are_visible_across_cores() {
        let cfg = HierarchyConfig::default();
        let shared = SharedMemSystem::new(MainMemory::new(), cfg).into_handle();
        let mut c0 = CoreMemSys::attach(0, cfg, shared.clone());
        let c1 = CoreMemSys::attach(1, cfg, shared);
        let acc = MemAccess::new(Addr(0x1000), aim_types::AccessSize::Double).unwrap();
        c0.write(acc, 0xdead_beef);
        assert_eq!(c1.read(acc), 0xdead_beef);
    }

    #[test]
    fn at_variants_match_legacy_without_a_far_tier() {
        let cfg = HierarchyConfig::default();
        let mut legacy = CoreMemSys::single(MainMemory::new(), cfg);
        let mut at = CoreMemSys::single(MainMemory::new(), cfg);
        let addrs = [0x0u64, 0x40, 0x9000, 0x0, 0x9040, 0x2_0000, 0x9000];
        for (i, &a) in addrs.iter().enumerate() {
            let now = i as u64 * 3;
            assert_eq!(legacy.access_instr(Addr(a)), at.access_instr_at(Addr(a), now));
            assert_eq!(legacy.access_data(Addr(a)), at.access_data_at(Addr(a), now));
            let (lv, lat) = legacy.access_data(Addr(a));
            assert_eq!(at.try_access_data_at(Addr(a), now), Some((lv, lat)));
        }
        assert_eq!(legacy.stats(), at.stats());
        assert_eq!(at.far_stats(), None);
    }

    #[test]
    fn far_tier_replaces_the_near_memory_ladder_step() {
        let cfg = HierarchyConfig::default().with_far(crate::FarSpec::new(400, 4, 1));
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
        let cfg = HierarchyConfig::default().with_far(crate::FarSpec::new(400, 4, 1));
        let shared = SharedMemSystem::new(MainMemory::new(), cfg).into_handle();
        let mut c0 = CoreMemSys::attach(0, cfg, shared.clone());
        let mut c1 = CoreMemSys::attach(1, cfg, shared.clone());
        assert_eq!(c0.access_data_at(Addr(0x4000), 0), (MemLevel::Memory, 411));
        // Core 1 misses its private L1D, hits the L2 line core 0 already
        // filled — no second far miss.
        assert_eq!(c1.access_data_at(Addr(0x4000), 10), (MemLevel::L2, 11));
        // A different L2 line of the same far region is a fresh far miss
        // that coalesces only if the far line matches; 0x4080 is L2 line
        // 0x81 vs 0x80, so it allocates a second MSHR.
        assert_eq!(c1.access_data_at(Addr(0x4080), 10), (MemLevel::Memory, 411));
        let far = shared.borrow().far_stats().unwrap();
        assert_eq!((far.accesses, far.peak_inflight), (2, 2));
    }

    #[test]
    fn refused_far_access_leaves_no_trace() {
        let cfg = HierarchyConfig::default().with_far(crate::FarSpec::new(100, 1, 1));
        let mut c = CoreMemSys::single(MainMemory::new(), cfg);
        assert_eq!(c.try_access_data_at(Addr(0x1000), 0), Some((MemLevel::Memory, 111)));
        // The only MSHR is busy with a different line: refused.
        assert_eq!(c.try_access_data_at(Addr(0x8000), 10), None);
        let (_, l1d, l2) = c.stats();
        // The refused access filled and counted nothing.
        assert_eq!(l1d.accesses(), 1);
        assert_eq!(l2.accesses(), 1);
        assert_eq!(c.far_stats().unwrap().busy, 1);
        // Replaying after the MSHR drains succeeds with full latency.
        assert_eq!(
            c.try_access_data_at(Addr(0x8000), 100),
            Some((MemLevel::Memory, 111))
        );
    }

    #[test]
    fn into_memory_takes_or_clones() {
        let cfg = HierarchyConfig::default();
        let acc = MemAccess::new(Addr(0x8), aim_types::AccessSize::Double).unwrap();
        let mut solo = CoreMemSys::single(MainMemory::new(), cfg);
        solo.write(acc, 7);
        assert_eq!(solo.into_memory().read(acc), 7);

        let shared = SharedMemSystem::new(MainMemory::new(), cfg).into_handle();
        let mut c0 = CoreMemSys::attach(0, cfg, shared.clone());
        c0.write(acc, 9);
        // Another handle is still alive, so this clones.
        assert_eq!(c0.into_memory().read(acc), 9);
        assert_eq!(shared.borrow().mem().read(acc), 9);
    }
}
