//! A filtered load/store queue: an address-indexed store-presence filter in
//! front of a small CAM store queue.
//!
//! The §4 filtering data shows most loads never alias an in-flight store, so
//! paying an associative store-queue search for every load is mostly wasted
//! comparator energy. In the spirit of the MDT — and of Szafarczyk, Nabi &
//! Vanderbauwhede's HLS load-store queue — this backend keeps a small
//! set-associative table of per-8-byte-word counters tracking which words
//! have an *executed, unretired* store in flight:
//!
//! * a store bumps its word's counter at execute and decrements it at retire
//!   (or squash);
//! * a load probes the filter first. A **miss** proves no executed in-flight
//!   store covers any of its bytes (counting filters have no false
//!   negatives), so the load reads committed memory and skips the CAM search
//!   entirely ([`FilterStats::filtered_loads`]). A **hit** pays the
//!   associative search exactly like [`LsqBackend`](crate::LsqBackend).
//!
//! Disambiguation against *unexecuted* older stores is unaffected: every
//! load still records a load-queue entry, and a late-executing store's
//! load-queue search (the value-based check of §2.1/§3) catches any load
//! that read too early — filtered or not. The filter therefore changes
//! which loads pay the search, never the architectural outcome.
//!
//! Imprecision is conservative and tracked: a filter hit whose search
//! forwards nothing is a *false positive*
//! ([`FilterStats::false_positive_hits`] — e.g. a set/tag collision or a
//! younger same-word store), and a store that finds its set full or its
//! counter saturated falls back to a per-set overflow count
//! ([`FilterStats::saturation_fallbacks`]) that forces every load mapping to
//! that set to search until the overflowed stores drain.

use std::collections::VecDeque;

use aim_core::{SetHash, SetTable, TableGeometry};
use aim_lsq::{Lsq, LsqStats};
use aim_mem::MainMemory;
use aim_types::{MemAccess, SeqNum};

use crate::{
    BackendStats, DispatchStall, LoadOutcome, LoadRequest, MemBackend, MemKind, StoreOutcome,
    StoreRequest, Violation,
};

/// Geometry of the store-presence filter: `sets × ways` tagged counters over
/// 8-byte words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterConfig {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Ways per set (distinct words trackable per set).
    pub ways: usize,
    /// Counter saturation point: at most this many in-flight stores to the
    /// same word are counted precisely; beyond it the set falls back to the
    /// conservative overflow count.
    pub max_count: u32,
}

impl FilterConfig {
    /// Default geometry: 256 sets × 2 ways of 4-bit counters — 512 tracked
    /// words, comfortably above the baseline 32-entry store queue, in a
    /// table far cheaper than 48 CAM comparators.
    pub fn baseline() -> FilterConfig {
        FilterConfig {
            sets: 256,
            ways: 2,
            max_count: 15,
        }
    }

    /// A filter that can never saturate or conflict for a store queue of
    /// `store_entries` slots: one set with a way per possible in-flight
    /// store and unbounded counters. Used by the transparency tests.
    pub fn unsaturable(store_entries: usize) -> FilterConfig {
        FilterConfig {
            sets: 1,
            ways: store_entries.max(1),
            max_count: u32::MAX,
        }
    }

    /// The filter's shape as the shared [`TableGeometry`] (word index → set
    /// via the paper's low-bits hash; the flat `sets` / `ways` fields stay
    /// public for per-experiment mutation).
    pub fn geometry(&self) -> TableGeometry {
        TableGeometry {
            sets: self.sets,
            ways: self.ways,
            hash: SetHash::LowBits,
        }
    }

    /// Checks the geometry is well-formed and the counters hold at least
    /// one store.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the malformed field.
    pub fn check(&self) -> Result<(), String> {
        self.geometry().check("filter table")?;
        if self.max_count == 0 {
            return Err("filter counters must hold at least 1".to_string());
        }
        Ok(())
    }
}

/// Filter-side activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilterStats {
    /// Loads the filter proved alias-free: they bypassed the CAM search.
    pub filtered_loads: u64,
    /// Loads that hit the filter and paid the associative search.
    pub searched_loads: u64,
    /// Filter hits whose search forwarded nothing — conservative
    /// imprecision (tag aliasing, younger same-word stores, overflowed
    /// sets).
    pub false_positive_hits: u64,
    /// Stores the filter could not count precisely (set conflict or counter
    /// saturation); each forces its set conservative until it drains.
    pub saturation_fallbacks: u64,
}

/// Combined counters for the filtered backend: the wrapped queue's CAM
/// activity plus the filter's own.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FilteredStats {
    /// The wrapped load/store queue's counters. `sq_searches` here counts
    /// only the loads the filter did *not* skip.
    pub lsq: LsqStats,
    /// The filter's counters.
    pub filter: FilterStats,
}

/// Where an executed store was counted, so retirement/squash can undo it
/// exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterSlot {
    /// A precise per-word counter (flat `set * ways + way` slot index).
    Way(usize),
    /// The set's conservative overflow count.
    Overflow(usize),
}

/// The store-presence counting filter itself: a [`SetTable`] of word-index
/// keys whose payload column is a saturating in-flight-store count, plus a
/// per-set conservative overflow count for stores the table cannot hold
/// precisely. A way is occupied exactly while its count is nonzero, so the
/// alias probe is one branchless table probe plus one overflow-word test.
///
/// Extracted from [`FilteredLsqBackend`] so microbenchmarks can drive the
/// probe/insert/remove loop directly.
#[derive(Debug, Clone)]
pub struct StoreFilter {
    config: FilterConfig,
    /// Word-index keys + occupancy bit-words; occupied ⟺ `counts > 0`.
    table: SetTable,
    /// Per-slot in-flight store count, indexed by the table's flat slot.
    counts: Vec<u32>,
    /// Per-set count of stores the table could not hold precisely.
    overflow: Vec<u32>,
}

impl StoreFilter {
    /// Creates an empty filter.
    ///
    /// # Panics
    ///
    /// Panics unless [`FilterConfig::check`] passes.
    pub fn new(config: FilterConfig) -> StoreFilter {
        if let Err(e) = config.check() {
            panic!("{e}");
        }
        StoreFilter {
            config,
            table: SetTable::new(config.geometry()),
            counts: vec![0; config.sets * config.ways],
            overflow: vec![0; config.sets],
        }
    }

    /// The filter geometry.
    pub fn config(&self) -> FilterConfig {
        self.config
    }

    /// Whether an executed in-flight store *may* cover the 8-byte word with
    /// this index. Never returns false when one does (no false negatives).
    pub fn may_alias(&self, word_index: u64) -> bool {
        let set = self.table.set_of(word_index);
        self.overflow[set] > 0 || self.table.probe(set, word_index) != 0
    }

    /// Counts an executed store to a word, returning where it landed.
    /// [`FilterSlot::Overflow`] means the set or counter was full and the
    /// whole set went conservative.
    pub fn insert(&mut self, word_index: u64) -> FilterSlot {
        let set = self.table.set_of(word_index);
        if let Some(way) = self.table.first_match(set, word_index) {
            let slot = self.table.slot(set, way);
            if self.counts[slot] < self.config.max_count {
                self.counts[slot] += 1;
                return FilterSlot::Way(slot);
            }
            // Counter saturated: fall through to the overflow count.
        } else if let Some(way) = self.table.first_free(set) {
            self.table.occupy(set, way, word_index);
            let slot = self.table.slot(set, way);
            self.counts[slot] = 1;
            return FilterSlot::Way(slot);
        }
        self.overflow[set] += 1;
        FilterSlot::Overflow(set)
    }

    /// Undoes one [`StoreFilter::insert`].
    pub fn remove(&mut self, slot: FilterSlot) {
        match slot {
            FilterSlot::Way(idx) => {
                debug_assert!(self.counts[idx] > 0, "filter counter underflow");
                self.counts[idx] -= 1;
                if self.counts[idx] == 0 {
                    let ways = self.config.ways;
                    self.table.vacate(idx / ways, idx % ways);
                }
            }
            FilterSlot::Overflow(set) => {
                debug_assert!(self.overflow[set] > 0, "filter overflow underflow");
                self.overflow[set] -= 1;
            }
        }
    }
}

/// A dispatched store the filter is tracking. `slot` is `None` until the
/// store executes.
#[derive(Debug, Clone, Copy)]
struct TrackedStore {
    seq: SeqNum,
    slot: Option<FilterSlot>,
}

/// [`LsqBackend`](crate::LsqBackend) plus the store-presence filter: loads
/// that miss the filter skip the CAM search.
pub struct FilteredLsqBackend {
    lsq: Lsq,
    filter: StoreFilter,
    /// Dispatched, unretired stores in program order.
    stores: VecDeque<TrackedStore>,
    stats: FilterStats,
}

impl FilteredLsqBackend {
    /// Wraps a constructed [`Lsq`] with a filter of the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `filter.sets` is not a power of two or `filter.ways` /
    /// `filter.max_count` is zero.
    pub fn new(lsq: Lsq, filter: FilterConfig) -> FilteredLsqBackend {
        FilteredLsqBackend {
            lsq,
            filter: StoreFilter::new(filter),
            stores: VecDeque::new(),
            stats: FilterStats::default(),
        }
    }

    /// The filter geometry.
    pub fn filter_config(&self) -> FilterConfig {
        self.filter.config()
    }

    /// Drops tracked stores younger than `survivor`, uncounting any that had
    /// executed, and trims the wrapped queue.
    fn squash_to(&mut self, survivor: SeqNum) {
        while matches!(self.stores.back(), Some(t) if t.seq > survivor) {
            let t = self.stores.pop_back().expect("checked non-empty");
            if let Some(slot) = t.slot {
                self.filter.remove(slot);
            }
        }
        self.lsq.squash_after(survivor);
    }
}

impl MemBackend for FilteredLsqBackend {
    fn can_dispatch(&self, kind: MemKind) -> Result<(), DispatchStall> {
        match kind {
            MemKind::Load if !self.lsq.can_dispatch_load() => Err(DispatchStall::LoadQueueFull),
            MemKind::Store if !self.lsq.can_dispatch_store() => Err(DispatchStall::StoreQueueFull),
            _ => Ok(()),
        }
    }

    fn dispatch(&mut self, kind: MemKind, seq: SeqNum, pc: u64, _hint: Option<MemAccess>) {
        match kind {
            MemKind::Load => self.lsq.dispatch_load(seq, pc),
            MemKind::Store => {
                self.lsq.dispatch_store(seq, pc);
                self.stores.push_back(TrackedStore { seq, slot: None });
            }
        }
    }

    fn load_execute(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome {
        if self.filter.may_alias(req.access.addr().word_index()) {
            self.stats.searched_loads += 1;
            let lv = self.lsq.load_execute(req.seq, req.access, mem);
            if lv.forwarded_bytes == 0 {
                self.stats.false_positive_hits += 1;
            }
            LoadOutcome::Done {
                value: lv.value,
                forwarded: lv.forwarded_bytes == req.access.mask().count(),
            }
        } else {
            self.stats.filtered_loads += 1;
            let lv = self.lsq.load_execute_unsearched(req.seq, req.access, mem);
            LoadOutcome::Done {
                value: lv.value,
                forwarded: false,
            }
        }
    }

    fn store_execute(&mut self, req: &StoreRequest, mem: &MainMemory) -> StoreOutcome {
        let slot = self.filter.insert(req.access.addr().word_index());
        if matches!(slot, FilterSlot::Overflow(_)) {
            self.stats.saturation_fallbacks += 1;
        }
        let tracked = self
            .stores
            .iter_mut()
            .find(|t| t.seq == req.seq)
            .expect("store executed without dispatch");
        debug_assert!(tracked.slot.is_none(), "store executed twice");
        tracked.slot = Some(slot);
        let violations = self
            .lsq
            .store_execute(req.seq, req.access, req.value, mem)
            .map(|v| Violation {
                kind: v.kind,
                producer_pc: v.producer_pc,
                consumer_pc: v.consumer_pc,
                squash_after: v.squash_after,
            })
            .into_iter()
            .collect();
        StoreOutcome::Done {
            latency: 1,
            violations,
        }
    }

    fn retire_load(&mut self, seq: SeqNum, _access: MemAccess) {
        self.lsq.load_retire(seq);
    }

    fn retire_store(&mut self, seq: SeqNum, _access: MemAccess) {
        let t = self.stores.pop_front().expect("store retire on empty filter");
        assert_eq!(t.seq, seq, "store retirement out of order");
        let slot = t.slot.expect("retiring store never executed");
        self.filter.remove(slot);
        let _ = self.lsq.store_retire(seq);
    }

    fn squash_after(
        &mut self,
        survivor: SeqNum,
        _youngest: SeqNum,
        _surviving_executed_store: &dyn Fn() -> bool,
    ) {
        self.squash_to(survivor);
    }

    fn flush(&mut self) {
        self.squash_to(SeqNum(0));
    }

    fn stats_into(&self, out: &mut BackendStats) {
        *out = BackendStats::Filtered(FilteredStats {
            lsq: self.lsq.stats(),
            filter: self.stats,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_lsq::LsqConfig;
    use aim_types::{AccessSize, Addr, ViolationKind};

    fn d(addr: u64) -> MemAccess {
        MemAccess::new(Addr(addr), AccessSize::Double).unwrap()
    }

    fn backend(filter: FilterConfig) -> FilteredLsqBackend {
        FilteredLsqBackend::new(Lsq::new(LsqConfig::baseline_48x32()), filter)
    }

    fn load_req(seq: u64, access: MemAccess) -> LoadRequest {
        LoadRequest {
            seq: SeqNum(seq),
            pc: 0x1000 + 4 * seq,
            access,
            floor: SeqNum(1),
            filtered: false,
        }
    }

    fn store_req(seq: u64, access: MemAccess, value: u64) -> StoreRequest {
        StoreRequest {
            seq: SeqNum(seq),
            pc: 0x1000 + 4 * seq,
            access,
            value,
            floor: SeqNum(1),
            bypass: false,
        }
    }

    fn stats(b: &FilteredLsqBackend) -> FilteredStats {
        let mut out = BackendStats::default();
        b.stats_into(&mut out);
        match out {
            BackendStats::Filtered(s) => s,
            other => panic!("wrong stats family: {}", other.family()),
        }
    }

    #[test]
    fn filter_miss_bypasses_the_cam() {
        let mut b = backend(FilterConfig::baseline());
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, None);
        b.dispatch(MemKind::Load, SeqNum(2), 4, None);
        b.store_execute(&store_req(1, d(0x100), 7), &mem);
        // Different word: the filter proves no alias, no search fires.
        let out = b.load_execute(&load_req(2, d(0x200)), &mem);
        assert!(matches!(out, LoadOutcome::Done { value: 0, forwarded: false }));
        let s = stats(&b);
        assert_eq!(s.filter.filtered_loads, 1);
        assert_eq!(s.filter.searched_loads, 0);
        assert_eq!(s.lsq.sq_searches, 0);
        assert_eq!(s.lsq.sq_entries_compared, 0);
    }

    #[test]
    fn filter_hit_pays_the_search_and_forwards() {
        let mut b = backend(FilterConfig::baseline());
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, None);
        b.dispatch(MemKind::Load, SeqNum(2), 4, None);
        b.store_execute(&store_req(1, d(0x100), 0xABCD), &mem);
        let out = b.load_execute(&load_req(2, d(0x100)), &mem);
        assert!(matches!(out, LoadOutcome::Done { value: 0xABCD, forwarded: true }));
        let s = stats(&b);
        assert_eq!(s.filter.searched_loads, 1);
        assert_eq!(s.filter.filtered_loads, 0);
        assert_eq!(s.filter.false_positive_hits, 0);
        assert_eq!(s.lsq.sq_searches, 1);
        assert_eq!(s.lsq.full_forwards, 1);
    }

    #[test]
    fn younger_same_word_store_is_a_false_positive_hit() {
        // The presence filter is age-blind: a younger executed store makes
        // an older load search, and the search (correctly) forwards nothing.
        let mut b = backend(FilterConfig::baseline());
        let mem = MainMemory::new();
        b.dispatch(MemKind::Load, SeqNum(1), 0, None);
        b.dispatch(MemKind::Store, SeqNum(2), 4, None);
        b.store_execute(&store_req(2, d(0x100), 9), &mem);
        let out = b.load_execute(&load_req(1, d(0x100)), &mem);
        assert!(matches!(out, LoadOutcome::Done { value: 0, forwarded: false }));
        let s = stats(&b);
        assert_eq!(s.filter.searched_loads, 1);
        assert_eq!(s.filter.false_positive_hits, 1);
    }

    #[test]
    fn unexecuted_older_store_still_raises_the_violation() {
        // A filtered load is invisible to the filter but not to
        // disambiguation: the late store's load-queue search catches it.
        let mut b = backend(FilterConfig::baseline());
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0x10, None);
        b.dispatch(MemKind::Load, SeqNum(2), 0x14, None);
        let out = b.load_execute(&load_req(2, d(0x100)), &mem);
        assert!(matches!(out, LoadOutcome::Done { value: 0, .. }));
        assert_eq!(stats(&b).filter.filtered_loads, 1);
        let StoreOutcome::Done { violations, latency } =
            b.store_execute(&store_req(1, d(0x100), 5), &mem)
        else {
            panic!("filtered-LSQ stores never replay");
        };
        assert_eq!(latency, 1);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::True);
        assert_eq!(violations[0].squash_after, SeqNum(1));
    }

    #[test]
    fn saturation_falls_back_conservatively_and_drains() {
        // 1 set × 1 way: the second distinct word overflows the set, forcing
        // every load to search until that store retires.
        let mut b = backend(FilterConfig {
            sets: 1,
            ways: 1,
            max_count: 1,
        });
        let mut mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, None);
        b.dispatch(MemKind::Store, SeqNum(2), 4, None);
        b.dispatch(MemKind::Load, SeqNum(3), 8, None);
        b.store_execute(&store_req(1, d(0x100), 1), &mem);
        b.store_execute(&store_req(2, d(0x200), 2), &mem);
        assert_eq!(stats(&b).filter.saturation_fallbacks, 1);
        // Unrelated word, but the overflowed set is conservative.
        b.load_execute(&load_req(3, d(0x300)), &mem);
        assert_eq!(stats(&b).filter.searched_loads, 1);
        assert_eq!(stats(&b).filter.false_positive_hits, 1);
        // Retire both stores (committing their bytes first, like the
        // pipeline); the overflow drains and filtering resumes.
        mem.write(d(0x100), 1);
        b.retire_store(SeqNum(1), d(0x100));
        mem.write(d(0x200), 2);
        b.retire_store(SeqNum(2), d(0x200));
        b.retire_load(SeqNum(3), d(0x300));
        b.dispatch(MemKind::Load, SeqNum(4), 12, None);
        let out = b.load_execute(&load_req(4, d(0x300)), &mem);
        assert!(matches!(out, LoadOutcome::Done { value: 0, .. }));
        assert_eq!(stats(&b).filter.filtered_loads, 1);
    }

    #[test]
    fn squash_uncounts_executed_stores() {
        let mut b = backend(FilterConfig::baseline());
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, None);
        b.store_execute(&store_req(1, d(0x100), 7), &mem);
        b.squash_after(SeqNum(0), SeqNum(1), &|| false);
        b.dispatch(MemKind::Load, SeqNum(2), 4, None);
        let out = b.load_execute(&load_req(2, d(0x100)), &mem);
        assert!(matches!(out, LoadOutcome::Done { value: 0, .. }));
        // The squashed store no longer registers: the load is filtered.
        assert_eq!(stats(&b).filter.filtered_loads, 1);
    }

    #[test]
    fn unsaturable_geometry_never_falls_back() {
        let cfg = FilterConfig::unsaturable(32);
        let mut b = backend(cfg);
        let mem = MainMemory::new();
        for i in 0..32u64 {
            b.dispatch(MemKind::Store, SeqNum(i + 1), 0, None);
            b.store_execute(&store_req(i + 1, d(0x1000 + 8 * i), i), &mem);
        }
        assert_eq!(stats(&b).filter.saturation_fallbacks, 0);
    }
}
