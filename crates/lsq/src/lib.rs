//! The idealized load/store queue (LSQ) baseline.
//!
//! The paper compares its SFC/MDT against "a highly idealized LSQ with
//! infinite ports, infinite search bandwidth, and single-cycle bypass
//! latency" (§3). This crate is that baseline:
//!
//! * **Store-to-load forwarding**: when a load executes, it searches the
//!   store queue associatively and age-prioritized — for every requested
//!   byte, the youngest older executed store wins; missing bytes come from
//!   the committed memory.
//! * **Memory disambiguation**: when a store executes, it searches the load
//!   queue for younger loads to overlapping bytes that already executed. The
//!   check is *value-based*, so "the LSQ does not falsely flag memory
//!   ordering violations caused by silent stores" (§2.1, §3): a violation is
//!   raised only if the late store actually changes what the load should
//!   have read.
//! * **Aggressive recovery**: "the load queue supplies the PC of the earliest
//!   load that violated a true dependence ... the load queue enables the
//!   processor to recover from a true dependence violation by flushing the
//!   earliest conflicting load and all subsequent instructions" (§2.4).
//! * **Capacity pressure**: unlike the scalable SFC/MDT, the LSQ's entry
//!   counts (48×32, 120×80, 256×256 in the paper's figures) gate dispatch;
//!   the pipeline stalls when a queue fills — the key effect behind Figure 6.
//!
//! Because it renames in-flight stores to the same address (each store holds
//! its own queue slot), the LSQ never suffers anti or output violations.
//!
//! # Examples
//!
//! ```
//! use aim_lsq::{Lsq, LsqConfig};
//! use aim_mem::MainMemory;
//! use aim_types::{AccessSize, Addr, MemAccess, SeqNum};
//!
//! let mut lsq = Lsq::new(LsqConfig::baseline_48x32());
//! let mem = MainMemory::new();
//! let acc = MemAccess::new(Addr(0x100), AccessSize::Double).unwrap();
//!
//! lsq.dispatch_store(SeqNum(1), 0x10);
//! lsq.dispatch_load(SeqNum(2), 0x14);
//! lsq.store_execute(SeqNum(1), acc, 77, &mem);
//! let got = lsq.load_execute(SeqNum(2), acc, &mem);
//! assert_eq!(got.value, 77); // forwarded from the older store
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

use aim_mem::MainMemory;
use aim_types::token::parse_fields;
use aim_types::{overlay_byte, Addr, MemAccess, SeqNum, ViolationKind};

/// Queue capacities. The paper's figures use 48×32 (baseline), and 120×80 /
/// 256×256 (aggressive).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqConfig {
    /// Load queue entries.
    pub load_entries: usize,
    /// Store queue entries.
    pub store_entries: usize,
}

impl LsqConfig {
    /// The baseline figure-5 LSQ: 48-entry load queue, 32-entry store queue.
    pub fn baseline_48x32() -> LsqConfig {
        LsqConfig {
            load_entries: 48,
            store_entries: 32,
        }
    }

    /// The aggressive figure-6 reference LSQ: 120×80.
    pub fn aggressive_120x80() -> LsqConfig {
        LsqConfig {
            load_entries: 120,
            store_entries: 80,
        }
    }

    /// The large figure-6 LSQ: 256×256.
    pub fn aggressive_256x256() -> LsqConfig {
        LsqConfig {
            load_entries: 256,
            store_entries: 256,
        }
    }

    /// Checks both queues hold at least one entry (an empty queue can never
    /// dispatch its kind, so the pipeline would deadlock).
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the capacity.
    pub fn check(&self) -> Result<(), String> {
        if self.load_entries == 0 || self.store_entries == 0 {
            return Err(format!(
                "`lsq` queues need at least one entry each, got `{self}`"
            ));
        }
        Ok(())
    }
}

/// The `LxS` token the CLI's `--lsq` and the wire's `lsq` field use
/// (`120x80`).
impl fmt::Display for LsqConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.load_entries, self.store_entries)
    }
}

impl FromStr for LsqConfig {
    type Err = String;

    /// Parses `LxS`, rejecting the empty queues [`LsqConfig::check`]
    /// rejects.
    fn from_str(s: &str) -> Result<LsqConfig, String> {
        let bad = || format!("`lsq` wants LxS, got `{s}`");
        let [load, store] = parse_fields(s).ok_or_else(bad)?;
        let lsq = LsqConfig {
            load_entries: usize::try_from(load).map_err(|_| bad())?,
            store_entries: usize::try_from(store).map_err(|_| bad())?,
        };
        lsq.check()?;
        Ok(lsq)
    }
}

/// A true-dependence violation detected by the store-execute search of the
/// load queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqViolation {
    /// Always [`ViolationKind::True`]; the LSQ renames stores, so anti and
    /// output violations cannot occur.
    pub kind: ViolationKind,
    /// PC of the late-executing store (the producer).
    pub producer_pc: u64,
    /// PC of the earliest conflicting load (the consumer).
    pub consumer_pc: u64,
    /// Squash every instruction with `seq > squash_after` (the earliest
    /// conflicting load is flushed and re-executed).
    pub squash_after: SeqNum,
}

/// The value a load obtains, with forwarding provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsqLoadValue {
    /// The (zero-extended) loaded value.
    pub value: u64,
    /// How many of the access's bytes came from the store queue.
    pub forwarded_bytes: u32,
}

/// Activity counters; the search counts drive the paper's dynamic-power
/// argument (every load searches the SQ, every store searches the LQ).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LsqStats {
    /// Associative store-queue searches (one per executed load).
    pub sq_searches: u64,
    /// Associative load-queue searches (one per executed store).
    pub lq_searches: u64,
    /// Loads fully satisfied from the store queue.
    pub full_forwards: u64,
    /// Loads partially satisfied (merged with memory).
    pub partial_forwards: u64,
    /// True dependence violations raised.
    pub violations: u64,
    /// Would-be violations suppressed because the store was silent.
    pub silent_store_suppressions: u64,
    /// Peak load-queue occupancy.
    pub peak_lq: usize,
    /// Peak store-queue occupancy.
    pub peak_sq: usize,
    /// Store-queue entries examined across all searches — each is a CAM
    /// comparator firing, the paper's dynamic-power currency.
    pub sq_entries_compared: u64,
    /// Load-queue entries examined across all searches.
    pub lq_entries_compared: u64,
}

#[derive(Debug, Clone, Copy)]
struct LoadEntry {
    seq: SeqNum,
    pc: u64,
    access: Option<MemAccess>,
    value: u64,
}

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    seq: SeqNum,
    pc: u64,
    access: Option<MemAccess>,
    value: u64,
}

/// The idealized load/store queue.
#[derive(Debug, Clone)]
pub struct Lsq {
    config: LsqConfig,
    loads: VecDeque<LoadEntry>,
    stores: VecDeque<StoreEntry>,
    stats: LsqStats,
}

impl Lsq {
    /// Creates an empty LSQ.
    ///
    /// # Panics
    ///
    /// Panics if either queue has no entries ([`LsqConfig::check`]).
    pub fn new(config: LsqConfig) -> Lsq {
        if let Err(e) = config.check() {
            panic!("{e}");
        }
        Lsq {
            config,
            loads: VecDeque::new(),
            stores: VecDeque::new(),
            stats: LsqStats::default(),
        }
    }

    /// The configured capacities.
    pub fn config(&self) -> LsqConfig {
        self.config
    }

    /// Activity counters.
    pub fn stats(&self) -> LsqStats {
        self.stats
    }

    /// Whether a load can be dispatched (load queue not full).
    pub fn can_dispatch_load(&self) -> bool {
        self.loads.len() < self.config.load_entries
    }

    /// Whether a store can be dispatched (store queue not full).
    pub fn can_dispatch_store(&self) -> bool {
        self.stores.len() < self.config.store_entries
    }

    /// Current (load, store) queue occupancies.
    pub fn occupancy(&self) -> (usize, usize) {
        (self.loads.len(), self.stores.len())
    }

    /// Allocates a load-queue slot at dispatch (program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not the youngest.
    pub fn dispatch_load(&mut self, seq: SeqNum, pc: u64) {
        assert!(self.can_dispatch_load(), "load queue full at dispatch");
        if let Some(tail) = self.loads.back() {
            assert!(tail.seq < seq, "load dispatch out of program order");
        }
        self.loads.push_back(LoadEntry {
            seq,
            pc,
            access: None,
            value: 0,
        });
        self.stats.peak_lq = self.stats.peak_lq.max(self.loads.len());
    }

    /// Allocates a store-queue slot at dispatch (program order).
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `seq` is not the youngest.
    pub fn dispatch_store(&mut self, seq: SeqNum, pc: u64) {
        assert!(self.can_dispatch_store(), "store queue full at dispatch");
        if let Some(tail) = self.stores.back() {
            assert!(tail.seq < seq, "store dispatch out of program order");
        }
        self.stores.push_back(StoreEntry {
            seq,
            pc,
            access: None,
            value: 0,
        });
        self.stats.peak_sq = self.stats.peak_sq.max(self.stores.len());
    }

    /// Byte-wise resolution: the value an access would read given all
    /// *executed* stores older than `reader_seq`, falling back to committed
    /// memory. A real store queue performs this as one age-prioritized CAM
    /// search over every entry; the model charges one comparison per
    /// occupied entry (see [`LsqStats::sq_entries_compared`]).
    fn resolve(&self, reader_seq: SeqNum, access: MemAccess, mem: &MainMemory) -> (u64, u32) {
        let word = access.word_addr();
        let mut value = mem.read(access);
        let mut forwarded = 0u32;
        for (k, byte_idx) in access.mask().iter_bytes().enumerate() {
            let byte_addr = Addr(word.0 + byte_idx as u64);
            // Youngest older executed store covering this byte.
            let mut byte: Option<u8> = None;
            for st in self.stores.iter().rev() {
                if st.seq >= reader_seq {
                    continue;
                }
                if let Some(sacc) = st.access {
                    if sacc.word_addr() == word && sacc.mask().contains_byte(byte_idx) {
                        let off = byte_addr.0 - sacc.addr().0;
                        byte = Some((st.value >> (8 * off)) as u8);
                        break;
                    }
                }
            }
            if let Some(b) = byte {
                forwarded += 1;
                value = overlay_byte(value, k, b);
            }
        }
        (value, forwarded)
    }

    /// A load executes: associative, age-prioritized search of the store
    /// queue, merged byte-wise with committed memory.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched (simulator invariant).
    pub fn load_execute(
        &mut self,
        seq: SeqNum,
        access: MemAccess,
        mem: &MainMemory,
    ) -> LsqLoadValue {
        self.stats.sq_searches += 1;
        self.stats.sq_entries_compared += self.stores.len() as u64;
        let (value, forwarded) = self.resolve(seq, access, mem);
        if forwarded > 0 {
            if forwarded == access.mask().count() {
                self.stats.full_forwards += 1;
            } else {
                self.stats.partial_forwards += 1;
            }
        }
        let entry = self
            .loads
            .iter_mut()
            .find(|l| l.seq == seq)
            .expect("load executed without dispatch");
        entry.access = Some(access);
        entry.value = value;
        LsqLoadValue {
            value,
            forwarded_bytes: forwarded,
        }
    }

    /// A load executes *without* searching the store queue: the caller's
    /// pre-filter (e.g. the filtered backend's store-presence counters)
    /// proved no executed in-flight store can supply any of its bytes, so
    /// the value comes from committed memory alone and no CAM comparator
    /// fires. The load-queue entry is still recorded — disambiguation
    /// against *unexecuted* older stores happens later, in
    /// [`store_execute`](Lsq::store_execute)'s load-queue search, which is
    /// why skipping the store-queue search here is safe.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched (simulator invariant).
    pub fn load_execute_unsearched(
        &mut self,
        seq: SeqNum,
        access: MemAccess,
        mem: &MainMemory,
    ) -> LsqLoadValue {
        let value = mem.read(access);
        let entry = self
            .loads
            .iter_mut()
            .find(|l| l.seq == seq)
            .expect("load executed without dispatch");
        entry.access = Some(access);
        entry.value = value;
        LsqLoadValue {
            value,
            forwarded_bytes: 0,
        }
    }

    /// A store executes: records its data, then searches the load queue for
    /// younger executed loads whose value the store changes.
    ///
    /// Returns the violation for the *earliest* conflicting load, if any.
    ///
    /// # Panics
    ///
    /// Panics if `seq` was never dispatched (simulator invariant).
    pub fn store_execute(
        &mut self,
        seq: SeqNum,
        access: MemAccess,
        value: u64,
        mem: &MainMemory,
    ) -> Option<LsqViolation> {
        let (pc, prev_access) = {
            let entry = self
                .stores
                .iter_mut()
                .find(|s| s.seq == seq)
                .expect("store executed without dispatch");
            let prev = entry.access;
            entry.access = Some(access);
            entry.value = value;
            (entry.pc, prev)
        };
        debug_assert!(prev_access.is_none(), "store executed twice");

        self.stats.lq_searches += 1;
        self.stats.lq_entries_compared += self.loads.len() as u64;
        let mut earliest: Option<(SeqNum, u64)> = None;
        let mut silent_hit = false;
        // Collect candidate loads first (borrow rules: resolve() needs &self).
        let candidates: Vec<(SeqNum, u64, MemAccess, u64)> = self
            .loads
            .iter()
            .filter_map(|l| {
                let lacc = l.access?;
                (l.seq > seq && lacc.overlaps(access)).then_some((l.seq, l.pc, lacc, l.value))
            })
            .collect();
        for (lseq, lpc, lacc, lvalue) in candidates {
            let (should_be, _) = self.resolve(lseq, lacc, mem);
            if should_be != lvalue {
                if earliest.is_none_or(|(s, _)| lseq < s) {
                    earliest = Some((lseq, lpc));
                }
            } else {
                silent_hit = true;
            }
        }

        match earliest {
            Some((lseq, lpc)) => {
                self.stats.violations += 1;
                Some(LsqViolation {
                    kind: ViolationKind::True,
                    producer_pc: pc,
                    consumer_pc: lpc,
                    squash_after: SeqNum(lseq.0.saturating_sub(1)),
                })
            }
            None => {
                if silent_hit {
                    self.stats.silent_store_suppressions += 1;
                }
                None
            }
        }
    }

    /// A load retires and leaves the queue head.
    ///
    /// # Panics
    ///
    /// Panics if the head is not `seq` (retirement must be in order).
    pub fn load_retire(&mut self, seq: SeqNum) {
        let head = self.loads.pop_front().expect("load retire on empty queue");
        assert_eq!(head.seq, seq, "load retirement out of order");
    }

    /// A store retires and leaves the queue head; returns its access and
    /// value for the commit to memory.
    ///
    /// # Panics
    ///
    /// Panics if the head is not `seq` or the store never executed.
    pub fn store_retire(&mut self, seq: SeqNum) -> (MemAccess, u64) {
        let head = self
            .stores
            .pop_front()
            .expect("store retire on empty queue");
        assert_eq!(head.seq, seq, "store retirement out of order");
        (
            head.access.expect("retiring store never executed"),
            head.value,
        )
    }

    /// Removes all entries younger than `survivor` on a pipeline flush —
    /// "the LSQ recovers from partial pipeline flushes simply by adjusting
    /// its tail pointers" (§2.2).
    pub fn squash_after(&mut self, survivor: SeqNum) {
        while matches!(self.loads.back(), Some(e) if e.seq > survivor) {
            self.loads.pop_back();
        }
        while matches!(self.stores.back(), Some(e) if e.seq > survivor) {
            self.stores.pop_back();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_types::AccessSize;

    fn acc(addr: u64, size: AccessSize) -> MemAccess {
        MemAccess::new(Addr(addr), size).unwrap()
    }

    fn d(addr: u64) -> MemAccess {
        acc(addr, AccessSize::Double)
    }

    fn lsq() -> Lsq {
        Lsq::new(LsqConfig::baseline_48x32())
    }

    #[test]
    fn forwards_from_youngest_older_store() {
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_store(SeqNum(2), 0x14);
        q.dispatch_load(SeqNum(3), 0x18);
        q.store_execute(SeqNum(1), d(0x100), 0xAAAA, &mem);
        q.store_execute(SeqNum(2), d(0x100), 0xBBBB, &mem);
        let v = q.load_execute(SeqNum(3), d(0x100), &mem);
        assert_eq!(v.value, 0xBBBB); // renaming: the younger store wins
        assert_eq!(v.forwarded_bytes, 8);
        assert_eq!(q.stats().full_forwards, 1);
    }

    #[test]
    fn younger_store_does_not_forward_to_older_load() {
        let mut q = lsq();
        let mut mem = MainMemory::new();
        mem.write(d(0x100), 0x1111);
        q.dispatch_load(SeqNum(1), 0x10);
        q.dispatch_store(SeqNum(2), 0x14);
        q.store_execute(SeqNum(2), d(0x100), 0x2222, &mem);
        let v = q.load_execute(SeqNum(1), d(0x100), &mem);
        assert_eq!(v.value, 0x1111); // from memory: store is younger
        assert_eq!(v.forwarded_bytes, 0);
    }

    #[test]
    fn partial_forward_merges_with_memory() {
        let mut q = lsq();
        let mut mem = MainMemory::new();
        mem.write(d(0x100), 0x8877_6655_4433_2211);
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_load(SeqNum(2), 0x14);
        q.store_execute(SeqNum(1), acc(0x100, AccessSize::Word), 0xEEEE_FFFF, &mem);
        let v = q.load_execute(SeqNum(2), d(0x100), &mem);
        assert_eq!(v.value, 0x8877_6655_EEEE_FFFF);
        assert_eq!(v.forwarded_bytes, 4);
        assert_eq!(q.stats().partial_forwards, 1);
    }

    #[test]
    fn partial_forward_lands_each_byte_at_its_offset() {
        // Every memory byte differs, and the load starts mid-word, so a
        // forwarded byte placed by word index instead of load index shows.
        let mut q = lsq();
        let mut mem = MainMemory::new();
        mem.write(d(0x100), 0x8877_6655_4433_2211);
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_store(SeqNum(2), 0x14);
        q.dispatch_load(SeqNum(3), 0x18);
        q.store_execute(SeqNum(1), acc(0x106, AccessSize::Half), 0xDDCC, &mem);
        q.store_execute(SeqNum(2), acc(0x105, AccessSize::Byte), 0xAA, &mem);
        let v = q.load_execute(SeqNum(3), acc(0x104, AccessSize::Word), &mem);
        assert_eq!(v.value, 0xDDCC_AA55);
        assert_eq!(v.forwarded_bytes, 3);
        assert_eq!(q.stats().partial_forwards, 1);
    }

    #[test]
    fn late_store_raises_true_violation() {
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_load(SeqNum(2), 0x14);
        q.load_execute(SeqNum(2), d(0x100), &mem); // reads 0 from memory
        let v = q.store_execute(SeqNum(1), d(0x100), 7, &mem).unwrap();
        assert_eq!(v.kind, ViolationKind::True);
        assert_eq!(v.producer_pc, 0x10);
        assert_eq!(v.consumer_pc, 0x14);
        assert_eq!(v.squash_after, SeqNum(1)); // flush the load itself
    }

    #[test]
    fn silent_store_is_not_flagged() {
        let mut q = lsq();
        let mut mem = MainMemory::new();
        mem.write(d(0x100), 7);
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_load(SeqNum(2), 0x14);
        q.load_execute(SeqNum(2), d(0x100), &mem); // reads 7
                                                   // The late store writes the same 7: silent, no violation.
        assert!(q.store_execute(SeqNum(1), d(0x100), 7, &mem).is_none());
        assert_eq!(q.stats().silent_store_suppressions, 1);
        assert_eq!(q.stats().violations, 0);
    }

    #[test]
    fn overwritten_silent_store_case_from_paper() {
        // ST A (silent w.r.t. later ST B) completes after ST B and LD both
        // completed; the load got B's value, which is still what it should
        // read. No violation.
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10); // ST x <- 5 (late)
        q.dispatch_store(SeqNum(2), 0x14); // ST x <- 9
        q.dispatch_load(SeqNum(3), 0x18); // LD x
        q.store_execute(SeqNum(2), d(0x100), 9, &mem);
        q.load_execute(SeqNum(3), d(0x100), &mem); // gets 9, correct
        assert!(q.store_execute(SeqNum(1), d(0x100), 5, &mem).is_none());
    }

    #[test]
    fn earliest_conflicting_load_selected() {
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_load(SeqNum(2), 0x14);
        q.dispatch_load(SeqNum(3), 0x18);
        q.load_execute(SeqNum(3), d(0x100), &mem);
        q.load_execute(SeqNum(2), d(0x100), &mem);
        let v = q.store_execute(SeqNum(1), d(0x100), 1, &mem).unwrap();
        assert_eq!(v.squash_after, SeqNum(1)); // flush from load #2
        assert_eq!(v.consumer_pc, 0x14);
    }

    #[test]
    fn non_overlapping_accesses_do_not_conflict() {
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_load(SeqNum(2), 0x14);
        q.load_execute(SeqNum(2), d(0x108), &mem);
        assert!(q.store_execute(SeqNum(1), d(0x100), 1, &mem).is_none());
    }

    #[test]
    fn capacity_gates_dispatch() {
        let mut q = Lsq::new(LsqConfig {
            load_entries: 1,
            store_entries: 1,
        });
        q.dispatch_load(SeqNum(1), 0);
        assert!(!q.can_dispatch_load());
        assert!(q.can_dispatch_store());
        q.dispatch_store(SeqNum(2), 0);
        assert!(!q.can_dispatch_store());
        q.load_retire(SeqNum(1));
        assert!(q.can_dispatch_load());
    }

    #[test]
    fn retire_returns_store_data_in_order() {
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_store(SeqNum(2), 0x14);
        q.store_execute(SeqNum(1), d(0x100), 11, &mem);
        q.store_execute(SeqNum(2), d(0x108), 22, &mem);
        assert_eq!(q.store_retire(SeqNum(1)), (d(0x100), 11));
        assert_eq!(q.store_retire(SeqNum(2)), (d(0x108), 22));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_retire_panics() {
        let mut q = lsq();
        q.dispatch_load(SeqNum(1), 0);
        q.dispatch_load(SeqNum(2), 0);
        q.load_retire(SeqNum(2));
    }

    #[test]
    fn squash_trims_both_queues() {
        let mut q = lsq();
        q.dispatch_load(SeqNum(1), 0);
        q.dispatch_store(SeqNum(2), 0);
        q.dispatch_load(SeqNum(3), 0);
        q.dispatch_store(SeqNum(4), 0);
        q.squash_after(SeqNum(2));
        assert_eq!(q.occupancy(), (1, 1));
        // Squashed slots are reusable.
        q.dispatch_load(SeqNum(5), 0);
        q.dispatch_store(SeqNum(6), 0);
        assert_eq!(q.occupancy(), (2, 2));
    }

    #[test]
    fn squashed_store_no_longer_forwards() {
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10);
        q.store_execute(SeqNum(1), d(0x100), 0xAA, &mem);
        q.squash_after(SeqNum(0));
        q.dispatch_load(SeqNum(2), 0x14);
        let v = q.load_execute(SeqNum(2), d(0x100), &mem);
        assert_eq!(v.value, 0); // memory, not the squashed store
    }

    #[test]
    fn search_counters_accumulate() {
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0);
        q.dispatch_load(SeqNum(2), 0);
        q.store_execute(SeqNum(1), d(0x100), 1, &mem);
        q.load_execute(SeqNum(2), d(0x100), &mem);
        assert_eq!(q.stats().sq_searches, 1);
        assert_eq!(q.stats().lq_searches, 1);
        assert_eq!(q.stats().sq_entries_compared, 1);
        assert_eq!(q.stats().peak_lq, 1);
        assert_eq!(q.stats().peak_sq, 1);
    }

    #[test]
    fn unsearched_load_reads_memory_and_fires_no_comparators() {
        let mut q = lsq();
        let mut mem = MainMemory::new();
        mem.write(d(0x108), 0x5A5A);
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_load(SeqNum(2), 0x14);
        q.store_execute(SeqNum(1), d(0x100), 7, &mem);
        let v = q.load_execute_unsearched(SeqNum(2), d(0x108), &mem);
        assert_eq!(v.value, 0x5A5A);
        assert_eq!(v.forwarded_bytes, 0);
        assert_eq!(q.stats().sq_searches, 0);
        assert_eq!(q.stats().sq_entries_compared, 0);
    }

    #[test]
    fn unsearched_load_reads_each_size_at_its_offset() {
        let mut q = lsq();
        let mut mem = MainMemory::new();
        mem.write(d(0x100), 0x8877_6655_4433_2211);
        let loads = [
            (acc(0x107, AccessSize::Byte), 0x88),
            (acc(0x102, AccessSize::Half), 0x4433),
            (acc(0x104, AccessSize::Word), 0x8877_6655),
            (d(0x100), 0x8877_6655_4433_2211),
        ];
        for (seq, &(access, expect)) in (1..).zip(&loads) {
            q.dispatch_load(SeqNum(seq), 0x10);
            let v = q.load_execute_unsearched(SeqNum(seq), access, &mem);
            assert_eq!(v.value, expect, "{access}");
            assert_eq!(v.forwarded_bytes, 0);
        }
    }

    #[test]
    fn unsearched_load_is_still_seen_by_store_disambiguation() {
        // The unsearched path must leave the load visible to the safety-net
        // load-queue search an older store performs when it finally executes.
        let mut q = lsq();
        let mem = MainMemory::new();
        q.dispatch_store(SeqNum(1), 0x10);
        q.dispatch_load(SeqNum(2), 0x14);
        q.load_execute_unsearched(SeqNum(2), d(0x100), &mem); // reads 0
        let v = q.store_execute(SeqNum(1), d(0x100), 9, &mem).unwrap();
        assert_eq!(v.kind, ViolationKind::True);
        assert_eq!(v.squash_after, SeqNum(1));
    }
}
