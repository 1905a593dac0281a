//! The store forwarding cache (paper §2.3, Figure 3).

use aim_types::{ByteMask, MemAccess, SeqNum};

use crate::{SetHash, SetTable, StructuralConflict, TableGeometry};

/// How the SFC guards against forwarding data from canceled stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CorruptionPolicy {
    /// The paper's primary design (§2.3, Figure 3): per-byte corruption
    /// masks; a partial pipeline flush marks every valid byte corrupt.
    #[default]
    CorruptBits,
    /// The paper's §3.2 alternative: "the SFC could record the sequence
    /// numbers of the earliest and latest instructions flushed (the flush
    /// endpoints). If the SFC attempted to forward a value from a canceled
    /// store, that store's sequence number would fall between the flush
    /// endpoints, and \[the\] memory unit would place the load back in the
    /// scheduler's ready list. Of course, the performance of this mechanism
    /// would depend on the number of flush endpoints tracked."
    ///
    /// This variant tracks per-byte writer sequence numbers and a bounded
    /// ring of flush ranges (oldest two ranges merge on overflow, which is
    /// conservative). Surviving stores' bytes keep forwarding across partial
    /// flushes — the precision the corruption masks give up — at the
    /// hardware cost of eight sequence numbers per line.
    FlushEndpoints {
        /// Maximum number of flush ranges tracked before merging.
        capacity: usize,
    },
}

/// Geometry of the [`Sfc`]. Lines are fixed at 8 data bytes, with 8-bit
/// valid and corruption masks, exactly as in Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfcConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Canceled-store guard (corruption masks by default).
    pub corruption: CorruptionPolicy,
    /// Set-index hash (§3.2: low bits by default).
    pub hash: SetHash,
}

impl SfcConfig {
    /// The baseline processor's SFC: "128 sets, 2-way set assoc." (Figure 4).
    pub fn baseline() -> SfcConfig {
        SfcConfig {
            sets: 128,
            ways: 2,
            corruption: CorruptionPolicy::CorruptBits,
            hash: SetHash::LowBits,
        }
    }

    /// The aggressive processor's SFC: "512 sets, 2-way set assoc."
    /// (Figure 4).
    pub fn aggressive() -> SfcConfig {
        SfcConfig {
            sets: 512,
            ways: 2,
            corruption: CorruptionPolicy::CorruptBits,
            hash: SetHash::LowBits,
        }
    }

    /// The kilo-entry-window machine's SFC: 2048 sets, 4-way. A 4096-entry
    /// window can hold thousands of in-flight stores, so the Figure 4
    /// geometries thrash (set-conflict partial flushes dominate). Growing
    /// the table is exactly what the paper's design permits: the SFC is a
    /// RAM-indexed cache, so capacity scales with the window at SRAM cost —
    /// unlike the LSQ CAM, whose search ports are the scaling wall.
    pub fn huge() -> SfcConfig {
        SfcConfig {
            sets: 2048,
            ways: 4,
            corruption: CorruptionPolicy::CorruptBits,
            hash: SetHash::LowBits,
        }
    }
}

/// Result of a load's SFC lookup, performed in parallel with the L1 D-cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfcLoadResult {
    /// No in-flight data for any requested byte: use the cache value.
    Miss,
    /// Full match: every requested byte is valid and clean; the forwarded
    /// value (zero-extended to 64 bits).
    Forward(u64),
    /// Some requested bytes are valid and clean, others absent. The memory
    /// unit either merges with cache data or replays the load, per
    /// [`PartialMatchPolicy`](crate::PartialMatchPolicy).
    Partial {
        /// The line's 8 data bytes.
        data: [u8; 8],
        /// Which of the *requested* bytes are valid in `data`.
        valid: ByteMask,
    },
    /// One or more requested bytes are marked corrupt (possibly overwritten
    /// by a canceled store); the load must be dropped and replayed.
    Corrupt,
}

/// Counters for the SFC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SfcStats {
    /// Store writes that completed.
    pub store_writes: u64,
    /// Store writes rejected by a set conflict.
    pub store_conflicts: u64,
    /// Load lookups performed.
    pub load_lookups: u64,
    /// Loads fully forwarded from the SFC.
    pub forwards: u64,
    /// Loads finding a partial match.
    pub partial_matches: u64,
    /// Loads rejected because a requested byte was corrupt.
    pub corrupt_rejections: u64,
    /// Entries freed at store retirement.
    pub frees: u64,
    /// Stale entries reclaimed (writer no longer in flight).
    pub reclaims: u64,
    /// Partial-flush corruption sweeps performed.
    pub partial_flushes: u64,
    /// Full SFC flushes performed.
    pub full_flushes: u64,
}

/// Expands a byte mask to a 64-bit lane mask: bit `i` set ⇒ byte lane `i`
/// all-ones. Branchless, so masked data merges stay straight-line code.
#[inline]
fn lane_mask(mask: ByteMask) -> u64 {
    let bits = u64::from(mask.bits());
    let mut m = 0u64;
    for i in 0..8 {
        m |= 0u64.wrapping_sub((bits >> i) & 1) & (0xFF << (8 * i));
    }
    m
}

/// The store forwarding cache: "an address-indexed, cache-like structure that
/// replaces the conventional store queue's associative search logic. ... The
/// SFC reduces the dynamic power consumption and latency of store-to-load
/// forwarding by buffering a single, cumulative value for each in-flight
/// memory address, rather than successive values produced by multiple stores
/// to the same address" (§2.3).
///
/// Key behaviours, all from §2.3:
///
/// * stores write their bytes at execute, setting valid bits and clearing
///   corruption bits;
/// * loads perform an address-indexed lookup in parallel with the L1 D-cache
///   and forward on a full match;
/// * a **partial pipeline flush** marks every valid byte corrupt (canceled
///   stores may have overwritten surviving stores' values); a **full flush**
///   simply clears the SFC;
/// * an entry is freed when the latest store to its address retires.
///
/// Entry lifetime for *canceled* last writers: the paper frees an entry when
/// the latest store retires, but a canceled store never retires. We track a
/// safe upper bound on the newest surviving writer (clamped at each partial
/// flush) and free the line as soon as a retiring store or the retirement
/// floor passes that bound — the lazy-reclamation analogue of the paper's
/// example, where the corrupt entry for a canceled store's address becomes
/// reusable once the surviving store retires.
///
/// # Examples
///
/// ```
/// use aim_core::{Sfc, SfcConfig, SfcLoadResult};
/// use aim_types::{AccessSize, Addr, MemAccess, SeqNum};
///
/// let mut sfc = Sfc::new(SfcConfig::baseline());
/// let floor = SeqNum(1);
/// let word = MemAccess::new(Addr(0xB000), AccessSize::Half).unwrap();
/// sfc.store_write(SeqNum(1), word, 0xA1A1, floor).unwrap();
///
/// // Full match forwards...
/// assert_eq!(sfc.load_lookup(word, floor), SfcLoadResult::Forward(0xA1A1));
/// // ...a wider access is a partial match...
/// let wide = MemAccess::new(Addr(0xB000), AccessSize::Double).unwrap();
/// assert!(matches!(sfc.load_lookup(wide, floor), SfcLoadResult::Partial { .. }));
/// // ...and after a partial pipeline flush (which the store survives),
/// // the bytes are corrupt.
/// sfc.on_partial_flush(SeqNum(1), SeqNum(9));
/// assert_eq!(sfc.load_lookup(word, floor), SfcLoadResult::Corrupt);
/// ```
#[derive(Debug, Clone)]
pub struct Sfc {
    config: SfcConfig,
    /// Line addresses (word indices) + per-set occupancy bit-words.
    table: SetTable,
    /// SoA payload columns, indexed by the table's flat slot.
    data: Vec<u64>,
    valid: Vec<ByteMask>,
    corrupt: Vec<ByteMask>,
    /// Upper bound on the newest *surviving* store that wrote each line.
    /// Partial flushes clamp it to the flush survivor, so it stays a safe
    /// over-approximation when writers are canceled.
    live_writer: Vec<SeqNum>,
    /// Per-byte writer sequence numbers (0 = never written), 8 per slot;
    /// used only by [`CorruptionPolicy::FlushEndpoints`].
    writers: Vec<u64>,
    /// Canceled-sequence ranges, inclusive (FlushEndpoints mode only);
    /// sorted by start, disjoint, and non-adjacent (coalesced on insert),
    /// so membership is one binary search.
    flush_ranges: Vec<(u64, u64)>,
    stats: SfcStats,
}

impl Sfc {
    /// Creates an empty SFC.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a nonzero power of two or `ways == 0`.
    pub fn new(config: SfcConfig) -> Sfc {
        let table = SetTable::new(TableGeometry {
            sets: config.sets,
            ways: config.ways,
            hash: config.hash,
        });
        let entries = config.sets * config.ways;
        Sfc {
            config,
            table,
            data: vec![0; entries],
            valid: vec![ByteMask::EMPTY; entries],
            corrupt: vec![ByteMask::EMPTY; entries],
            live_writer: vec![SeqNum::ZERO; entries],
            writers: vec![0; entries * 8],
            flush_ranges: Vec::new(),
            stats: SfcStats::default(),
        }
    }

    /// Whether `seq` falls inside a recorded canceled range (one binary
    /// search over the sorted, disjoint ranges).
    fn is_canceled(&self, seq: u64) -> bool {
        let i = self.flush_ranges.partition_point(|&(lo, _)| lo <= seq);
        i > 0 && self.flush_ranges[i - 1].1 >= seq
    }

    /// Records the canceled range `[lo, hi]`, keeping `flush_ranges` sorted
    /// and coalescing any overlapping or adjacent ranges, then enforces the
    /// capacity bound by merging the two lowest ranges into their convex
    /// hull (conservative: the union only grows).
    fn record_flush_range(&mut self, lo: u64, hi: u64, capacity: usize) {
        let start = self.flush_ranges.partition_point(|&(l, _)| l < lo);
        // The span [a, b) of existing ranges touching [lo, hi]: at most the
        // one range just before `start` (ranges before it are disjoint and
        // non-adjacent, so only the nearest can reach lo), plus every range
        // from `start` whose own start falls inside or adjacent to `hi`.
        let mut a = start;
        if a > 0 && self.flush_ranges[a - 1].1.saturating_add(1) >= lo {
            a -= 1;
        }
        let mut b = start;
        while b < self.flush_ranges.len() && self.flush_ranges[b].0 <= hi.saturating_add(1) {
            b += 1;
        }
        let mut merged = (lo, hi);
        if a < b {
            merged.0 = merged.0.min(self.flush_ranges[a].0);
            merged.1 = merged.1.max(self.flush_ranges[b - 1].1);
        }
        self.flush_ranges.splice(a..b, std::iter::once(merged));
        while self.flush_ranges.len() > capacity.max(1) {
            let (_, hi2) = self.flush_ranges.remove(1);
            self.flush_ranges[0].1 = self.flush_ranges[0].1.max(hi2);
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> SfcConfig {
        self.config
    }

    /// Counters.
    pub fn stats(&self) -> SfcStats {
        self.stats
    }

    /// Lines currently allocated.
    pub fn occupancy(&self) -> usize {
        self.table.occupancy()
    }

    /// Highest occupancy observed.
    pub fn peak_occupancy(&self) -> usize {
        self.table.peak_occupancy()
    }

    /// Resets a slot's payload columns to the empty-line state.
    #[inline]
    fn reset_slot(&mut self, slot: usize) {
        self.data[slot] = 0;
        self.valid[slot] = ByteMask::EMPTY;
        self.corrupt[slot] = ByteMask::EMPTY;
        self.live_writer[slot] = SeqNum::ZERO;
        self.writers[slot * 8..slot * 8 + 8].fill(0);
    }

    /// Reclaims the line for `word` if its newest possible writer is older
    /// than the retirement floor (writer retired — data committed — or was
    /// canceled — bytes corrupt).
    fn reclaim_if_stale(&mut self, word: u64, floor: SeqNum) {
        let set = self.table.set_of(word);
        if let Some(way) = self.table.first_match(set, word) {
            if self.live_writer[self.table.slot(set, way)] < floor {
                self.table.vacate(set, way);
                self.stats.reclaims += 1;
            }
        }
    }

    /// A store writes its bytes as it completes: "If the store's address is
    /// already in the SFC, or if an entry in the address's set is available,
    /// the store writes its data to that entry, sets the bits of the valid
    /// mask that correspond to the bytes written, and clears the same bits of
    /// the corruption mask."
    ///
    /// # Errors
    ///
    /// [`StructuralConflict`] if no line could be allocated; the memory unit
    /// drops and replays the store.
    pub fn store_write(
        &mut self,
        seq: SeqNum,
        access: MemAccess,
        value: u64,
        floor: SeqNum,
    ) -> Result<(), StructuralConflict> {
        let word = access.addr().word_index();
        self.reclaim_if_stale(word, floor);
        let set = self.table.set_of(word);

        let slot = if let Some(way) = self.table.first_match(set, word) {
            self.table.slot(set, way)
        } else if let Some(way) = self.table.first_free(set) {
            self.table.occupy(set, way, word);
            let slot = self.table.slot(set, way);
            self.reset_slot(slot);
            slot
        } else if let Some(way) = (0..self.table.ways())
            .find(|&w| self.live_writer[self.table.slot(set, w)] < floor)
        {
            // Every way is occupied: reclaim the first stale one in place.
            self.stats.reclaims += 1;
            self.table.replace(set, way, word);
            let slot = self.table.slot(set, way);
            self.reset_slot(slot);
            slot
        } else {
            self.stats.store_conflicts += 1;
            return Err(StructuralConflict);
        };

        let mask = access.mask();
        let base = access.addr().offset_in_word();
        let lanes = lane_mask(mask);
        self.data[slot] = (self.data[slot] & !lanes) | ((value << (8 * base)) & lanes);
        for (k, byte_idx) in mask.iter_bytes().enumerate() {
            debug_assert_eq!(byte_idx, base + k as u32);
            self.writers[slot * 8 + byte_idx as usize] = seq.0;
        }
        self.valid[slot] = self.valid[slot] | mask;
        self.corrupt[slot] = self.corrupt[slot] & !mask;
        self.live_writer[slot] = self.live_writer[slot].max(seq);
        self.stats.store_writes += 1;
        Ok(())
    }

    /// A load's address-indexed lookup, accessed in parallel with the L1
    /// D-cache.
    pub fn load_lookup(&mut self, access: MemAccess, floor: SeqNum) -> SfcLoadResult {
        self.stats.load_lookups += 1;
        let word = access.addr().word_index();
        self.reclaim_if_stale(word, floor);
        let set = self.table.set_of(word);
        let Some(way) = self.table.first_match(set, word) else {
            return SfcLoadResult::Miss;
        };
        let slot = self.table.slot(set, way);

        let needed = access.mask();
        if needed.intersects(self.corrupt[slot]) {
            self.stats.corrupt_rejections += 1;
            return SfcLoadResult::Corrupt;
        }
        if matches!(
            self.config.corruption,
            CorruptionPolicy::FlushEndpoints { .. }
        ) {
            // A needed byte written by a canceled store cannot forward.
            let canceled = needed.iter_bytes().any(|i| {
                self.valid[slot].contains_byte(i)
                    && self.is_canceled(self.writers[slot * 8 + i as usize])
            });
            if canceled {
                self.stats.corrupt_rejections += 1;
                return SfcLoadResult::Corrupt;
            }
        }
        let valid_needed = needed & self.valid[slot];
        if valid_needed == needed {
            let base = access.addr().offset_in_word();
            let v = (self.data[slot] >> (8 * base)) & access.size().value_mask();
            self.stats.forwards += 1;
            SfcLoadResult::Forward(v)
        } else if valid_needed.is_empty() {
            SfcLoadResult::Miss
        } else {
            self.stats.partial_matches += 1;
            SfcLoadResult::Partial {
                data: self.data[slot].to_le_bytes(),
                valid: valid_needed,
            }
        }
    }

    /// A store retires: "the SFC frees an entry whenever the latest store to
    /// the entry's address retires."
    ///
    /// Returns `true` if a line was freed (used to clear scheduler stall
    /// bits, §2.4.3).
    pub fn on_store_retire(&mut self, seq: SeqNum, access: MemAccess) -> bool {
        let word = access.addr().word_index();
        let set = self.table.set_of(word);
        if let Some(way) = self.table.first_match(set, word) {
            if self.live_writer[self.table.slot(set, way)] <= seq {
                self.table.vacate(set, way);
                self.stats.frees += 1;
                return true;
            }
        }
        false
    }

    /// A partial pipeline flush canceling every sequence number in
    /// `(survivor, youngest]`.
    ///
    /// Under [`CorruptionPolicy::CorruptBits`]: "the SFC overwrites each
    /// entry's corruption mask with the bitwise OR of its valid mask and its
    /// existing corruption mask. That is, the SFC marks every byte that is
    /// valid as corrupt." Under [`CorruptionPolicy::FlushEndpoints`], the
    /// flush endpoints are recorded instead and surviving bytes keep
    /// forwarding.
    ///
    /// In both modes each line's `live_writer` bound is clamped to
    /// `survivor`, since any newer writer was just canceled.
    pub fn on_partial_flush(&mut self, survivor: SeqNum, youngest: SeqNum) {
        self.stats.partial_flushes += 1;
        match self.config.corruption {
            CorruptionPolicy::CorruptBits => {
                // Occupancy-word-guided sweep: only live slots are visited,
                // so the flush costs O(occupancy), not O(sets × ways).
                for slot in self.table.occupied_slots() {
                    self.corrupt[slot] = self.corrupt[slot] | self.valid[slot];
                    self.live_writer[slot] = self.live_writer[slot].min(survivor);
                }
            }
            CorruptionPolicy::FlushEndpoints { capacity } => {
                if youngest > survivor {
                    self.record_flush_range(survivor.0 + 1, youngest.0, capacity);
                }
                for slot in self.table.occupied_slots() {
                    self.live_writer[slot] = self.live_writer[slot].min(survivor);
                }
            }
        }
    }

    /// A full pipeline flush: "the memory unit simply flushes the SFC,
    /// thereby discarding the effects of canceled stores."
    pub fn on_full_flush(&mut self) {
        self.stats.full_flushes += 1;
        self.table.clear();
        self.flush_ranges.clear();
    }

    /// Marks the line holding `access` corrupt without flushing — the §2.4.2
    /// alternative recovery for output dependence violations.
    pub fn corrupt_line(&mut self, access: MemAccess) {
        let word = access.addr().word_index();
        let set = self.table.set_of(word);
        if let Some(way) = self.table.first_match(set, word) {
            let slot = self.table.slot(set, way);
            self.corrupt[slot] = self.corrupt[slot] | self.valid[slot];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_types::{AccessSize, Addr};

    fn acc(addr: u64, size: AccessSize) -> MemAccess {
        MemAccess::new(Addr(addr), size).unwrap()
    }

    fn d(addr: u64) -> MemAccess {
        acc(addr, AccessSize::Double)
    }

    fn sfc() -> Sfc {
        Sfc::new(SfcConfig::baseline())
    }

    const FLOOR: SeqNum = SeqNum(0);

    #[test]
    fn forward_full_match() {
        let mut s = sfc();
        s.store_write(SeqNum(1), d(0x100), 0xdead_beef_1234_5678, FLOOR)
            .unwrap();
        assert_eq!(
            s.load_lookup(d(0x100), FLOOR),
            SfcLoadResult::Forward(0xdead_beef_1234_5678)
        );
        assert_eq!(s.stats().forwards, 1);
    }

    #[test]
    fn miss_when_absent() {
        let mut s = sfc();
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Miss);
    }

    #[test]
    fn subword_store_forwards_to_subword_load() {
        let mut s = sfc();
        s.store_write(SeqNum(1), acc(0x104, AccessSize::Word), 0xaabbccdd, FLOOR)
            .unwrap();
        assert_eq!(
            s.load_lookup(acc(0x106, AccessSize::Half), FLOOR),
            SfcLoadResult::Forward(0xaabb)
        );
    }

    #[test]
    fn wider_load_sees_partial_match() {
        let mut s = sfc();
        s.store_write(SeqNum(1), acc(0x100, AccessSize::Word), 0x11223344, FLOOR)
            .unwrap();
        match s.load_lookup(d(0x100), FLOOR) {
            SfcLoadResult::Partial { data, valid } => {
                assert_eq!(valid, ByteMask::for_access(0, 4));
                assert_eq!(&data[0..4], &[0x44, 0x33, 0x22, 0x11]);
            }
            other => panic!("expected partial, got {other:?}"),
        }
        assert_eq!(s.stats().partial_matches, 1);
    }

    #[test]
    fn disjoint_bytes_in_same_word_miss() {
        let mut s = sfc();
        s.store_write(SeqNum(1), acc(0x100, AccessSize::Word), 0x11223344, FLOOR)
            .unwrap();
        // Load of the *upper* word: line present, no overlap with valid bytes.
        assert_eq!(
            s.load_lookup(acc(0x104, AccessSize::Word), FLOOR),
            SfcLoadResult::Miss
        );
    }

    #[test]
    fn cumulative_merging_of_two_stores() {
        let mut s = sfc();
        s.store_write(SeqNum(1), acc(0x100, AccessSize::Word), 0x44332211, FLOOR)
            .unwrap();
        s.store_write(SeqNum(2), acc(0x104, AccessSize::Word), 0x88776655, FLOOR)
            .unwrap();
        assert_eq!(
            s.load_lookup(d(0x100), FLOOR),
            SfcLoadResult::Forward(0x8877_6655_4433_2211)
        );
    }

    #[test]
    fn later_store_overwrites_without_renaming() {
        let mut s = sfc();
        s.store_write(SeqNum(1), d(0x100), 0xAAAA, FLOOR).unwrap();
        s.store_write(SeqNum(2), d(0x100), 0xBBBB, FLOOR).unwrap();
        // Single cumulative value: the old value is gone.
        assert_eq!(
            s.load_lookup(d(0x100), FLOOR),
            SfcLoadResult::Forward(0xBBBB)
        );
    }

    #[test]
    fn partial_flush_marks_valid_corrupt() {
        let mut s = sfc();
        s.store_write(SeqNum(3), d(0x100), 7, FLOOR).unwrap();
        s.on_partial_flush(SeqNum(2), SeqNum(6));
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Corrupt);
        assert_eq!(s.stats().corrupt_rejections, 1);
    }

    #[test]
    fn new_store_cleans_corrupt_bytes_it_writes() {
        let mut s = sfc();
        s.store_write(SeqNum(3), d(0x100), 7, FLOOR).unwrap();
        s.on_partial_flush(SeqNum(2), SeqNum(6));
        s.store_write(SeqNum(9), acc(0x100, AccessSize::Word), 0x55, FLOOR)
            .unwrap();
        // The rewritten word forwards again; the unwritten upper half is
        // still corrupt.
        assert_eq!(
            s.load_lookup(acc(0x100, AccessSize::Word), FLOOR),
            SfcLoadResult::Forward(0x55)
        );
        assert_eq!(
            s.load_lookup(acc(0x104, AccessSize::Word), FLOOR),
            SfcLoadResult::Corrupt
        );
    }

    #[test]
    fn full_flush_empties_everything() {
        let mut s = sfc();
        s.store_write(SeqNum(1), d(0x100), 1, FLOOR).unwrap();
        s.store_write(SeqNum(2), d(0x208), 2, FLOOR).unwrap();
        s.on_full_flush();
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Miss);
    }

    #[test]
    fn retire_of_latest_store_frees_line() {
        let mut s = sfc();
        s.store_write(SeqNum(5), d(0x100), 1, FLOOR).unwrap();
        assert!(s.on_store_retire(SeqNum(5), d(0x100)));
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.stats().frees, 1);
    }

    #[test]
    fn retire_of_older_store_keeps_line() {
        let mut s = sfc();
        s.store_write(SeqNum(5), d(0x100), 1, FLOOR).unwrap();
        s.store_write(SeqNum(9), d(0x100), 2, FLOOR).unwrap();
        assert!(!s.on_store_retire(SeqNum(5), d(0x100)));
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Forward(2));
    }

    #[test]
    fn canceled_writer_line_reclaimed_after_floor_passes() {
        let mut s = sfc();
        // Surviving store #1, canceled store #4 (same word, paper's §2.3
        // example).
        s.store_write(SeqNum(1), d(0xB000), 0xA1A1, FLOOR).unwrap();
        s.store_write(SeqNum(4), d(0xB000), 0xB2B2, FLOOR).unwrap();
        // Partial flush cancels #4; survivor is the branch at #3.
        s.on_partial_flush(SeqNum(3), SeqNum(4));
        // Store #1 retires: live_writer bound is 3 > 1, line stays corrupt.
        assert!(!s.on_store_retire(SeqNum(1), d(0xB000)));
        assert_eq!(s.load_lookup(d(0xB000), SeqNum(2)), SfcLoadResult::Corrupt);
        // Once the floor passes the bound, the lookup reclaims the line and
        // the load falls through to the cache (which store #1's retirement
        // has updated).
        assert_eq!(s.load_lookup(d(0xB000), SeqNum(5)), SfcLoadResult::Miss);
        assert_eq!(s.stats().reclaims, 1);
    }

    #[test]
    fn set_conflict_when_ways_exhausted() {
        let mut s = Sfc::new(SfcConfig {
            sets: 2,
            ways: 1,
            corruption: Default::default(),
            hash: Default::default(),
        });
        s.store_write(SeqNum(5), d(0x0), 1, SeqNum(5)).unwrap();
        // Word 2 maps to set 0 as well (2 sets).
        let err = s.store_write(SeqNum(6), d(0x10), 2, SeqNum(5));
        assert_eq!(err.unwrap_err(), StructuralConflict);
        assert_eq!(s.stats().store_conflicts, 1);
        // After the first writer leaves flight, the way is reclaimed.
        assert!(s.store_write(SeqNum(21), d(0x10), 2, SeqNum(20)).is_ok());
        assert_eq!(s.stats().reclaims, 1);
    }

    #[test]
    fn corrupt_line_helper_marks_only_that_line() {
        let mut s = sfc();
        s.store_write(SeqNum(1), d(0x100), 1, FLOOR).unwrap();
        s.store_write(SeqNum(2), d(0x208), 2, FLOOR).unwrap();
        s.corrupt_line(d(0x100));
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Corrupt);
        assert_eq!(s.load_lookup(d(0x208), FLOOR), SfcLoadResult::Forward(2));
    }

    fn endpoints_sfc(capacity: usize) -> Sfc {
        Sfc::new(SfcConfig {
            sets: 8,
            ways: 2,
            corruption: CorruptionPolicy::FlushEndpoints { capacity },
            hash: SetHash::LowBits,
        })
    }

    #[test]
    fn flush_endpoints_preserve_surviving_bytes() {
        let mut s = endpoints_sfc(4);
        s.store_write(SeqNum(1), d(0x100), 0xAAAA, FLOOR).unwrap();
        s.store_write(SeqNum(5), d(0x208), 0xBBBB, FLOOR).unwrap();
        // Cancel 3..=9: survivor 2, youngest 9. Store #1 survives.
        s.on_partial_flush(SeqNum(2), SeqNum(9));
        // The surviving store still forwards - the precision corruption
        // masks give up.
        assert_eq!(
            s.load_lookup(d(0x100), FLOOR),
            SfcLoadResult::Forward(0xAAAA)
        );
        // The canceled store's line is rejected.
        assert_eq!(s.load_lookup(d(0x208), FLOOR), SfcLoadResult::Corrupt);
    }

    #[test]
    fn flush_endpoints_reject_per_byte() {
        let mut s = endpoints_sfc(4);
        // Survivor writes the low word, canceled store the high word.
        s.store_write(SeqNum(1), acc(0x100, AccessSize::Word), 0x1111, FLOOR)
            .unwrap();
        s.store_write(SeqNum(7), acc(0x104, AccessSize::Word), 0x2222, FLOOR)
            .unwrap();
        s.on_partial_flush(SeqNum(3), SeqNum(8));
        assert_eq!(
            s.load_lookup(acc(0x100, AccessSize::Word), FLOOR),
            SfcLoadResult::Forward(0x1111)
        );
        assert_eq!(
            s.load_lookup(acc(0x104, AccessSize::Word), FLOOR),
            SfcLoadResult::Corrupt
        );
        // The full word needs a canceled byte: also rejected.
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Corrupt);
    }

    #[test]
    fn flush_endpoint_overflow_merges_conservatively() {
        let mut s = endpoints_sfc(1);
        s.store_write(SeqNum(2), d(0x100), 1, FLOOR).unwrap();
        s.on_partial_flush(SeqNum(4), SeqNum(6)); // cancels 5..=6
        s.on_partial_flush(SeqNum(9), SeqNum(12)); // cancels 10..=12; merges
                                                   // The merged hull 5..=12 covers the surviving seq 8 too:
                                                   // conservative, so a store with seq 8 is rejected.
        s.store_write(SeqNum(8), d(0x208), 2, FLOOR).unwrap();
        assert_eq!(s.load_lookup(d(0x208), FLOOR), SfcLoadResult::Corrupt);
        // Sequences outside the hull still forward.
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Forward(1));
    }

    #[test]
    fn flush_ranges_stay_sorted_and_coalesced() {
        let mut s = endpoints_sfc(8);
        // Out-of-order, overlapping, and adjacent inserts.
        s.on_partial_flush(SeqNum(9), SeqNum(12)); // 10..=12
        s.on_partial_flush(SeqNum(2), SeqNum(4)); // 3..=4, sorts before
        assert_eq!(s.flush_ranges, vec![(3, 4), (10, 12)]);
        // Overlapping 11..=15 extends the second range in place.
        s.on_partial_flush(SeqNum(10), SeqNum(15));
        assert_eq!(s.flush_ranges, vec![(3, 4), (10, 15)]);
        // Adjacent 5..=6 fuses with 3..=4 (no gap between 4 and 5).
        s.on_partial_flush(SeqNum(4), SeqNum(6));
        assert_eq!(s.flush_ranges, vec![(3, 6), (10, 15)]);
        // 7..=9 bridges both neighbors into one range.
        s.on_partial_flush(SeqNum(6), SeqNum(9));
        assert_eq!(s.flush_ranges, vec![(3, 15)]);
        // Membership is exact at the boundaries.
        assert!(!s.is_canceled(2));
        assert!(s.is_canceled(3));
        assert!(s.is_canceled(15));
        assert!(!s.is_canceled(16));
    }

    #[test]
    fn flush_range_capacity_merges_lowest_pair() {
        let mut s = endpoints_sfc(2);
        s.on_partial_flush(SeqNum(2), SeqNum(4)); // 3..=4
        s.on_partial_flush(SeqNum(9), SeqNum(12)); // 10..=12
        s.on_partial_flush(SeqNum(19), SeqNum(22)); // 20..=22: overflow
        // The two lowest ranges merge into their convex hull; membership
        // only grows (seq 7 was never flushed but is now conservatively
        // treated as canceled).
        assert_eq!(s.flush_ranges, vec![(3, 12), (20, 22)]);
        assert!(s.is_canceled(7));
        assert!(!s.is_canceled(15));
    }

    #[test]
    fn flush_endpoints_cleared_by_full_flush() {
        let mut s = endpoints_sfc(4);
        s.store_write(SeqNum(5), d(0x100), 1, FLOOR).unwrap();
        s.on_partial_flush(SeqNum(2), SeqNum(9));
        s.on_full_flush();
        // New epoch: a store whose seq falls in the old range is fine now.
        s.store_write(SeqNum(6), d(0x100), 7, FLOOR).unwrap();
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Forward(7));
    }

    #[test]
    fn corrupt_line_still_works_under_endpoints() {
        let mut s = endpoints_sfc(4);
        s.store_write(SeqNum(1), d(0x100), 1, FLOOR).unwrap();
        s.corrupt_line(d(0x100));
        assert_eq!(s.load_lookup(d(0x100), FLOOR), SfcLoadResult::Corrupt);
    }

    #[test]
    fn peak_occupancy_tracked() {
        let mut s = sfc();
        for i in 0..4u64 {
            s.store_write(SeqNum(i + 1), d(0x100 + 8 * i), i, FLOOR)
                .unwrap();
        }
        assert_eq!(s.peak_occupancy(), 4);
        for i in 0..4u64 {
            s.on_store_retire(SeqNum(i + 1), d(0x100 + 8 * i));
        }
        assert_eq!(s.occupancy(), 0);
        assert_eq!(s.peak_occupancy(), 4);
    }
}
