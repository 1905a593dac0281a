//! The reorder buffer and the in-flight instruction record.

use std::collections::VecDeque;

use aim_isa::Instr;
use aim_predictor::DepTag;
use aim_types::{MemAccess, SeqNum};

use crate::rename::{PhysReg, RenameDest};

/// Lifecycle of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstrState {
    /// In the scheduling window, waiting for operands / dependence tag.
    Waiting,
    /// Issued; executing on a function unit.
    Executing,
    /// Execution finished; result broadcast; awaiting retirement.
    Completed,
}

/// One in-flight instruction: the union of its ROB, scheduler and payload
/// state.
#[derive(Debug, Clone)]
pub struct InFlight {
    /// Dense, monotonically increasing dispatch sequence number.
    pub seq: SeqNum,
    /// Program counter (instruction index).
    pub pc: u64,
    /// The decoded instruction.
    pub instr: Instr,
    /// Position in the golden trace, if fetched on the correct path.
    pub trace_index: Option<u64>,
    /// The next PC fetch assumed after this instruction.
    pub predicted_next_pc: u64,
    /// Renamed destination, if the instruction writes a register.
    pub dest: Option<RenameDest>,
    /// Renamed sources (physical registers to wait on).
    pub srcs: [Option<PhysReg>; 2],
    /// Dependence tag this instruction must consume before issue.
    pub dep_consumes: Option<DepTag>,
    /// Dependence tag this instruction produces at successful completion.
    pub dep_produces: Option<DepTag>,
    /// Current pipeline state.
    pub state: InstrState,
    /// Result value (dest write, or link value).
    pub result: u64,
    /// Resolved memory access and its data (loads: loaded value; stores:
    /// store data).
    pub mem: Option<(MemAccess, u64)>,
    /// Resolved next PC (control instructions, at completion).
    pub actual_next_pc: Option<u64>,
    /// Memory instruction previously dropped on a structural conflict or
    /// corruption; eligible for the ROB-head bypass.
    pub replayed: bool,
    /// Executed via the ROB-head bypass (skipped the SFC/MDT).
    pub bypassed: bool,
    /// Stall bit (§2.4.3): sleeping until an SFC/MDT entry is freed. Holds
    /// the free-event counter value at which the instruction may wake.
    pub stall_until_free_event: Option<u64>,
    /// Speculative global branch history at fetch, before this instruction's
    /// own prediction; recovery rolls the predictor back to it.
    pub history_snapshot: u64,
    /// Cycle the instruction entered the ROB (pipeline viewer).
    pub dispatched_cycle: u64,
    /// Cycle the latest execution pass began (pipeline viewer).
    pub issued_cycle: u64,
    /// Cycle the result was broadcast (pipeline viewer).
    pub completed_cycle: u64,
    /// Store bookkeeping for the §4 MDT search filter: still counted in the
    /// unexecuted-store census.
    pub counted_unexecuted: bool,
    /// Store bookkeeping: this store incremented the executed-store granule
    /// filter and must decrement it at retire or squash.
    pub filter_counted: bool,
}

impl InFlight {
    /// Creates a freshly dispatched record.
    pub fn new(seq: SeqNum, pc: u64, instr: Instr) -> InFlight {
        InFlight {
            seq,
            pc,
            instr,
            trace_index: None,
            predicted_next_pc: pc + 1,
            dest: None,
            srcs: [None, None],
            dep_consumes: None,
            dep_produces: None,
            state: InstrState::Waiting,
            result: 0,
            mem: None,
            actual_next_pc: None,
            replayed: false,
            bypassed: false,
            stall_until_free_event: None,
            history_snapshot: 0,
            dispatched_cycle: 0,
            issued_cycle: 0,
            completed_cycle: 0,
            counted_unexecuted: false,
            filter_counted: false,
        }
    }

    /// The next PC this instruction actually leads to, as far as is known:
    /// resolved control flow if completed, otherwise the predicted path.
    pub fn known_next_pc(&self) -> u64 {
        self.actual_next_pc.unwrap_or(self.predicted_next_pc)
    }
}

/// The reorder buffer: in-flight instructions in dispatch order.
///
/// Sequence numbers are monotonically increasing but not dense across
/// flushes, so lookup is by binary search.
///
/// # Examples
///
/// ```
/// use aim_isa::Instr;
/// use aim_pipeline::{InFlight, Rob};
/// use aim_types::SeqNum;
///
/// let mut rob = Rob::new(8);
/// rob.push(InFlight::new(SeqNum(1), 0, Instr::Nop));
/// rob.push(InFlight::new(SeqNum(2), 1, Instr::Halt));
/// assert_eq!(rob.head().unwrap().seq, SeqNum(1));
/// let squashed = rob.squash_after(SeqNum(1));
/// assert_eq!(squashed.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Rob {
    entries: VecDeque<InFlight>,
    capacity: usize,
    /// Count of entries ever popped from the head; the offset between an
    /// entry's queue position and its [`Rob::stable_of`] position.
    base: u64,
}

impl Rob {
    /// Creates an empty ROB with `capacity` entries.
    pub fn new(capacity: usize) -> Rob {
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            base: 0,
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether another instruction can dispatch.
    pub fn has_room(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Appends a newly dispatched instruction.
    ///
    /// # Panics
    ///
    /// Panics if full or out of order.
    pub fn push(&mut self, entry: InFlight) {
        assert!(self.has_room(), "ROB overflow");
        if let Some(tail) = self.entries.back() {
            assert!(tail.seq < entry.seq, "ROB dispatch out of order");
        }
        self.entries.push_back(entry);
    }

    /// The oldest in-flight instruction.
    pub fn head(&self) -> Option<&InFlight> {
        self.entries.front()
    }

    /// Pops the head at retirement.
    pub fn pop_head(&mut self) -> Option<InFlight> {
        let popped = self.entries.pop_front();
        self.base += popped.is_some() as u64;
        popped
    }

    /// The *stable position* of the entry at queue position `idx`: its queue
    /// position plus the number of entries ever retired. Unlike a raw queue
    /// position it survives head pops, and unlike a sequence number it maps
    /// back to a queue position with one subtraction — the scheduler
    /// indexes its ready set by these. Stable positions of live entries
    /// increase monotonically in dispatch order; a squash frees the largest
    /// ones for reuse (`stable_of(len())` is the first free one).
    #[inline]
    pub fn stable_of(&self, idx: usize) -> u64 {
        self.base + idx as u64
    }

    /// Converts a live entry's stable position back to its current queue
    /// position (for [`Rob::get_at`]).
    #[inline]
    pub fn index_of_stable(&self, stable: u64) -> usize {
        debug_assert!(stable >= self.base, "stable position already retired");
        (stable - self.base) as usize
    }

    pub(crate) fn index_of(&self, seq: SeqNum) -> Option<usize> {
        let head = self.entries.front()?.seq;
        let tail = self.entries.back().expect("front exists").seq;
        if seq < head || seq > tail {
            return None;
        }
        // Sequence numbers are strictly increasing, so an entry's index is
        // bounded by its seq distance from either end of the queue. With no
        // squash-induced gaps in between (the common case) the upper bound
        // is exact and the lookup is a single probe.
        let len = self.entries.len();
        let mut hi = ((seq.0 - head.0) as usize).min(len - 1);
        if self.entries[hi].seq == seq {
            return Some(hi);
        }
        let mut lo = (len - 1).saturating_sub((tail.0 - seq.0) as usize);
        // entries[hi] was just ruled out; search the remaining [lo, hi).
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.entries[mid].seq.cmp(&seq) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Immutable lookup by sequence number.
    pub fn get(&self, seq: SeqNum) -> Option<&InFlight> {
        self.index_of(seq).map(|i| &self.entries[i])
    }

    /// Mutable lookup by sequence number.
    pub fn get_mut(&mut self, seq: SeqNum) -> Option<&mut InFlight> {
        self.index_of(seq).map(move |i| &mut self.entries[i])
    }

    /// Direct lookup by queue position (see [`Rob::index_of_stable`]).
    /// Positions are stable only while no push/pop/squash intervenes; the
    /// execute stage relies on this to look an instruction up once per
    /// issue and reuse the position thereafter.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn get_at(&self, idx: usize) -> &InFlight {
        &self.entries[idx]
    }

    /// Mutable counterpart of [`Rob::get_at`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    #[inline]
    pub fn get_at_mut(&mut self, idx: usize) -> &mut InFlight {
        &mut self.entries[idx]
    }

    /// The oldest instruction younger than `survivor` (the first to be
    /// squashed by a flush after `survivor`).
    pub fn first_after(&self, survivor: SeqNum) -> Option<&InFlight> {
        let idx = self.entries.partition_point(|e| e.seq <= survivor);
        self.entries.get(idx)
    }

    /// Removes and returns all instructions younger than `survivor`,
    /// youngest first (the order walk-back recovery needs).
    pub fn squash_after(&mut self, survivor: SeqNum) -> Vec<InFlight> {
        let mut squashed = Vec::new();
        self.squash_after_into(survivor, &mut squashed);
        squashed
    }

    /// Like [`Rob::squash_after`], but fills a caller-provided buffer
    /// (cleared first) so the recovery hot path can reuse its allocation
    /// across flushes.
    pub fn squash_after_into(&mut self, survivor: SeqNum, out: &mut Vec<InFlight>) {
        out.clear();
        while matches!(self.entries.back(), Some(e) if e.seq > survivor) {
            out.push(self.entries.pop_back().expect("back checked"));
        }
    }

    /// Iterates over in-flight instructions, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &InFlight> {
        self.entries.iter()
    }

    /// Iterates mutably, oldest first.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut InFlight> {
        self.entries.iter_mut()
    }

    /// The sequence number of the oldest in-flight instruction; used as the
    /// retirement floor for SFC/MDT stale-entry reclamation. When empty, the
    /// floor is `next_seq` (everything older is done).
    pub fn floor(&self, next_seq: SeqNum) -> SeqNum {
        self.entries.front().map_or(next_seq, |e| e.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64) -> InFlight {
        InFlight::new(SeqNum(seq), seq, Instr::Nop)
    }

    #[test]
    fn push_pop_fifo() {
        let mut rob = Rob::new(4);
        rob.push(entry(1));
        rob.push(entry(2));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.head().unwrap().seq, SeqNum(1));
        assert_eq!(rob.pop_head().unwrap().seq, SeqNum(1));
        assert_eq!(rob.head().unwrap().seq, SeqNum(2));
    }

    #[test]
    fn capacity_gates() {
        let mut rob = Rob::new(2);
        rob.push(entry(1));
        rob.push(entry(2));
        assert!(!rob.has_room());
    }

    #[test]
    fn lookup_with_sparse_seqs() {
        let mut rob = Rob::new(8);
        for s in [1, 5, 9, 20] {
            rob.push(entry(s));
        }
        assert_eq!(rob.get(SeqNum(9)).unwrap().pc, 9);
        assert!(rob.get(SeqNum(10)).is_none());
        rob.get_mut(SeqNum(5)).unwrap().result = 42;
        assert_eq!(rob.get(SeqNum(5)).unwrap().result, 42);
    }

    #[test]
    fn lookup_hits_every_entry_across_gap_patterns() {
        // Exercise the bounded-range fast path (dense prefixes) and the
        // fallback search (gaps on either side of the probed seq).
        for gaps in [
            vec![1, 2, 3, 4],
            vec![1, 2, 10, 11],
            vec![1, 8, 9, 10],
            vec![2, 30, 31, 90],
        ] {
            let mut rob = Rob::new(8);
            for &s in &gaps {
                rob.push(entry(s));
            }
            for &s in &gaps {
                assert_eq!(rob.get(SeqNum(s)).unwrap().seq, SeqNum(s), "{gaps:?}");
            }
            // Every absent seq inside and outside the window misses.
            for s in 0..=gaps.last().unwrap() + 2 {
                if !gaps.contains(&s) {
                    assert!(rob.get(SeqNum(s)).is_none(), "{gaps:?} found absent {s}");
                }
            }
        }
    }

    #[test]
    fn lookup_survives_retire_and_squash_churn() {
        // Head removals shift indices away from the seq-distance bound;
        // tail squashes plus redispatch reintroduce gaps at the young end.
        let mut rob = Rob::new(8);
        for s in [1, 2, 3, 4, 5] {
            rob.push(entry(s));
        }
        rob.pop_head();
        rob.pop_head(); // head is now seq 3 at index 0
        assert_eq!(rob.get(SeqNum(5)).unwrap().seq, SeqNum(5));
        assert!(rob.get(SeqNum(2)).is_none());
        rob.squash_after(SeqNum(3));
        rob.push(entry(9)); // [3, 9]
        assert_eq!(rob.get(SeqNum(9)).unwrap().seq, SeqNum(9));
        assert_eq!(rob.get(SeqNum(3)).unwrap().seq, SeqNum(3));
        assert!(rob.get(SeqNum(4)).is_none());
        assert!(rob.get(SeqNum(10)).is_none());
    }

    #[test]
    fn first_after_finds_oldest_squash_candidate() {
        let mut rob = Rob::new(8);
        for s in [1, 5, 9, 20] {
            rob.push(entry(s));
        }
        assert_eq!(rob.first_after(SeqNum(5)).unwrap().seq, SeqNum(9));
        assert_eq!(rob.first_after(SeqNum(4)).unwrap().seq, SeqNum(5));
        assert!(rob.first_after(SeqNum(20)).is_none());
    }

    #[test]
    fn squash_returns_youngest_first() {
        let mut rob = Rob::new(8);
        for s in [1, 5, 9, 20] {
            rob.push(entry(s));
        }
        let squashed = rob.squash_after(SeqNum(5));
        let seqs: Vec<u64> = squashed.iter().map(|e| e.seq.0).collect();
        assert_eq!(seqs, vec![20, 9]);
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn floor_tracks_head() {
        let mut rob = Rob::new(4);
        assert_eq!(rob.floor(SeqNum(7)), SeqNum(7));
        rob.push(entry(3));
        assert_eq!(rob.floor(SeqNum(7)), SeqNum(3));
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn out_of_order_push_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(3));
    }
}
