//! The event-driven scheduler: per-entry wake conditions, wake lists, and
//! the ROB-ordered ready set that select scans.
//!
//! Every waiting instruction keeps a mask of its unmet wake conditions:
//! each unready source register, a pending dependence tag, and a stall bit
//! (§2.4.3). An instruction sleeps on a *wake list* per condition — the
//! source register's, the tag's, or the sleepers queue of stall-bit
//! instructions — and only the event that meets a condition touches the
//! instructions waiting on it: a register write, a tag marked ready, or a
//! backend free event. An instruction whose mask empties sets its bit in
//! the ready set, which is indexed by stable ROB position
//! ([`Rob::stable_of`](crate::Rob::stable_of)) modulo a power of two at
//! least the ROB capacity. Live positions span less than one lap of that
//! ring, so scanning its bits circularly from the head's slot visits ready
//! instructions oldest first: select is find-first-set, up to the issue
//! width.
//!
//! Wake-list records name their consumer by stable position *and*
//! sequence number: a squash frees positions for reuse, and a record whose
//! sequence number no longer matches its slot is stale and skipped.

use std::collections::VecDeque;

use aim_types::SeqNum;

use crate::rename::PhysReg;

/// The source-register condition of `srcs[k]` is `SRC << k`.
const SRC: u8 = 1;
/// Both source-register conditions.
const SRCS: u8 = 0b011;
/// The consumed dependence tag is pending.
const TAG: u8 = 0b100;
/// The stall bit is set.
const STALL: u8 = 0b1000;

/// No node (an empty list).
const NIL: u32 = u32::MAX;

/// The head of one wake list: a register's, or a pending tag's (held in the
/// tag scoreboard's window).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WakeList(u32);

impl Default for WakeList {
    fn default() -> WakeList {
        WakeList(NIL)
    }
}

/// One wake-list record: condition `bit` of the instruction `seq` at stable
/// position `pos`.
#[derive(Debug, Clone, Copy)]
struct Node {
    next: u32,
    pos: u64,
    seq: SeqNum,
    bit: u8,
}

/// A stall-bit instruction, asleep until the backend's free-event count
/// passes `snapshot`.
#[derive(Debug, Clone, Copy)]
struct Sleeper {
    pos: u64,
    seq: SeqNum,
    snapshot: u64,
}

/// The scheduler's view of one ROB slot.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    seq: SeqNum,
    /// The slot's entry is in the Waiting state.
    waiting: bool,
    /// Unmet wake conditions (`SRC`, `TAG`, `STALL` bits).
    unmet: u8,
    /// The free-event count the stall bit waits to pass.
    snapshot: u64,
}

/// Wake lists and the ready set of one core.
#[derive(Debug, Clone)]
pub(crate) struct Scheduler {
    /// One bit per slot: set iff the slot's entry waits with nothing unmet.
    ready: Vec<u64>,
    /// Slot count minus one; the slot count is a power of two.
    mask: u64,
    slots: Vec<Slot>,
    /// Each physical register's consumer list.
    regs: Vec<WakeList>,
    /// Node pool for every wake list; freed nodes chain from `free`.
    nodes: Vec<Node>,
    free: u32,
    /// Stall-bit instructions in replay order, hence by snapshot.
    sleepers: VecDeque<Sleeper>,
}

impl Scheduler {
    /// A scheduler for a `rob_entries`-entry window over `phys_regs`
    /// physical registers.
    pub(crate) fn new(rob_entries: usize, phys_regs: usize) -> Scheduler {
        let slots = rob_entries.next_power_of_two();
        Scheduler {
            ready: vec![0; slots.div_ceil(64)],
            mask: slots as u64 - 1,
            slots: vec![Slot::default(); slots],
            regs: vec![WakeList::default(); phys_regs],
            nodes: Vec::new(),
            free: NIL,
            sleepers: VecDeque::new(),
        }
    }

    #[inline]
    fn slot_of(&self, pos: u64) -> usize {
        (pos & self.mask) as usize
    }

    #[inline]
    fn set_ready(&mut self, slot: usize) {
        self.ready[slot / 64] |= 1 << (slot % 64);
    }

    #[inline]
    fn clear_ready(&mut self, slot: usize) {
        self.ready[slot / 64] &= !(1 << (slot % 64));
    }

    fn push_node(&mut self, list: &mut WakeList, pos: u64, seq: SeqNum, bit: u8) {
        let node = Node {
            next: list.0,
            pos,
            seq,
            bit,
        };
        list.0 = if self.free == NIL {
            self.nodes.push(node);
            self.nodes.len() as u32 - 1
        } else {
            let at = self.free;
            self.free = self.nodes[at as usize].next;
            self.nodes[at as usize] = node;
            at
        };
    }

    /// Enters a newly dispatched instruction at `pos`. `unready_srcs[k]`
    /// names `srcs[k]` if that register is not yet written; `tag_list` is
    /// the pending consumed tag's list (from the tag scoreboard).
    pub(crate) fn enroll(
        &mut self,
        pos: u64,
        seq: SeqNum,
        unready_srcs: [Option<PhysReg>; 2],
        tag_list: Option<&mut WakeList>,
    ) {
        let mut unmet = 0;
        for (k, src) in unready_srcs.into_iter().enumerate() {
            if let Some(p) = src {
                let bit = SRC << k;
                let mut list = self.regs[p.0 as usize];
                self.push_node(&mut list, pos, seq, bit);
                self.regs[p.0 as usize] = list;
                unmet |= bit;
            }
        }
        if let Some(list) = tag_list {
            self.push_node(list, pos, seq, TAG);
            unmet |= TAG;
        }
        let slot = self.slot_of(pos);
        self.slots[slot] = Slot {
            seq,
            waiting: true,
            unmet,
            snapshot: 0,
        };
        if unmet == 0 {
            self.set_ready(slot);
        }
    }

    /// Re-enters a replayed instruction: its sources were ready when it
    /// issued and stay ready. `tag_pending` holds only if it issued by the
    /// head exemption, so its record from dispatch is still on the tag's
    /// list; a stall bit queues it with the sleepers.
    pub(crate) fn replay(&mut self, pos: u64, seq: SeqNum, tag_pending: bool, stall: Option<u64>) {
        let slot = self.slot_of(pos);
        debug_assert!(!self.slots[slot].waiting, "double replay");
        let mut unmet = 0;
        if tag_pending {
            unmet |= TAG;
        }
        if let Some(snapshot) = stall {
            unmet |= STALL;
            debug_assert!(
                self.sleepers.back().is_none_or(|s| s.snapshot <= snapshot),
                "free-event count went backwards"
            );
            self.sleepers.push_back(Sleeper { pos, seq, snapshot });
        }
        self.slots[slot] = Slot {
            seq,
            waiting: true,
            unmet,
            snapshot: stall.unwrap_or(0),
        };
        if unmet == 0 {
            self.set_ready(slot);
        }
    }

    /// Meets condition `bit` of the instruction `seq` at `pos`, unless the
    /// record is stale.
    #[inline]
    fn meet(&mut self, pos: u64, seq: SeqNum, bit: u8) {
        let slot = self.slot_of(pos);
        let s = &mut self.slots[slot];
        if s.seq != seq {
            return;
        }
        s.unmet &= !bit;
        if s.waiting && s.unmet == 0 {
            self.set_ready(slot);
        }
    }

    /// Wakes every consumer on `list` and frees its nodes.
    pub(crate) fn wake(&mut self, list: WakeList) {
        let mut at = list.0;
        while at != NIL {
            let n = self.nodes[at as usize];
            self.meet(n.pos, n.seq, n.bit);
            self.nodes[at as usize].next = self.free;
            self.free = at;
            at = n.next;
        }
    }

    /// Register `p` was written: wake its consumers.
    pub(crate) fn wake_reg(&mut self, p: PhysReg) {
        let list = std::mem::take(&mut self.regs[p.0 as usize]);
        self.wake(list);
    }

    /// Whether any stall-bit instruction sleeps.
    pub(crate) fn has_sleepers(&self) -> bool {
        !self.sleepers.is_empty()
    }

    /// Wakes the sleepers whose snapshot the free-event count `now` has
    /// passed (the §2.4.3 stall bits an SFC/MDT free clears).
    pub(crate) fn wake_sleepers(&mut self, now: u64) {
        while let Some(&s) = self.sleepers.front() {
            if s.snapshot >= now {
                break;
            }
            self.sleepers.pop_front();
            let slot = self.slot_of(s.pos);
            // A later replay of the same instruction re-armed the bit with
            // a newer snapshot and queued its own record.
            if self.slots[slot].snapshot == s.snapshot {
                self.meet(s.pos, s.seq, STALL);
            }
        }
    }

    /// The squash removed the `count` entries from stable position `from`
    /// on: they leave the ready set, their records go stale, and their
    /// sleepers are dropped.
    pub(crate) fn squash(&mut self, from: u64, count: usize) {
        for pos in from..from + count as u64 {
            let slot = self.slot_of(pos);
            self.slots[slot].waiting = false;
            self.clear_ready(slot);
        }
        if !self.sleepers.is_empty() {
            let slots = &self.slots;
            let mask = self.mask;
            self.sleepers.retain(|s| {
                let slot = &slots[(s.pos & mask) as usize];
                slot.seq == s.seq && slot.waiting
            });
        }
    }

    /// Selects up to `width` instructions to issue, oldest first, into
    /// `out` (stable positions), and takes them out of the waiting state.
    /// `head` is the ROB head's stable position: a waiting head whose
    /// sources are ready issues even with a pending tag or a stall bit set
    /// (the head-of-ROB exemptions).
    pub(crate) fn select(&mut self, head: Option<u64>, width: usize, out: &mut Vec<u64>) {
        let Some(head) = head else { return };
        let h = self.slot_of(head);
        let mut budget = width;
        let hs = self.slots[h];
        if budget > 0 && hs.waiting && hs.unmet != 0 && hs.unmet & SRCS == 0 {
            self.slots[h].waiting = false;
            out.push(head);
            budget -= 1;
        }
        let words = self.ready.len();
        let first = h / 64;
        let low = (1u64 << (h % 64)) - 1;
        // The head's word from the head's bit up, every other word, then
        // the head's word below the head's bit.
        for i in 0..=words {
            if budget == 0 {
                break;
            }
            let w = (first + i) % words;
            let mut bits = match i {
                0 => self.ready[w] & !low,
                i if i == words => self.ready[w] & low,
                _ => self.ready[w],
            };
            while bits != 0 && budget > 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.clear_ready(slot);
                self.slots[slot].waiting = false;
                out.push(head + ((slot as u64).wrapping_sub(h as u64) & self.mask));
                budget -= 1;
            }
        }
    }

    /// Whether the slot at `pos` holds `seq`, waiting.
    pub(crate) fn is_waiting(&self, pos: u64, seq: SeqNum) -> bool {
        let s = &self.slots[self.slot_of(pos)];
        s.seq == seq && s.waiting
    }

    /// Whether `pos`'s bit is set in the ready set.
    pub(crate) fn is_ready(&self, pos: u64) -> bool {
        let slot = self.slot_of(pos);
        self.ready[slot / 64] & (1 << (slot % 64)) != 0
    }

    /// Number of set bits in the ready set.
    pub(crate) fn ready_count(&self) -> usize {
        self.ready.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether nothing waits anywhere: no ready bit, no sleeper, no record
    /// on any list. Holds whenever the window is empty.
    pub(crate) fn is_idle(&self) -> bool {
        let mut free = 0;
        let mut at = self.free;
        while at != NIL {
            free += 1;
            at = self.nodes[at as usize].next;
        }
        self.ready_count() == 0 && self.sleepers.is_empty() && free == self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_sched(rob: usize) -> Scheduler {
        Scheduler::new(rob, 64)
    }

    fn select(s: &mut Scheduler, head: u64, width: usize) -> Vec<u64> {
        let mut out = Vec::new();
        s.select(Some(head), width, &mut out);
        out
    }

    #[test]
    fn select_is_oldest_first_across_the_ring_wrap() {
        // 6 entries in an 8-slot ring, head at position 13 (slot 5): the
        // live positions 13..19 occupy slots 5, 6, 7, 0, 1, 2.
        let mut s = ready_sched(6);
        for pos in 13..19 {
            s.enroll(pos, SeqNum(pos + 100), [None, None], None);
        }
        assert_eq!(select(&mut s, 13, 4), vec![13, 14, 15, 16]);
        assert_eq!(
            select(&mut s, 13, 4),
            vec![17, 18],
            "selected entries leave"
        );
        assert!(select(&mut s, 13, 4).is_empty());
    }

    #[test]
    fn wide_rings_scan_every_word_in_age_order() {
        // 200 entries over 256 slots (four words), head in the last word.
        let mut s = ready_sched(200);
        let head = 1_000;
        for pos in head..head + 200 {
            s.enroll(pos, SeqNum(pos), [None, None], None);
        }
        let all = select(&mut s, head, 500);
        assert_eq!(all, (head..head + 200).collect::<Vec<_>>());
    }

    #[test]
    fn register_writes_wake_only_their_consumers() {
        let mut s = ready_sched(8);
        let (p, q) = (PhysReg(40), PhysReg(41));
        s.enroll(0, SeqNum(1), [Some(p), None], None);
        s.enroll(1, SeqNum(2), [Some(q), Some(p)], None);
        s.enroll(2, SeqNum(3), [None, None], None);
        assert_eq!(select(&mut s, 0, 8), vec![2]);
        s.wake_reg(p);
        assert_eq!(select(&mut s, 0, 8), vec![0], "entry 1 still waits on q");
        s.wake_reg(q);
        assert_eq!(select(&mut s, 0, 8), vec![1]);
        assert!(s.is_idle());
    }

    #[test]
    fn stale_records_of_squashed_entries_are_skipped() {
        let mut s = ready_sched(4);
        let p = PhysReg(40);
        s.enroll(0, SeqNum(1), [None, None], None);
        s.enroll(1, SeqNum(2), [Some(p), None], None);
        s.squash(1, 1);
        // Position 1 is reused by a younger instruction that waits on p's
        // successor mapping; p's stale record must not wake it.
        s.enroll(1, SeqNum(9), [Some(PhysReg(42)), None], None);
        s.wake_reg(p);
        assert_eq!(select(&mut s, 0, 4), vec![0]);
        assert!(select(&mut s, 0, 4).is_empty());
        s.wake_reg(PhysReg(42));
        assert_eq!(select(&mut s, 0, 4), vec![1]);
    }

    #[test]
    fn head_exemption_covers_pending_tags_and_stall_bits_only() {
        let mut s = ready_sched(4);
        let mut tag = WakeList::default();
        // The head waits on a pending tag only: it issues anyway.
        s.enroll(0, SeqNum(1), [None, None], Some(&mut tag));
        assert_eq!(select(&mut s, 0, 4), vec![0]);
        // It replays with its tag still pending and a stall bit armed;
        // as the head it issues again, with no free event seen.
        s.replay(0, SeqNum(1), true, Some(5));
        s.wake_sleepers(5);
        assert_eq!(select(&mut s, 0, 4), vec![0]);
        // Away from the head, neither condition is exempt.
        s.enroll(1, SeqNum(2), [None, None], None);
        assert_eq!(select(&mut s, 0, 4), vec![1]);
        s.replay(1, SeqNum(2), false, Some(5));
        s.enroll(2, SeqNum(3), [Some(PhysReg(40)), None], None);
        assert!(select(&mut s, 0, 4).is_empty(), "head 0 is executing");
        // An unready source is never exempt, even at the head.
        assert!(select(&mut s, 2, 4).is_empty());
        s.wake_sleepers(6);
        assert_eq!(select(&mut s, 0, 4), vec![1]);
        s.wake(tag);
        s.wake_reg(PhysReg(40));
        assert_eq!(select(&mut s, 0, 4), vec![2]);
    }

    #[test]
    fn a_newer_stall_outlives_the_older_record() {
        let mut s = ready_sched(4);
        // Entry 0, the head, is executing; entry 1 stalls behind it.
        s.enroll(0, SeqNum(1), [None, None], None);
        s.enroll(1, SeqNum(2), [None, None], None);
        assert_eq!(select(&mut s, 0, 4), vec![0, 1]);
        s.replay(1, SeqNum(2), false, Some(2));
        s.wake_sleepers(2);
        assert!(select(&mut s, 0, 4).is_empty(), "count has not passed 2");
        s.wake_sleepers(3);
        assert_eq!(select(&mut s, 0, 4), vec![1]);
        // Replayed again at count 3: the bit now waits for 4.
        s.replay(1, SeqNum(2), false, Some(3));
        s.wake_sleepers(3);
        assert!(select(&mut s, 0, 4).is_empty());
        s.wake_sleepers(4);
        assert_eq!(select(&mut s, 0, 4), vec![1]);
    }
}
