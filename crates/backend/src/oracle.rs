//! Perfect memory disambiguation: the upper performance bound.

use std::collections::VecDeque;

use aim_mem::MainMemory;
use aim_types::{MemAccess, SeqNum};

use crate::{
    resolve_bytes, BackendStats, DispatchStall, LoadOutcome, LoadRequest, MemBackend, MemKind,
    ReplayCause, StoreOutcome, StoreRequest,
};

/// Counters for the oracle backend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OracleStats {
    /// Loads fully satisfied from in-flight stores.
    pub full_forwards: u64,
    /// Loads partially satisfied (merged with memory).
    pub partial_forwards: u64,
    /// Load execute attempts dropped to wait for an older overlapping
    /// store's data.
    pub order_waits: u64,
    /// Peak number of in-flight stores tracked.
    pub peak_inflight_stores: usize,
}

#[derive(Debug, Clone, Copy)]
struct OracleStore {
    seq: SeqNum,
    /// Advance address knowledge from dispatch: `None` for wrong-path
    /// stores, whose addresses are unknowable — the oracle treats those
    /// conservatively (every load waits for them).
    hint: Option<MemAccess>,
    /// Executed address/data; `None` until the store executes.
    data: Option<(MemAccess, u64)>,
}

/// Perfect disambiguation and forwarding: each load waits for exactly the
/// older unexecuted stores that overlap its bytes (addresses known at
/// dispatch via the golden trace), then forwards byte-wise from executed
/// in-flight stores. No speculation, hence no ordering violation, ever —
/// the performance an ideal predictor-plus-LSQ could at best achieve.
#[derive(Default)]
pub struct OracleBackend {
    stores: VecDeque<OracleStore>,
    stats: OracleStats,
}

impl OracleBackend {
    /// Creates an empty oracle backend.
    pub fn new() -> OracleBackend {
        OracleBackend::default()
    }
}

impl MemBackend for OracleBackend {
    fn can_dispatch(&self, _kind: MemKind) -> Result<(), DispatchStall> {
        Ok(())
    }

    fn dispatch(&mut self, kind: MemKind, seq: SeqNum, _pc: u64, hint: Option<MemAccess>) {
        if kind == MemKind::Store {
            if let Some(tail) = self.stores.back() {
                assert!(tail.seq < seq, "store dispatch out of program order");
            }
            self.stores.push_back(OracleStore {
                seq,
                hint,
                data: None,
            });
            self.stats.peak_inflight_stores =
                self.stats.peak_inflight_stores.max(self.stores.len());
        }
    }

    fn load_execute(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome {
        // Wait for any older store that has not executed yet and might
        // overlap: known-address stores are checked precisely; unknowable
        // (wrong-path) stores block conservatively.
        let must_wait = self.stores.iter().any(|st| {
            st.seq < req.seq && st.data.is_none() && st.hint.is_none_or(|h| h.overlaps(req.access))
        });
        if must_wait {
            self.stats.order_waits += 1;
            return LoadOutcome::Replay(ReplayCause::OrderWait);
        }
        let older_executed = self
            .stores
            .iter()
            .filter(|st| st.seq < req.seq)
            .filter_map(|st| st.data);
        let (value, forwarded) = resolve_bytes(req.access, older_executed, mem);
        if forwarded > 0 {
            if forwarded == req.access.mask().count() {
                self.stats.full_forwards += 1;
            } else {
                self.stats.partial_forwards += 1;
            }
        }
        LoadOutcome::Done {
            value,
            forwarded: forwarded == req.access.mask().count(),
        }
    }

    fn store_execute(&mut self, req: &StoreRequest, _mem: &MainMemory) -> StoreOutcome {
        let entry = self
            .stores
            .iter_mut()
            .find(|st| st.seq == req.seq)
            .expect("store executed without dispatch");
        entry.data = Some((req.access, req.value));
        StoreOutcome::Done {
            latency: 1,
            violations: Vec::new(),
        }
    }

    fn retire_load(&mut self, _seq: SeqNum, _access: MemAccess) {}

    fn retire_store(&mut self, seq: SeqNum, _access: MemAccess) {
        let head = self.stores.pop_front().expect("store retire on empty FIFO");
        assert_eq!(head.seq, seq, "store retirement out of order");
    }

    fn squash_after(
        &mut self,
        survivor: SeqNum,
        _youngest: SeqNum,
        _surviving_executed_store: &dyn Fn() -> bool,
    ) {
        while matches!(self.stores.back(), Some(st) if st.seq > survivor) {
            self.stores.pop_back();
        }
    }

    fn flush(&mut self) {
        self.stores.clear();
    }

    fn stats_into(&self, out: &mut BackendStats) {
        *out = BackendStats::Oracle(self.stats);
    }

    fn wants_dispatch_hint(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_types::{AccessSize, Addr};

    fn d(addr: u64) -> MemAccess {
        MemAccess::new(Addr(addr), AccessSize::Double).unwrap()
    }

    fn ld(seq: u64, addr: u64) -> LoadRequest {
        LoadRequest {
            seq: SeqNum(seq),
            pc: 0,
            access: d(addr),
            floor: SeqNum(1),
            filtered: false,
        }
    }

    fn st(seq: u64, addr: u64, value: u64) -> StoreRequest {
        StoreRequest {
            seq: SeqNum(seq),
            pc: 0,
            access: d(addr),
            value,
            floor: SeqNum(1),
            bypass: false,
        }
    }

    #[test]
    fn load_waits_for_overlapping_older_store_then_forwards() {
        let mut b = OracleBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, Some(d(0x100)));
        assert!(matches!(
            b.load_execute(&ld(2, 0x100), &mem),
            LoadOutcome::Replay(ReplayCause::OrderWait)
        ));
        b.store_execute(&st(1, 0x100, 42), &mem);
        assert!(matches!(
            b.load_execute(&ld(2, 0x100), &mem),
            LoadOutcome::Done {
                value: 42,
                forwarded: true
            }
        ));
        assert_eq!(b.stats.order_waits, 1);
        assert_eq!(b.stats.full_forwards, 1);
    }

    #[test]
    fn disjoint_hint_does_not_block() {
        let mut b = OracleBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, Some(d(0x200)));
        assert!(matches!(
            b.load_execute(&ld(2, 0x100), &mem),
            LoadOutcome::Done {
                value: 0,
                forwarded: false
            }
        ));
    }

    #[test]
    fn unknown_address_blocks_conservatively() {
        let mut b = OracleBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, None);
        assert!(matches!(
            b.load_execute(&ld(2, 0x100), &mem),
            LoadOutcome::Replay(ReplayCause::OrderWait)
        ));
    }

    #[test]
    fn younger_store_never_blocks_or_forwards() {
        let mut b = OracleBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(5), 0, Some(d(0x100)));
        b.store_execute(&st(5, 0x100, 99), &mem);
        assert!(matches!(
            b.load_execute(&ld(2, 0x100), &mem),
            LoadOutcome::Done {
                value: 0,
                forwarded: false
            }
        ));
    }

    #[test]
    fn squash_drops_young_stores() {
        let mut b = OracleBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, Some(d(0x100)));
        b.dispatch(MemKind::Store, SeqNum(3), 0, None);
        b.squash_after(SeqNum(1), SeqNum(3), &|| false);
        // The unknowable store at seq 3 is gone; only the known disjoint
        // one remains unexecuted, so a load to another address proceeds.
        assert!(matches!(
            b.load_execute(&ld(2, 0x200), &mem),
            LoadOutcome::Done { .. }
        ));
    }
}
