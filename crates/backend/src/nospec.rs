//! No load speculation at all: the lower performance bound.

use std::collections::VecDeque;

use aim_mem::MainMemory;
use aim_types::{MemAccess, SeqNum};

use crate::{
    BackendStats, DispatchStall, LoadOutcome, LoadRequest, MemBackend, MemKind, ReplayCause,
    StoreOutcome, StoreRequest,
};

/// Counters for the no-speculation backend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoSpecStats {
    /// Load execute attempts dropped because an older store was still in
    /// flight.
    pub order_waits: u64,
    /// Peak number of in-flight stores tracked.
    pub peak_inflight_stores: usize,
}

/// Total load serialization: a load executes only once *every* older store
/// has retired (committed to memory), so it always reads committed state.
/// No forwarding, no disambiguation structure, no violations — and no
/// memory-level parallelism. Any real scheme should beat this bound.
#[derive(Default)]
pub struct NoSpecBackend {
    /// In-flight stores in program order (dispatch to retirement).
    stores: VecDeque<SeqNum>,
    stats: NoSpecStats,
}

impl NoSpecBackend {
    /// Creates an empty no-speculation backend.
    pub fn new() -> NoSpecBackend {
        NoSpecBackend::default()
    }
}

impl MemBackend for NoSpecBackend {
    fn can_dispatch(&self, _kind: MemKind) -> Result<(), DispatchStall> {
        Ok(())
    }

    fn dispatch(&mut self, kind: MemKind, seq: SeqNum, _pc: u64, _hint: Option<MemAccess>) {
        if kind == MemKind::Store {
            if let Some(&tail) = self.stores.back() {
                assert!(tail < seq, "store dispatch out of program order");
            }
            self.stores.push_back(seq);
            self.stats.peak_inflight_stores =
                self.stats.peak_inflight_stores.max(self.stores.len());
        }
    }

    fn load_execute(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome {
        // The deque is sorted, so the front is the oldest in-flight store.
        if self.stores.front().is_some_and(|&s| s < req.seq) {
            self.stats.order_waits += 1;
            return LoadOutcome::Replay(ReplayCause::OrderWait);
        }
        LoadOutcome::Done {
            value: mem.read(req.access),
            forwarded: false,
        }
    }

    fn store_execute(&mut self, _req: &StoreRequest, _mem: &MainMemory) -> StoreOutcome {
        StoreOutcome::Done {
            latency: 1,
            violations: Vec::new(),
        }
    }

    fn retire_load(&mut self, _seq: SeqNum, _access: MemAccess) {}

    fn retire_store(&mut self, seq: SeqNum, _access: MemAccess) {
        let head = self.stores.pop_front().expect("store retire on empty FIFO");
        assert_eq!(head, seq, "store retirement out of order");
    }

    fn squash_after(
        &mut self,
        survivor: SeqNum,
        _youngest: SeqNum,
        _surviving_executed_store: &dyn Fn() -> bool,
    ) {
        while matches!(self.stores.back(), Some(&s) if s > survivor) {
            self.stores.pop_back();
        }
    }

    fn flush(&mut self) {
        self.stores.clear();
    }

    fn stats_into(&self, out: &mut BackendStats) {
        *out = BackendStats::NoSpec(self.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_types::{AccessSize, Addr};

    fn d(addr: u64) -> MemAccess {
        MemAccess::new(Addr(addr), AccessSize::Double).unwrap()
    }

    #[test]
    fn any_older_store_blocks_even_disjoint() {
        let mut b = NoSpecBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, None);
        let ld = LoadRequest {
            seq: SeqNum(2),
            pc: 0,
            access: d(0x500),
            floor: SeqNum(1),
            filtered: false,
        };
        assert!(matches!(
            b.load_execute(&ld, &mem),
            LoadOutcome::Replay(ReplayCause::OrderWait)
        ));
        // Execution alone is not enough: the store must retire.
        let st = StoreRequest {
            seq: SeqNum(1),
            pc: 0,
            access: d(0x100),
            value: 1,
            floor: SeqNum(1),
            bypass: false,
        };
        b.store_execute(&st, &mem);
        assert!(matches!(
            b.load_execute(&ld, &mem),
            LoadOutcome::Replay(ReplayCause::OrderWait)
        ));
        b.retire_store(SeqNum(1), d(0x100));
        assert!(matches!(
            b.load_execute(&ld, &mem),
            LoadOutcome::Done { .. }
        ));
        assert_eq!(b.stats.order_waits, 2);
    }

    #[test]
    fn younger_store_does_not_block() {
        let mut b = NoSpecBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(5), 0, None);
        let ld = LoadRequest {
            seq: SeqNum(2),
            pc: 0,
            access: d(0x500),
            floor: SeqNum(1),
            filtered: false,
        };
        assert!(matches!(
            b.load_execute(&ld, &mem),
            LoadOutcome::Done { .. }
        ));
    }

    #[test]
    fn squash_unblocks_loads() {
        let mut b = NoSpecBackend::new();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0, None);
        b.squash_after(SeqNum(0), SeqNum(1), &|| false);
        let ld = LoadRequest {
            seq: SeqNum(2),
            pc: 0,
            access: d(0x500),
            floor: SeqNum(1),
            filtered: false,
        };
        assert!(matches!(
            b.load_execute(&ld, &mem),
            LoadOutcome::Done { .. }
        ));
    }
}
