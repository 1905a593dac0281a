//! The idealized load/store queue behind the [`MemBackend`] seam.

use aim_lsq::Lsq;
use aim_mem::MainMemory;
use aim_types::{MemAccess, SeqNum};

use crate::{
    BackendStats, DispatchStall, LoadOutcome, LoadRequest, MemBackend, MemKind, StoreOutcome,
    StoreRequest, Violation,
};

/// The §3 reference LSQ as a backend: CAM-searched, value-based
/// disambiguation, single-cycle bypass. Its only stall source is queue
/// capacity.
pub struct LsqBackend {
    lsq: Lsq,
}

impl LsqBackend {
    /// Wraps a constructed [`Lsq`].
    pub fn new(lsq: Lsq) -> LsqBackend {
        LsqBackend { lsq }
    }
}

impl MemBackend for LsqBackend {
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
            MemKind::Store => self.lsq.dispatch_store(seq, pc),
        }
    }

    fn load_execute(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome {
        let lv = self.lsq.load_execute(req.seq, req.access, mem);
        LoadOutcome::Done {
            value: lv.value,
            forwarded: lv.forwarded_bytes == req.access.mask().count(),
        }
    }

    fn store_execute(&mut self, req: &StoreRequest, mem: &MainMemory) -> StoreOutcome {
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
        let _ = self.lsq.store_retire(seq);
    }

    fn squash_after(
        &mut self,
        survivor: SeqNum,
        _youngest: SeqNum,
        _surviving_executed_store: &dyn Fn() -> bool,
    ) {
        // "The LSQ recovers from partial pipeline flushes simply by
        // adjusting its tail pointers" (§2.2).
        self.lsq.squash_after(survivor);
    }

    fn flush(&mut self) {
        self.lsq.squash_after(SeqNum(0));
    }

    fn stats_into(&self, out: &mut BackendStats) {
        *out = BackendStats::Lsq(self.lsq.stats());
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

    #[test]
    fn capacity_maps_to_dispatch_stalls() {
        let mut b = LsqBackend::new(Lsq::new(LsqConfig {
            load_entries: 1,
            store_entries: 1,
        }));
        b.dispatch(MemKind::Load, SeqNum(1), 0, None);
        assert_eq!(
            b.can_dispatch(MemKind::Load),
            Err(DispatchStall::LoadQueueFull)
        );
        b.dispatch(MemKind::Store, SeqNum(2), 0, None);
        assert_eq!(
            b.can_dispatch(MemKind::Store),
            Err(DispatchStall::StoreQueueFull)
        );
    }

    #[test]
    fn late_store_reports_true_violation() {
        let mut b = LsqBackend::new(Lsq::new(LsqConfig::baseline_48x32()));
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0x10, None);
        b.dispatch(MemKind::Load, SeqNum(2), 0x14, None);
        let ld = LoadRequest {
            seq: SeqNum(2),
            pc: 0x14,
            access: d(0x100),
            floor: SeqNum(1),
            filtered: false,
        };
        assert!(matches!(
            b.load_execute(&ld, &mem),
            LoadOutcome::Done { value: 0, .. }
        ));
        let st = StoreRequest {
            seq: SeqNum(1),
            pc: 0x10,
            access: d(0x100),
            value: 9,
            floor: SeqNum(1),
            bypass: false,
        };
        let StoreOutcome::Done {
            violations,
            latency,
        } = b.store_execute(&st, &mem)
        else {
            panic!("LSQ stores never replay");
        };
        assert_eq!(latency, 1);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::True);
    }
}
