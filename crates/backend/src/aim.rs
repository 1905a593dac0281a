//! The paper's backend: store forwarding cache + memory disambiguation
//! table + non-associative store FIFO.

use aim_core::{Mdt, MdtStats, PartialMatchPolicy, Sfc, SfcLoadResult, SfcStats};
use aim_mem::{MainMemory, StoreFifo};
use aim_types::{overlay_byte, MemAccess, SeqNum};

use crate::{
    BackendStats, DispatchStall, LoadOutcome, LoadRequest, MemBackend, MemKind, ReplayCause,
    StoreOutcome, StoreRequest,
};

/// Counters for the SFC/MDT/StoreFIFO backend.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AimStats {
    /// SFC counters.
    pub sfc: SfcStats,
    /// MDT counters.
    pub mdt: MdtStats,
    /// Peak SFC line occupancy.
    pub sfc_peak_occupancy: usize,
    /// Peak MDT entry occupancy.
    pub mdt_peak_occupancy: usize,
    /// Peak store-FIFO occupancy.
    pub store_fifo_peak: usize,
}

/// The address-indexed memory unit of the paper (Figure 1): stores buffer in
/// a FIFO, forward through the [`Sfc`], and are disambiguated by the
/// [`Mdt`].
pub struct AimBackend {
    pub(crate) sfc: Sfc,
    pub(crate) mdt: Mdt,
    store_fifo: StoreFifo,
    /// Store FIFO capacity (0 = unbounded).
    fifo_capacity: usize,
    partial_match_policy: PartialMatchPolicy,
    store_extra_latency: u64,
    violation_extra_penalty: u64,
}

impl AimBackend {
    /// Builds the backend around constructed SFC/MDT structures.
    pub fn new(
        sfc: Sfc,
        mdt: Mdt,
        fifo_capacity: usize,
        partial_match_policy: PartialMatchPolicy,
        store_extra_latency: u64,
        violation_extra_penalty: u64,
    ) -> AimBackend {
        AimBackend {
            sfc,
            mdt,
            store_fifo: StoreFifo::new(),
            fifo_capacity,
            partial_match_policy,
            store_extra_latency,
            violation_extra_penalty,
        }
    }

    /// The §2.3 SFC probe a clean load pays: forward, miss to memory, or
    /// combine/replay on a partial match. Shared with the PCAX backend,
    /// whose unknown/vetoed loads take exactly this path.
    pub(crate) fn sfc_probe(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome {
        match self.sfc.load_lookup(req.access, req.floor) {
            SfcLoadResult::Corrupt => LoadOutcome::Replay(ReplayCause::Corrupt),
            SfcLoadResult::Forward(value) => LoadOutcome::Done {
                value,
                forwarded: true,
            },
            SfcLoadResult::Miss => LoadOutcome::Done {
                value: mem.read(req.access),
                forwarded: false,
            },
            SfcLoadResult::Partial { data, valid } => {
                if self.partial_match_policy == PartialMatchPolicy::Replay {
                    LoadOutcome::Replay(ReplayCause::Partial)
                } else {
                    // Overlay the valid SFC bytes on the memory value.
                    let mut value = mem.read(req.access);
                    for (k, byte_idx) in req.access.mask().iter_bytes().enumerate() {
                        if valid.contains_byte(byte_idx) {
                            value = overlay_byte(value, k, data[byte_idx as usize]);
                        }
                    }
                    LoadOutcome::Done {
                        value,
                        forwarded: false,
                    }
                }
            }
        }
    }
}

impl MemBackend for AimBackend {
    fn can_dispatch(&self, kind: MemKind) -> Result<(), DispatchStall> {
        if kind == MemKind::Store
            && self.fifo_capacity > 0
            && self.store_fifo.len() >= self.fifo_capacity
        {
            return Err(DispatchStall::StoreFifoFull);
        }
        Ok(())
    }

    fn dispatch(&mut self, kind: MemKind, seq: SeqNum, _pc: u64, _hint: Option<MemAccess>) {
        if kind == MemKind::Store {
            self.store_fifo.push(seq);
        }
    }

    fn load_execute(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome {
        if req.filtered {
            // §4 search filter: no unexecuted store can later check this
            // load, and no executed-unretired store can alias it — the MDT
            // access is provably unnecessary. The SFC lookup still runs
            // (canceled-store lines reject conservatively).
            return match self.sfc.load_lookup(req.access, req.floor) {
                SfcLoadResult::Corrupt => LoadOutcome::Replay(ReplayCause::Corrupt),
                SfcLoadResult::Forward(value) => LoadOutcome::Done {
                    value,
                    forwarded: true,
                },
                _ => LoadOutcome::Done {
                    value: mem.read(req.access),
                    forwarded: false,
                },
            };
        }
        match self
            .mdt
            .on_load_execute(req.seq, req.pc, req.access, req.floor)
        {
            Err(_) => LoadOutcome::Replay(ReplayCause::MdtConflict),
            Ok(Some(v)) => LoadOutcome::Anti(v),
            Ok(None) => self.sfc_probe(req, mem),
        }
    }

    fn store_execute(&mut self, req: &StoreRequest, _mem: &MainMemory) -> StoreOutcome {
        let violations = if req.bypass {
            // §2.2: a store at the head "writes its value to the store FIFO
            // and retires" without the SFC. The MDT check still runs when
            // its entry exists — a younger load may have executed with a
            // stale value while this store was being replayed. If the MDT
            // cannot even allocate an entry, no younger load or store to
            // this granule has executed, so skipping the check is safe.
            self.mdt
                .on_store_execute(req.seq, req.pc, req.access, req.floor)
                .unwrap_or_default()
        } else {
            match self
                .mdt
                .on_store_execute(req.seq, req.pc, req.access, req.floor)
            {
                Err(_) => return StoreOutcome::Replay(ReplayCause::MdtConflict),
                Ok(violations) => {
                    if self
                        .sfc
                        .store_write(req.seq, req.access, req.value, req.floor)
                        .is_err()
                    {
                        // The MDT update stands; the violations will be
                        // re-detected when the store re-executes.
                        return StoreOutcome::Replay(ReplayCause::SfcConflict);
                    }
                    violations
                }
            }
        };
        self.store_fifo.fill(req.seq, req.access, req.value);
        StoreOutcome::Done {
            latency: 1 + self.store_extra_latency,
            violations,
        }
    }

    fn retire_load(&mut self, seq: SeqNum, access: MemAccess) {
        self.mdt.on_load_retire(seq, access);
    }

    fn retire_store(&mut self, seq: SeqNum, access: MemAccess) {
        self.store_fifo
            .pop_retired(seq)
            .expect("retiring store is the FIFO head");
        self.sfc.on_store_retire(seq, access);
        self.mdt.on_store_retire(seq, access);
    }

    fn squash_after(
        &mut self,
        survivor: SeqNum,
        youngest: SeqNum,
        surviving_executed_store: &dyn Fn() -> bool,
    ) {
        self.store_fifo.squash_after(survivor);
        // "When a full pipeline flush occurs the memory unit simply flushes
        // the SFC ... when a partial pipeline flush occurs the memory unit
        // cannot flush the SFC, because the pipeline still contains
        // completed stores that were not flushed and have not been retired"
        // (§2.3). A store writes the SFC when it executes; any surviving
        // store that has begun executing may have live SFC data (bypassed
        // stores skip the SFC and commit directly).
        if surviving_executed_store() {
            self.sfc.on_partial_flush(survivor, youngest);
        } else {
            self.sfc.on_full_flush();
        }
        // The MDT intentionally ignores flushes (§2.2).
    }

    fn flush(&mut self) {
        self.store_fifo.squash_all();
        self.sfc.on_full_flush();
    }

    fn stats_into(&self, out: &mut BackendStats) {
        *out = BackendStats::Aim(AimStats {
            sfc: self.sfc.stats(),
            mdt: self.mdt.stats(),
            sfc_peak_occupancy: self.sfc.peak_occupancy(),
            mdt_peak_occupancy: self.mdt.peak_occupancy(),
            store_fifo_peak: self.store_fifo.peak_occupancy(),
        });
    }

    fn free_event_count(&self) -> u64 {
        let s = self.sfc.stats();
        let m = self.mdt.stats();
        s.frees + s.reclaims + m.frees + m.reclaims
    }

    fn uses_stall_bits(&self) -> bool {
        true
    }

    fn violation_extra_penalty(&self) -> u64 {
        self.violation_extra_penalty
    }

    fn supports_load_filter(&self) -> bool {
        true
    }

    fn supports_head_bypass(&self) -> bool {
        true
    }

    fn mark_corrupt(&mut self, access: MemAccess) {
        self.sfc.corrupt_line(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_core::{MdtConfig, SfcConfig};
    use aim_types::{AccessSize, Addr};

    fn backend(fifo: usize) -> AimBackend {
        AimBackend::new(
            Sfc::new(SfcConfig::baseline()),
            Mdt::new(MdtConfig::baseline()),
            fifo,
            PartialMatchPolicy::Combine,
            1,
            1,
        )
    }

    fn d(addr: u64) -> MemAccess {
        MemAccess::new(Addr(addr), AccessSize::Double).unwrap()
    }

    #[test]
    fn bounded_fifo_gates_store_dispatch_only() {
        let mut b = backend(1);
        assert!(b.can_dispatch(MemKind::Store).is_ok());
        b.dispatch(MemKind::Store, SeqNum(1), 0x10, None);
        assert_eq!(
            b.can_dispatch(MemKind::Store),
            Err(DispatchStall::StoreFifoFull)
        );
        assert!(b.can_dispatch(MemKind::Load).is_ok());
    }

    #[test]
    fn store_forwards_to_younger_load() {
        let mut b = backend(0);
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0x10, None);
        b.dispatch(MemKind::Load, SeqNum(2), 0x14, None);
        let st = StoreRequest {
            seq: SeqNum(1),
            pc: 0x10,
            access: d(0x100),
            value: 0xBEEF,
            floor: SeqNum(1),
            bypass: false,
        };
        assert!(matches!(
            b.store_execute(&st, &mem),
            StoreOutcome::Done { latency: 2, ref violations } if violations.is_empty()
        ));
        let ld = LoadRequest {
            seq: SeqNum(2),
            pc: 0x14,
            access: d(0x100),
            floor: SeqNum(1),
            filtered: false,
        };
        assert!(matches!(
            b.load_execute(&ld, &mem),
            LoadOutcome::Done {
                value: 0xBEEF,
                forwarded: true
            }
        ));
    }

    #[test]
    fn partial_match_combines_sfc_bytes_over_memory() {
        // Every memory byte differs, and each load starts mid-word, so a
        // byte taken from the wrong side or placed at the wrong offset shows.
        let mut b = backend(0);
        let mut mem = MainMemory::new();
        mem.write(d(0x100), 0x8877_6655_4433_2211);
        b.dispatch(MemKind::Store, SeqNum(1), 0x10, None);
        let byte = MemAccess::new(Addr(0x105), AccessSize::Byte).unwrap();
        let st = StoreRequest {
            seq: SeqNum(1),
            pc: 0x10,
            access: byte,
            value: 0xAA,
            floor: SeqNum(1),
            bypass: false,
        };
        b.store_execute(&st, &mem);
        let loads = [
            (AccessSize::Word, 0x104, 0x8877_AA55),
            (AccessSize::Half, 0x104, 0xAA55),
            (AccessSize::Double, 0x100, 0x8877_AA55_4433_2211),
        ];
        for (seq, &(size, addr, expect)) in (2..).zip(&loads) {
            b.dispatch(MemKind::Load, SeqNum(seq), 0x14, None);
            let ld = LoadRequest {
                seq: SeqNum(seq),
                pc: 0x14,
                access: MemAccess::new(Addr(addr), size).unwrap(),
                floor: SeqNum(1),
                filtered: false,
            };
            match b.load_execute(&ld, &mem) {
                LoadOutcome::Done { value, forwarded } => {
                    assert_eq!((value, forwarded), (expect, false), "{}", ld.access);
                }
                other => panic!("{}: {other:?}", ld.access),
            }
        }
    }

    #[test]
    fn full_flush_clears_sfc_when_no_survivor_executed() {
        let mut b = backend(0);
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0x10, None);
        let st = StoreRequest {
            seq: SeqNum(1),
            pc: 0x10,
            access: d(0x100),
            value: 7,
            floor: SeqNum(1),
            bypass: false,
        };
        b.store_execute(&st, &mem);
        b.squash_after(SeqNum(0), SeqNum(1), &|| false);
        assert_eq!(b.sfc.stats().full_flushes, 1);
        assert!(b.store_fifo.is_empty());
    }
}
