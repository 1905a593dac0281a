//! Dispatch stage: rename, dependence-predictor hints, backend admission,
//! and reorder-buffer insertion.

use aim_backend::MemKind;
use aim_isa::Instr;
use aim_types::SeqNum;

use crate::machine::Core;
use crate::probe::{Event, Probe};
use crate::rob::InFlight;

/// The memory kind of an instruction, if it is a memory instruction.
pub(crate) fn mem_kind(instr: Instr) -> Option<MemKind> {
    if instr.is_load() {
        Some(MemKind::Load)
    } else if instr.is_store() {
        Some(MemKind::Store)
    } else {
        None
    }
}

impl Core<'_> {
    pub(crate) fn dispatch<P: Probe>(&mut self, probe: &mut P) {
        for _ in 0..self.config.width {
            let Some(front) = self.fetch_buffer.front().copied() else {
                break;
            };
            if !self.rob.has_room() {
                self.stats.dispatch_stalls.rob_full += 1;
                break;
            }
            if front.instr.def().is_some() && self.renamer.free_count() == 0 {
                self.stats.dispatch_stalls.no_phys_reg += 1;
                break;
            }
            let kind = mem_kind(front.instr);
            if let Some(k) = kind {
                // All backend admission control funnels through one check so
                // a stalled cycle is counted against exactly one cause.
                if let Err(stall) = self.backend.can_dispatch(k) {
                    self.stats.dispatch_stalls.record(stall);
                    break;
                }
            }

            self.fetch_buffer.pop_front();
            let seq = SeqNum(self.next_seq);
            self.next_seq += 1;

            let mut entry = InFlight::new(seq, front.pc, front.instr);
            entry.dispatched_cycle = self.cycle;
            entry.trace_index = front.trace_index;
            entry.predicted_next_pc = front.predicted_next_pc;
            entry.history_snapshot = front.history_snapshot;
            for (slot, src) in entry.srcs.iter_mut().zip(front.instr.uses()) {
                *slot = src.map(|r| self.renamer.lookup(r));
            }
            if let Some(arch) = front.instr.def() {
                entry.dest = Some(
                    self.renamer
                        .rename_dest(arch)
                        .expect("free list checked above"),
                );
            }
            if let Some(k) = kind {
                let hints = self.dep_pred.on_dispatch(front.pc, &mut self.tags);
                entry.dep_consumes = hints.consumes;
                entry.dep_produces = hints.produces;

                // Oracle-style backends want advance address knowledge; the
                // golden trace provides it for correct-path stores, and
                // wrong-path stores stay unknowable (`None`).
                let hint = if self.backend.wants_dispatch_hint() {
                    front
                        .trace_index
                        .and_then(|t| self.trace.get(t))
                        .and_then(|rec| rec.mem_store)
                        .map(|(access, _)| access)
                } else {
                    None
                };
                self.backend.dispatch(k, seq, front.pc, hint);
                if k == MemKind::Store
                    && self.config.mdt_filter
                    && self.backend.supports_load_filter()
                {
                    self.unexecuted_stores += 1;
                    entry.counted_unexecuted = true;
                }
            }

            probe.event(self.cycle, &Event::Dispatch(&entry));
            let unready = entry.srcs.map(|s| s.filter(|&p| !self.renamer.is_ready(p)));
            let tag_list = entry.dep_consumes.and_then(|t| self.tags.payload_mut(t));
            let pos = self.rob.stable_of(self.rob.len());
            self.sched.enroll(pos, seq, unready, tag_list);
            self.rob.push(entry);
            self.stats.dispatched += 1;
        }
    }
}
