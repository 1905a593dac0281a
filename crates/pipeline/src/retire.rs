//! Retire stage: in-order commit, golden-trace validation, and the
//! backend/predictor retirement notifications.

use aim_isa::Instr;

use crate::machine::{Core, SimError};
use crate::probe::{Event, Probe};
use crate::rob::{InFlight, InstrState};

impl Core<'_> {
    pub(crate) fn retire<P: Probe>(&mut self, probe: &mut P) -> Result<(), SimError> {
        for _ in 0..self.config.width {
            let Some(head) = self.rob.head() else { break };
            if head.state != InstrState::Completed {
                break;
            }
            let e = self.rob.pop_head().expect("head checked");
            probe.event(self.cycle, &Event::Retire(&e));
            if self.config.validate_retirement {
                self.validate(&e)?;
            }

            if let Some(d) = e.dest {
                self.renamer.retire(d);
            }

            if let Instr::Branch { .. } = e.instr {
                let actual_taken = e.actual_next_pc.expect("resolved") != e.pc + 1;
                let predicted_taken = e.predicted_next_pc != e.pc + 1;
                self.gshare
                    .update(e.pc, actual_taken, predicted_taken, e.history_snapshot);
                self.stats.branches_retired += 1;
                if actual_taken != predicted_taken {
                    self.stats.branch_mispredicts += 1;
                }
            }

            if e.instr.is_store() {
                let (access, value) = e.mem.expect("completed store has an access");
                // Memory commits before the backend retirement hook — the
                // backend contract lets backends read committed state for
                // their own retiring store. This is also the cross-core
                // commit point: sibling cores observe the store from here on.
                // The commit is buffered and never stalls retirement, so a
                // far-tier miss takes the queued (never-refuse) path — the
                // write-back traffic still occupies MSHRs and delays loads.
                let _ = self.memsys.commit_store(access, value, self.cycle);
                self.backend.retire_store(e.seq, access);
                if e.filter_counted {
                    let bucket = self.filter_bucket(access);
                    self.store_granule_filter[bucket] -= 1;
                }
                self.stats.retired_stores += 1;
            } else if e.instr.is_load() {
                let (access, _) = e.mem.expect("completed load has an access");
                self.backend.retire_load(e.seq, access);
                self.stats.retired_loads += 1;
            }

            self.stats.retired += 1;
            self.last_retire_cycle = self.cycle;

            if matches!(e.instr, Instr::Halt) || self.stats.retired >= self.target_retired {
                self.halted = true;
                self.stats.cycles = self.cycle;
                self.finalize_stats();
                break;
            }
        }
        Ok(())
    }

    fn validate(&self, e: &InFlight) -> Result<(), SimError> {
        let Some(t) = e.trace_index else {
            return Err(SimError::Validation(format!(
                "wrong-path instruction retired: seq {} pc {} `{}`",
                e.seq, e.pc, e.instr
            )));
        };
        if t != self.stats.retired {
            return Err(SimError::Validation(format!(
                "retirement order diverged: trace index {} at retirement {}",
                t, self.stats.retired
            )));
        }
        let rec = self
            .trace
            .get(t)
            .ok_or_else(|| SimError::Validation(format!("trace index {t} out of range")))?;
        if rec.pc != e.pc {
            return Err(SimError::Validation(format!(
                "pc mismatch at trace {t}: expected {}, retired {}",
                rec.pc, e.pc
            )));
        }
        if let Some((reg, expect)) = rec.reg_write {
            if e.result != expect {
                return Err(SimError::Validation(format!(
                    "wrong result at pc {} (trace {t}): {} should be {:#x}, got {:#x} \
                     [instr `{}`]",
                    e.pc, reg, expect, e.result, e.instr
                )));
            }
        }
        if let Some((acc, expect)) = rec.mem_load {
            let (got_acc, got_val) = e.mem.ok_or_else(|| {
                SimError::Validation(format!("load at pc {} retired without executing", e.pc))
            })?;
            if got_acc != acc || got_val != expect {
                return Err(SimError::Validation(format!(
                    "wrong load at pc {} (trace {t}): expected {acc}={expect:#x}, \
                     got {got_acc}={got_val:#x}",
                    e.pc
                )));
            }
        }
        if let Some((acc, expect)) = rec.mem_store {
            let (got_acc, got_val) = e.mem.ok_or_else(|| {
                SimError::Validation(format!("store at pc {} retired without executing", e.pc))
            })?;
            let mask = acc.size().value_mask();
            if got_acc != acc || (got_val & mask) != expect {
                return Err(SimError::Validation(format!(
                    "wrong store at pc {} (trace {t}): expected {acc}={expect:#x}, \
                     got {got_acc}={:#x}",
                    e.pc,
                    got_val & mask
                )));
            }
        }
        if e.instr.is_control() {
            let actual = e.actual_next_pc.expect("resolved control");
            if actual != rec.next_pc {
                return Err(SimError::Validation(format!(
                    "wrong branch outcome at pc {} (trace {t}): expected next {}, got {}",
                    e.pc, rec.next_pc, actual
                )));
            }
        }
        Ok(())
    }
}
