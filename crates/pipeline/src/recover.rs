//! Recovery: pending-violation bookkeeping, completion-time violation
//! application, control-mispredict repair, and pipeline squash.

use aim_types::{SeqNum, ViolationKind};

use crate::machine::Core;
use crate::probe::{Event, Probe};
use crate::rob::InstrState;

/// A pending memory-dependence violation, carried from execute to the
/// completion event that applies recovery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingViolation {
    pub(crate) kind: ViolationKind,
    pub(crate) producer_pc: u64,
    pub(crate) consumer_pc: u64,
    pub(crate) squash_after: SeqNum,
    /// Apply §2.4.2 corrupt-marking instead of a flush (output violations
    /// under [`OutputDepRecovery::MarkCorrupt`]); those are applied at issue
    /// and never reach the pending queue, hence the invariant assert below.
    ///
    /// [`OutputDepRecovery::MarkCorrupt`]: crate::OutputDepRecovery::MarkCorrupt
    pub(crate) corrupt_only: bool,
}

impl Core<'_> {
    /// Records a violation to apply when the raising instruction (`seq`)
    /// completes, preserving the sorted-by-raiser invariant of
    /// `pending_violations`. Completion events arrive out of sequence order,
    /// so this is an ordered insert, not a push.
    pub(crate) fn queue_violation(&mut self, seq: SeqNum, v: PendingViolation) {
        let at = self.pending_violations.partition_point(|(s, _)| *s <= seq);
        self.pending_violations.insert(at, (seq, v));
    }

    /// The index range of violations raised by `seq` (contiguous, because
    /// the vector is sorted by raiser).
    pub(crate) fn violation_range(&self, seq: SeqNum) -> std::ops::Range<usize> {
        let start = self.pending_violations.partition_point(|(s, _)| *s < seq);
        let end = self.pending_violations.partition_point(|(s, _)| *s <= seq);
        start..end
    }

    pub(crate) fn take_violations(&mut self, seq: SeqNum) -> Vec<PendingViolation> {
        let range = self.violation_range(seq);
        let mut taken = std::mem::take(&mut self.violation_scratch);
        taken.clear();
        taken.extend(self.pending_violations.drain(range).map(|(_, v)| v));
        taken
    }

    pub(crate) fn apply_completion<P: Probe>(
        &mut self,
        seq: SeqNum,
        idx: usize,
        violations: &[PendingViolation],
        probe: &mut P,
    ) {
        // An anti violation squashes the violating load itself; nothing else
        // about the instruction completes.
        if let Some(v) = violations
            .iter()
            .find(|v| v.kind == ViolationKind::Anti)
            .copied()
        {
            self.train_predictor(&v);
            self.stats.flushes.anti_dep += 1;
            self.recover_to(
                v.squash_after,
                self.config.mispredict_penalty + self.backend.violation_extra_penalty(),
                probe,
            );
            return;
        }

        // Normal completion: broadcast the result.
        let cycle = self.cycle;
        let e = self.rob.get_at_mut(idx);
        debug_assert_eq!(e.seq, seq, "stale completion index");
        e.state = InstrState::Completed;
        e.completed_cycle = cycle;
        let dest = e.dest;
        let result = e.result;
        let produces = e.dep_produces;
        let instr = e.instr;
        let predicted_next = e.predicted_next_pc;
        let actual_next = e.actual_next_pc;
        probe.event(cycle, &Event::Complete(e));

        if let Some(d) = dest {
            self.renamer.write(d.new_phys, result);
        }
        if let Some(tag) = produces {
            self.tags.mark_ready(tag);
        }

        // Control resolution.
        if instr.is_control() {
            let actual = actual_next.expect("control instructions resolve a target");
            if actual != predicted_next {
                self.stats.flushes.branch += 1;
                self.recover_control(seq, idx, actual, probe);
                return;
            }
        }

        // Memory-ordering violations raised by this (surviving) instruction.
        let mut flush_point: Option<SeqNum> = None;
        let penalty = self.config.mispredict_penalty + self.backend.violation_extra_penalty();
        for v in violations {
            self.train_predictor(v);
            match v.kind {
                ViolationKind::True => self.stats.flushes.true_dep += 1,
                ViolationKind::Output => {
                    debug_assert!(!v.corrupt_only, "corrupt-only recovery applies at issue");
                    self.stats.flushes.output_dep += 1;
                }
                ViolationKind::Anti => unreachable!("handled above"),
            }
            flush_point = Some(flush_point.map_or(v.squash_after, |f| f.min(v.squash_after)));
        }
        if let Some(point) = flush_point {
            self.recover_to(point, penalty, probe);
        }
    }

    fn train_predictor(&mut self, v: &PendingViolation) {
        self.dep_pred
            .record_violation(v.producer_pc, v.consumer_pc, v.kind);
    }

    /// Recovery for a resolved control misprediction: flush after the branch
    /// and steer fetch to the computed target.
    fn recover_control<P: Probe>(
        &mut self,
        branch_seq: SeqNum,
        idx: usize,
        actual_next: u64,
        probe: &mut P,
    ) {
        let e = self.rob.get_at(idx);
        let resume_cursor = e.trace_index.map(|t| t + 1);
        // Rebuild the speculative history: everything after this branch is
        // gone, and the branch itself resolves to its actual direction.
        let snapshot = e.history_snapshot;
        let is_cond = e.instr.is_cond_branch();
        let taken = actual_next != e.pc + 1;
        self.gshare.restore_history(snapshot);
        if is_cond {
            self.gshare.speculate(taken);
        }
        self.squash_and_redirect(
            branch_seq,
            actual_next,
            resume_cursor,
            self.config.mispredict_penalty,
            probe,
        );
    }

    /// Recovery for memory-ordering violations: flush everything after
    /// `survivor` and refetch the same (speculative) path from the first
    /// squashed instruction — taken from the ROB, or failing that the fetch
    /// buffer. If nothing younger exists anywhere, fetch is already
    /// consistent and only the penalty applies.
    fn recover_to<P: Probe>(&mut self, survivor: SeqNum, penalty: u64, probe: &mut P) {
        let resume = self
            .rob
            .first_after(survivor)
            .map(|f| (f.pc, f.trace_index, f.history_snapshot))
            .or_else(|| {
                self.fetch_buffer
                    .front()
                    .map(|f| (f.pc, f.trace_index, f.history_snapshot))
            });
        match resume {
            Some((pc, cursor, history)) => {
                self.gshare.restore_history(history);
                self.squash_and_redirect(survivor, pc, cursor, penalty, probe);
            }
            None => {
                // The violating instruction is the youngest anywhere; there
                // is nothing to squash and fetch needs no redirect.
                self.fetch_stall_until = self.fetch_stall_until.max(self.cycle + penalty);
            }
        }
    }

    pub(crate) fn squash_and_redirect<P: Probe>(
        &mut self,
        survivor: SeqNum,
        resume_pc: u64,
        resume_cursor: Option<u64>,
        penalty: u64,
        probe: &mut P,
    ) {
        probe.event(
            self.cycle,
            &Event::Recover {
                survivor,
                resume_pc,
                penalty,
            },
        );
        let mut squashed = std::mem::take(&mut self.squash_scratch);
        self.rob.squash_after_into(survivor, &mut squashed);
        // The squashed entries held the largest stable positions; drop them
        // from the (sorted) wakeup list in one truncate.
        let live = self.rob.stable_end();
        let keep_waiting = self.waiting.partition_point(|&s| s < live);
        self.waiting.truncate(keep_waiting);
        // Pending violations are keyed by the raising instruction's sequence
        // number and the vector is sorted by it; every squashed instruction
        // is younger than `survivor`, so one truncate drops them all.
        let keep = self
            .pending_violations
            .partition_point(|(s, _)| *s <= survivor);
        self.pending_violations.truncate(keep);
        for e in &squashed {
            if let Some(d) = e.dest {
                self.renamer.undo(d);
            }
            if let Some(tag) = e.dep_produces {
                // A squashed producer's dependence no longer applies.
                self.tags.mark_ready(tag);
            }
            if e.counted_unexecuted {
                self.unexecuted_stores -= 1;
            }
            if e.filter_counted {
                let (access, _) = e.mem.expect("filter-counted stores executed");
                let bucket = self.filter_bucket(access);
                self.store_granule_filter[bucket] -= 1;
            }
            self.stats.squashed += 1;
        }
        // Fetched-but-undispatched instructions are discarded without being
        // counted as squashed (they never entered the window); the
        // fetched-vs-dispatched gap in the statistics accounts for them.
        self.fetch_buffer.clear();

        // The partial-vs-full flush decision (§2.3) needs to know whether a
        // surviving store may have live backend data; the scan is passed
        // lazily so backends that don't care never pay for it.
        let youngest = SeqNum(self.next_seq.saturating_sub(1));
        let rob = &self.rob;
        self.backend.squash_after(survivor, youngest, &|| {
            rob.iter().any(|e| {
                e.instr.is_store()
                    && !e.bypassed
                    && matches!(e.state, InstrState::Executing | InstrState::Completed)
            })
        });

        self.fetch_pc = resume_pc;
        self.on_correct_path = resume_cursor.is_some();
        if let Some(c) = resume_cursor {
            self.trace_cursor = c;
        }
        self.fetch_halted = false;
        self.fetch_stall_until = self.fetch_stall_until.max(self.cycle + penalty);
        squashed.clear();
        self.squash_scratch = squashed;
        // The wakeup-list truncation above and the census decrements are the
        // squash-path halves of the issue/dispatch bookkeeping; check both
        // immediately so a drift is pinned to the recovery that caused it.
        self.debug_check_wakeup_list();
        self.debug_check_filter_census();
    }
}
