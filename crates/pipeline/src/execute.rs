//! Issue/execute stage: wake-up and select, functional evaluation, the
//! memory-backend execute protocol, and completion-event draining.

use std::cmp::Reverse;

use aim_backend::{LoadOutcome, LoadRequest, MemKind, StoreOutcome, StoreRequest};
use aim_isa::{ExecClass, Instr};
use aim_types::{Addr, MemAccess, SeqNum, ViolationKind};

use crate::config::OutputDepRecovery;
use crate::machine::Core;
use crate::probe::{Event, Probe};
use crate::recover::PendingViolation;
use crate::rob::InstrState;

/// Outcome of attempting a memory access at issue.
pub(crate) enum MemOutcome {
    /// The access completed; value and added latency.
    Done { value: u64, latency: u64 },
    /// The access was dropped; the instruction replays.
    Replay,
}

impl Core<'_> {
    pub(crate) fn issue<P: Probe>(&mut self, probe: &mut P) {
        if self.sched.has_sleepers() {
            self.sched.wake_sleepers(self.backend.free_event_count());
        }
        let expected = self.checks_enabled().then(|| self.select_oracle());
        let mut to_issue = std::mem::take(&mut self.issue_scratch);
        to_issue.clear();
        let head = (!self.rob.is_empty()).then(|| self.rob.stable_of(0));
        self.sched
            .select(head, self.config.issue_width, &mut to_issue);
        if let Some(expected) = expected {
            assert_eq!(
                to_issue, expected,
                "ready-set select diverged from the scan"
            );
        }

        // Queue positions stay valid across the whole drain: executing an
        // instruction never pushes, retires, or squashes ROB entries — it
        // only mutates their fields.
        for &pos in &to_issue {
            let idx = self.rob.index_of_stable(pos);
            let seq = self.rob.get_at(idx).seq;
            self.start_execute(seq, idx, probe);
        }
        self.issue_scratch = to_issue;
    }

    /// The select oracle: re-derives this cycle's selection by scanning the
    /// whole window with the per-entry wake predicate — every source
    /// written, the consumed tag ready, the stall bit's free event seen,
    /// with the pending-tag and stall-bit exemptions at the ROB head — and
    /// checks the ready set on the way: a bit is set exactly for the
    /// waiting entries that meet the predicate without exemption. Returns
    /// the oldest `issue_width` eligible stable positions.
    fn select_oracle(&self) -> Vec<u64> {
        let free_events = self.backend.free_event_count();
        let mut selected = Vec::new();
        let mut ready = 0;
        let head = self.rob.stable_of(0);
        for (pos, e) in (head..).zip(self.rob.iter()) {
            let waiting = e.state == InstrState::Waiting;
            assert_eq!(
                self.sched.is_waiting(pos, e.seq),
                waiting,
                "scheduler slot drifted from ROB entry {}",
                e.seq
            );
            let mut is_ready = false;
            if waiting {
                let [a, b] = e.srcs;
                let srcs = a.is_none_or(|p| self.renamer.is_ready(p))
                    && b.is_none_or(|p| self.renamer.is_ready(p));
                let tag = e.dep_consumes.is_none_or(|t| self.tags.is_ready(t));
                let stall = e.stall_until_free_event.is_none_or(|s| free_events > s);
                is_ready = srcs && tag && stall;
                if (is_ready || (srcs && pos == head)) && selected.len() < self.config.issue_width {
                    selected.push(pos);
                }
            }
            assert_eq!(
                self.sched.is_ready(pos),
                is_ready,
                "ready bit of entry {} disagrees with its wake predicate",
                e.seq
            );
            ready += is_ready as usize;
        }
        assert_eq!(
            self.sched.ready_count(),
            ready,
            "ready bit outside the window"
        );
        selected
    }

    fn src_values(&self, idx: usize) -> (u64, u64) {
        let e = self.rob.get_at(idx);
        let a = e.srcs[0].map_or(0, |p| self.renamer.read(p));
        let b = e.srcs[1].map_or(0, |p| self.renamer.read(p));
        (a, b)
    }

    fn start_execute<P: Probe>(&mut self, seq: SeqNum, idx: usize, probe: &mut P) {
        debug_assert_eq!(self.rob.get_at(idx).seq, seq, "stale issue index");
        self.stats.issued += 1;
        let (a, b) = self.src_values(idx);
        let cycle = self.cycle;
        let e = self.rob.get_at_mut(idx);
        e.issued_cycle = cycle;
        let pc = e.pc;
        let instr = e.instr;
        probe.event(cycle, &Event::Issue(e));

        let mut result = 0u64;
        let mut actual_next: Option<u64> = None;
        let latency = match instr {
            Instr::Alu { op, .. } => {
                result = op.eval(a, b);
                self.class_latency(instr.exec_class())
            }
            Instr::AluImm { op, imm, .. } => {
                result = op.eval(a, imm as u64);
                self.class_latency(instr.exec_class())
            }
            Instr::MovImm { imm, .. } => {
                result = imm as u64;
                self.config.alu_latency
            }
            Instr::Branch { cond, target, .. } => {
                actual_next = Some(if cond.eval(a, b) { target } else { pc + 1 });
                self.config.alu_latency
            }
            Instr::Jump { target } => {
                actual_next = Some(target);
                self.config.alu_latency
            }
            Instr::Jal { target, .. } => {
                result = pc + 1;
                actual_next = Some(target);
                self.config.alu_latency
            }
            Instr::Jr { .. } => {
                actual_next = Some(a);
                self.config.alu_latency
            }
            Instr::Halt | Instr::Nop => self.config.alu_latency,
            Instr::Load { offset, size, .. } => {
                // srcs[0] = base register.
                let raw = a.wrapping_add(offset as u64);
                let addr = Addr(raw & !(size.bytes() - 1)); // align wrong-path garbage
                let access = MemAccess::new(addr, size).expect("aligned by construction");
                match self.exec_load(seq, idx, pc, access, probe) {
                    MemOutcome::Done { value, latency } => {
                        result = value;
                        self.rob.get_at_mut(idx).mem = Some((access, value));
                        self.config.agu_latency + latency
                    }
                    MemOutcome::Replay => return,
                }
            }
            Instr::Store { offset, size, .. } => {
                // srcs[0] = base, srcs[1] = data.
                let raw = a.wrapping_add(offset as u64);
                let addr = Addr(raw & !(size.bytes() - 1));
                let access = MemAccess::new(addr, size).expect("aligned by construction");
                match self.exec_store(seq, idx, pc, access, b, probe) {
                    MemOutcome::Done { latency, .. } => {
                        self.rob.get_at_mut(idx).mem = Some((access, b));
                        self.config.agu_latency + latency
                    }
                    MemOutcome::Replay => return,
                }
            }
        };

        let e = self.rob.get_at_mut(idx);
        e.state = InstrState::Executing;
        e.result = result;
        e.actual_next_pc = actual_next;
        self.exec_events
            .push(Reverse((self.cycle + latency.max(1), seq.0)));
    }

    fn class_latency(&self, class: ExecClass) -> u64 {
        match class {
            ExecClass::Mul => self.config.mul_latency,
            _ => self.config.alu_latency,
        }
    }

    fn replay<P: Probe>(&mut self, idx: usize, probe: &mut P) {
        self.replay_with(idx, true, probe);
    }

    /// Replay without arming a stall bit: for drops the backend never saw
    /// (a far-memory MSHR refusal), where no backend free event will ever
    /// fire to clear the bit and arming it would park the instruction
    /// forever (the head-of-ROB exemption saves only the head).
    fn replay_no_stall<P: Probe>(&mut self, idx: usize, probe: &mut P) {
        self.replay_with(idx, false, probe);
    }

    fn replay_with<P: Probe>(&mut self, idx: usize, allow_stall: bool, probe: &mut P) {
        // Stall bits only help when the backend emits free events that will
        // later clear them; on backends without them (which replay for
        // ordering, not capacity), a stall bit would never clear and the
        // instruction must retry every cycle instead.
        let stall = allow_stall && self.config.stall_bits && self.backend.uses_stall_bits();
        let snapshot = stall.then(|| self.backend.free_event_count());
        let pos = self.rob.stable_of(idx);
        let e = self.rob.get_at_mut(idx);
        e.state = InstrState::Waiting;
        e.replayed = true;
        e.stall_until_free_event = snapshot;
        // Still pending only if it issued by the head exemption.
        let tag_pending = e.dep_consumes.is_some_and(|t| !self.tags.is_ready(t));
        self.sched.replay(pos, e.seq, tag_pending, snapshot);
        probe.event(self.cycle, &Event::Replay(e));
    }

    /// Whether the per-cycle integrity censuses run: always in debug
    /// builds, and in release builds when [`SimConfig::paranoid`] is set
    /// (the `--paranoid` CLI flag).
    ///
    /// [`SimConfig::paranoid`]: crate::SimConfig::paranoid
    #[inline]
    pub(crate) fn checks_enabled(&self) -> bool {
        cfg!(debug_assertions) || self.config.paranoid
    }

    /// Integrity invariant: the store census and granule filter always
    /// equal the sums of the per-entry flags in the ROB. A drift here means
    /// a leak in the execute/retire/squash bookkeeping, which would silently
    /// rot the §4 filter into either unsoundness (under-count) or inertness
    /// (over-count). See [`Core::checks_enabled`] for when it runs.
    pub(crate) fn debug_check_filter_census(&self) {
        if !self.checks_enabled() || !self.config.mdt_filter {
            return;
        }
        let unexecuted = self.rob.iter().filter(|e| e.counted_unexecuted).count() as u64;
        assert_eq!(
            self.unexecuted_stores, unexecuted,
            "unexecuted-store census drifted from ROB contents"
        );
        let counted = self.rob.iter().filter(|e| e.filter_counted).count() as u64;
        let filter_total: u64 = self.store_granule_filter.iter().map(|&c| c as u64).sum();
        assert_eq!(
            filter_total, counted,
            "granule-filter population drifted from ROB contents"
        );
    }

    #[inline]
    pub(crate) fn filter_bucket(&self, access: MemAccess) -> usize {
        (access.addr().word_index() as usize) & (self.store_granule_filter.len() - 1)
    }

    /// §2.2 lockup avoidance: a replayed memory instruction at the head of
    /// the ROB may execute without consulting the backend's conflict-prone
    /// structures — all older instructions have retired, so committed memory
    /// is current. Only meaningful for backends that can refuse execution on
    /// structural conflicts.
    fn head_bypasses(&self, seq: SeqNum, idx: usize) -> bool {
        self.backend.supports_head_bypass() && self.at_head(seq) && self.rob.get_at(idx).replayed
    }

    fn exec_load<P: Probe>(
        &mut self,
        seq: SeqNum,
        idx: usize,
        pc: u64,
        access: MemAccess,
        probe: &mut P,
    ) -> MemOutcome {
        self.stats.load_executions += 1;
        if self.head_bypasses(seq, idx) {
            self.stats.head_bypasses += 1;
            let value = self.memsys.read(access);
            // Queued (never-refuse) far semantics: the head must progress.
            let latency = self.memsys.access_data_at(access.addr(), self.cycle).1;
            self.rob.get_at_mut(idx).bypassed = true;
            return MemOutcome::Done { value, latency };
        }

        // Far-memory admission: a load that will miss to the far tier needs
        // an MSHR. Checked before the backend executes, so a refused load
        // replays with no backend side effects — and without a stall bit,
        // since no backend free event corresponds to an MSHR draining.
        if !self.memsys.admit_data_at(access.addr(), self.cycle) {
            self.replay_no_stall(idx, probe);
            return MemOutcome::Replay;
        }

        let floor = self.rob.floor(SeqNum(self.next_seq));
        let filtered = self.config.mdt_filter
            && self.backend.supports_load_filter()
            && self.unexecuted_stores == 0
            && self.store_granule_filter[self.filter_bucket(access)] == 0;
        if filtered {
            self.stats.mdt_filtered_loads += 1;
        }
        let req = LoadRequest {
            seq,
            pc,
            access,
            floor,
            filtered,
        };

        let outcome = self.backend.load_execute(&req, self.memsys.mem());
        match outcome {
            LoadOutcome::Done { value, forwarded } => {
                let latency = if forwarded {
                    self.stats.loads_forwarded += 1;
                    // Forwarding takes the L1-hit time: the SFC (or the
                    // idealized single-cycle store-queue bypass) is accessed
                    // in parallel with the L1.
                    let _ = self.memsys.access_data_at(access.addr(), self.cycle);
                    self.config.hierarchy.l1_hit_cycles
                } else {
                    self.memsys.access_data_at(access.addr(), self.cycle).1
                };
                MemOutcome::Done { value, latency }
            }
            LoadOutcome::Replay(cause) => {
                self.stats.replays.count(MemKind::Load, cause);
                self.replay(idx, probe);
                MemOutcome::Replay
            }
            LoadOutcome::Anti(v) => {
                // Anti violation: the load itself is flushed; carry the
                // recovery to the completion event.
                self.queue_violation(
                    seq,
                    PendingViolation {
                        kind: v.kind,
                        producer_pc: v.producer_pc,
                        consumer_pc: v.consumer_pc,
                        squash_after: v.squash_after,
                        corrupt_only: false,
                    },
                );
                let e = self.rob.get_at_mut(idx);
                e.state = InstrState::Executing;
                self.exec_events
                    .push(Reverse((self.cycle + self.config.agu_latency + 1, seq.0)));
                MemOutcome::Replay // caller must not reschedule
            }
        }
    }

    fn exec_store<P: Probe>(
        &mut self,
        seq: SeqNum,
        idx: usize,
        pc: u64,
        access: MemAccess,
        value: u64,
        probe: &mut P,
    ) -> MemOutcome {
        self.stats.store_executions += 1;
        let floor = self.rob.floor(SeqNum(self.next_seq));
        let corrupt_on_output = self.config.output_dep_recovery == OutputDepRecovery::MarkCorrupt;
        let bypass = self.head_bypasses(seq, idx);
        let req = StoreRequest {
            seq,
            pc,
            access,
            value,
            floor,
            bypass,
        };

        let outcome = self.backend.store_execute(&req, self.memsys.mem());
        match outcome {
            StoreOutcome::Replay(cause) => {
                self.stats.replays.count(MemKind::Store, cause);
                self.replay(idx, probe);
                MemOutcome::Replay
            }
            StoreOutcome::Done {
                latency,
                violations,
            } => {
                for v in violations {
                    let corrupt_only = v.kind == ViolationKind::Output && corrupt_on_output;
                    if corrupt_only {
                        // §2.4.2 recovery must take effect *now*: the store's
                        // own SFC write just cleared the corruption bits on
                        // its bytes, and a load issuing before the store's
                        // completion event would otherwise forward the stale
                        // value with no flush to save it.
                        self.backend.mark_corrupt(access);
                        self.dep_pred
                            .record_violation(v.producer_pc, v.consumer_pc, v.kind);
                        self.stats.flushes.output_dep += 1;
                        continue;
                    }
                    self.queue_violation(
                        seq,
                        PendingViolation {
                            kind: v.kind,
                            producer_pc: v.producer_pc,
                            consumer_pc: v.consumer_pc,
                            squash_after: v.squash_after,
                            corrupt_only,
                        },
                    );
                }
                if bypass {
                    self.stats.head_bypasses += 1;
                    // Commit immediately: the store is non-speculative at the
                    // head, and committing now closes the window in which a
                    // younger load could read stale memory unchecked by the
                    // skipped SFC. (Cross-core this is still a well-defined
                    // commit: the head can never be squashed, and every older
                    // instruction of this core has already retired.)
                    self.memsys.write(access, value);
                    self.rob.get_at_mut(idx).bypassed = true;
                }
                if self.config.mdt_filter {
                    // The store has now (successfully) executed: it can never
                    // re-check the MDT, and — unless it bypassed straight to
                    // memory — its data is live in flight. The census flag is
                    // only ever set for filter-capable backends, so no
                    // capability check is needed here.
                    let bucket = self.filter_bucket(access);
                    let e = self.rob.get_at_mut(idx);
                    if e.counted_unexecuted {
                        e.counted_unexecuted = false;
                        self.unexecuted_stores -= 1;
                        if !bypass {
                            e.filter_counted = true;
                            self.store_granule_filter[bucket] += 1;
                        }
                    }
                }
                MemOutcome::Done { value, latency }
            }
        }
    }

    // --- Complete -------------------------------------------------------

    pub(crate) fn complete<P: Probe>(&mut self, probe: &mut P) {
        while let Some(&Reverse((when, seq_raw))) = self.exec_events.peek() {
            if when > self.cycle {
                break;
            }
            self.exec_events.pop();
            let seq = SeqNum(seq_raw);
            self.complete_one(seq, probe);
        }
    }

    fn complete_one<P: Probe>(&mut self, seq: SeqNum, probe: &mut P) {
        let Some(idx) = self.rob.index_of(seq) else {
            let range = self.violation_range(seq);
            self.pending_violations.drain(range);
            return; // squashed while executing
        };
        if self.rob.get_at(idx).state != InstrState::Executing {
            return;
        }
        let violations = self.take_violations(seq);
        self.apply_completion(seq, idx, &violations, probe);
        self.violation_scratch = violations;
    }
}
