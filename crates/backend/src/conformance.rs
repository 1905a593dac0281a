//! Backend-conformance harness: a scripted-trace driver that runs any
//! [`MemBackend`] through the call contract the pipeline honors (see
//! [`MemBackend`]'s docs and `DESIGN.md` § "Backend contract") and checks
//! the architectural outcome against an in-order reference.
//!
//! A [`Script`] is a straight-line sequence of loads and stores with a
//! chosen *execution order* (the out-of-order schedule) and optional
//! externally injected squashes (standing in for branch mispredicts). The
//! driver mirrors the pipeline's per-cycle stage ordering — retire, then
//! execute, then in-order dispatch — while honoring every clause of the
//! contract:
//!
//! * `can_dispatch`/`dispatch` in program order, youngest-only, with fresh
//!   monotonically increasing sequence numbers after every squash;
//! * execute attempts in any cross-instruction order, every `Replay`
//!   followed by a retry (unless the instruction is squashed first);
//! * violations applied exactly like the pipeline: squash everything
//!   younger than `squash_after`, notify the backend via
//!   [`squash_after`](MemBackend::squash_after) (with the lazy
//!   surviving-executed-store probe), then re-dispatch the squashed suffix;
//! * §2.2 head-of-ROB bypass for backends that
//!   [`supports_head_bypass`](MemBackend::supports_head_bypass);
//! * a violation-trained dependence serializer (the pipeline's dependence
//!   predictor, reduced to its convergence-critical core): a violated
//!   producer→consumer pair never executes out of order again;
//! * retirement strictly in program order, committing a retiring store's
//!   bytes to [`MainMemory`] *before* `retire_store`.
//!
//! [`check_contract`] then asserts the ground truth every backend must
//! deliver regardless of timing: each retired load observed exactly the
//! value an in-order execution would produce (byte-accurate across
//! sub-word overlaps), and the final committed memory image matches the
//! in-order reference.
//!
//! Sampled-simulation mode adds one more call pattern to the contract: at a
//! detail-window boundary the pipeline squashes everything unretired, drops
//! the backend's in-flight state with [`flush`](MemBackend::flush), and then
//! *functionally warms* a stretch — committing it to memory in program order
//! and reporting each op to the backend through [`MemBackend::warm`] alone —
//! before the next detail window resumes out-of-order execution against the
//! warmed state.
//! [`run_script_with_handoffs`] / [`check_handoff_contract`] script exactly
//! that sequence mid-trace, with speculative work deliberately left in
//! flight at each quiesce.
//!
//! Scripts can be written by hand for targeted contract corners or
//! generated with [`Script::random`] for property-style sweeps; see
//! `crates/backend/tests/conformance.rs` for both.

use aim_mem::MainMemory;
use aim_types::{AccessSize, Addr, MemAccess, SeqNum};

use crate::{
    BackendStats, LoadOutcome, LoadRequest, MemBackend, MemKind, StoreOutcome, StoreRequest,
    Violation,
};

/// One memory operation of a conformance script.
#[derive(Debug, Clone, Copy)]
pub struct ScriptOp {
    /// Load or store.
    pub kind: MemKind,
    /// Address and size (never spans an 8-byte word).
    pub access: MemAccess,
    /// Store data (ignored for loads).
    pub value: u64,
}

/// A scripted trace: program-ordered memory ops plus the out-of-order
/// schedule to drive them with.
#[derive(Debug, Clone)]
pub struct Script {
    /// Initial memory contents, applied before the trace runs.
    pub init: Vec<(MemAccess, u64)>,
    /// The program, in program order.
    pub ops: Vec<ScriptOp>,
    /// Execution priority: a permutation of `0..ops.len()`. Each driver
    /// round attempts the highest-priority dispatched-but-unexecuted op
    /// first, falling through on `Replay` — so an early-listed younger op
    /// executes before a late-listed older one whenever the backend lets it.
    pub exec_priority: Vec<usize>,
    /// Externally injected squashes (branch-mispredict stand-ins): after
    /// the `.0`-th successful execution, squash every op younger than op
    /// index `.1`.
    pub squashes: Vec<(u64, usize)>,
}

/// What a conformance run observed, for cross-backend comparison.
#[derive(Debug, Clone)]
pub struct Conformance {
    /// Final value of each load, in program order (re-executions after a
    /// squash overwrite earlier observations).
    pub load_values: Vec<u64>,
    /// Nonzero bytes of the committed memory image after the full trace
    /// retired.
    pub final_mem: Vec<(u64, u8)>,
    /// Ordering violations the backend raised.
    pub violations: u64,
    /// `Replay` outcomes the backend returned.
    pub replays: u64,
    /// `squash_after` calls the driver issued (violations + external).
    pub squashes: u64,
    /// Driver rounds until the trace retired.
    pub rounds: u64,
    /// The backend's own counters.
    pub stats: BackendStats,
}

/// A contract breach (or driver-detected deadlock) with a description of
/// what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConformanceError(pub String);

impl std::fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conformance: {}", self.0)
    }
}

impl std::error::Error for ConformanceError {}

/// Per-op driver state. `seq` survives into `Retired` so floor computation
/// and squash filtering stay uniform.
#[derive(Debug, Clone, Copy, PartialEq)]
enum OpState {
    /// Not (or no longer) dispatched.
    Waiting,
    /// Dispatched, awaiting a successful execute.
    Dispatched(SeqNum),
    /// Executed with this value, awaiting retirement.
    Executed(SeqNum, u64),
    /// Retired.
    Retired(SeqNum),
}

impl OpState {
    fn seq(&self) -> Option<SeqNum> {
        match *self {
            OpState::Waiting => None,
            OpState::Dispatched(s) | OpState::Executed(s, _) | OpState::Retired(s) => Some(s),
        }
    }
}

/// Rounds with zero progress (no dispatch, execute success, retire, or
/// squash) tolerated before the driver declares a livelock.
const STALL_LIMIT: u64 = 1_000;

/// Absolute round budget per op: even "progressing" runs (e.g. a pathological
/// violation/squash cycle) must terminate, as a diagnosable error rather than
/// a hang.
const ROUNDS_PER_OP: u64 = 2_000;

/// A per-round interference hook standing in for a sibling core: called
/// with the (1-based) round number and the committed memory, it may write
/// anything a concurrently retiring core could. See
/// [`run_script_with_interference`].
pub type SiblingHook<'h> = dyn FnMut(u64, &mut MainMemory) + 'h;

struct Driver<'a> {
    backend: &'a mut dyn MemBackend,
    script: &'a Script,
    sibling: Option<&'a mut SiblingHook<'a>>,
    mem: MainMemory,
    states: Vec<OpState>,
    /// Whether the op has seen a `Replay` since its last dispatch (enables
    /// the head-of-ROB bypass).
    replayed: Vec<bool>,
    /// Whether the op took the §2.2 bypass (excluded from the
    /// surviving-executed-store probe, like the pipeline's ROB flag).
    bypassed: Vec<bool>,
    /// Whether the op was ever squashed. Re-dispatched ops execute
    /// oldest-first, ahead of the scripted priority — mirroring the
    /// pipeline's age-ordered issue of refetched instructions, and
    /// guaranteeing anti-dependence recovery converges instead of
    /// re-creating the same younger-store-first schedule forever.
    requeued: Vec<bool>,
    /// Dependence pairs `(producer, consumer)` trained by violations, the
    /// driver's stand-in for the pipeline's dependence predictor: once a
    /// pair is learned, the consumer is held back until the producer has
    /// executed. The pipeline never runs a speculative backend without a
    /// predictor, and neither can this driver — the MDT keeps records of
    /// squashed instructions (§2.2 "the MDT ignores partial flushes"), so
    /// an unserialized schedule can re-create the same violation forever
    /// (e.g. a load replaying on a corrupt SFC line loses its turn to the
    /// younger store it anti-depends on, every time). Training one pair
    /// per violation bounds total violations at O(n²) and guarantees
    /// convergence.
    serialized: Vec<(usize, usize)>,
    next_seq: u64,
    exec_successes: u64,
    squashes_done: Vec<bool>,
    /// Retirement ceiling: ops at or beyond this index may dispatch and
    /// execute speculatively but never retire. `run_until` points it at the
    /// next handoff so a quiesce always finds the window boundary exactly
    /// where the sampled pipeline would put it.
    retire_limit: usize,
    out: Conformance,
}

impl<'a> Driver<'a> {
    fn new(
        backend: &'a mut dyn MemBackend,
        script: &'a Script,
        sibling: Option<&'a mut SiblingHook<'a>>,
    ) -> Driver<'a> {
        let mut mem = MainMemory::new();
        for &(access, value) in &script.init {
            mem.write(access, value);
        }
        let n = script.ops.len();
        Driver {
            backend,
            script,
            sibling,
            mem,
            states: vec![OpState::Waiting; n],
            replayed: vec![false; n],
            bypassed: vec![false; n],
            requeued: vec![false; n],
            serialized: Vec::new(),
            next_seq: 1,
            exec_successes: 0,
            squashes_done: vec![false; script.squashes.len()],
            retire_limit: usize::MAX,
            out: Conformance {
                load_values: script
                    .ops
                    .iter()
                    .filter(|op| op.kind == MemKind::Load)
                    .map(|_| 0)
                    .collect(),
                final_mem: Vec::new(),
                violations: 0,
                replays: 0,
                squashes: 0,
                rounds: 0,
                stats: BackendStats::None,
            },
        }
    }

    fn pc(i: usize) -> u64 {
        0x1000 + 4 * i as u64
    }

    /// Inverse of [`Driver::pc`], for mapping a violation's producer and
    /// consumer PCs back to op indices.
    fn op_of_pc(&self, pc: u64) -> Option<usize> {
        let delta = pc.checked_sub(0x1000)?;
        let i = (delta / 4) as usize;
        (delta % 4 == 0 && i < self.script.ops.len()).then_some(i)
    }

    /// Whether a trained dependence pair holds op `i` back: some producer
    /// it was seen violating against has not executed yet.
    fn held(&self, i: usize) -> bool {
        self.serialized.iter().any(|&(p, c)| {
            c == i && !matches!(self.states[p], OpState::Executed(..) | OpState::Retired(_))
        })
    }

    /// Op `i`'s position among the script's loads: its `load_values` slot.
    fn load_slot(&self, i: usize) -> usize {
        self.script.ops[..i]
            .iter()
            .filter(|o| o.kind == MemKind::Load)
            .count()
    }

    /// Index of the oldest unretired op (the ROB head), if any remain.
    fn head(&self) -> Option<usize> {
        self.states
            .iter()
            .position(|s| !matches!(s, OpState::Retired(_)))
    }

    /// The retirement floor the pipeline would report: oldest in-flight
    /// sequence number, or the next to be assigned when none is in flight.
    fn floor(&self) -> SeqNum {
        self.states
            .iter()
            .filter_map(|s| match *s {
                OpState::Dispatched(q) | OpState::Executed(q, _) => Some(q),
                _ => None,
            })
            .min()
            .unwrap_or(SeqNum(self.next_seq))
    }

    /// Candidate order for execute attempts: previously squashed ops
    /// oldest-first, then everything else by scripted priority.
    fn priority_order(&self) -> Vec<usize> {
        debug_assert_eq!(self.script.exec_priority.len(), self.script.ops.len());
        let n = self.script.ops.len();
        let mut pos = vec![0usize; n];
        for (p, &i) in self.script.exec_priority.iter().enumerate() {
            pos[i] = p;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            if self.requeued[i] {
                (0, i)
            } else {
                (1, pos[i])
            }
        });
        order
    }

    /// Squashes every op with `seq > survivor`, mirroring
    /// `recover::squash_and_redirect`: the backend hears `squash_after`
    /// exactly once, with the youngest seq ever assigned and the lazy
    /// surviving-executed-store probe over the driver's (post-squash
    /// surviving) state.
    fn squash(&mut self, survivor: SeqNum) -> Result<(), ConformanceError> {
        let youngest = SeqNum(self.next_seq - 1);
        for (i, s) in self.states.iter().enumerate() {
            if let OpState::Retired(q) = s {
                if *q > survivor {
                    return Err(ConformanceError(format!(
                        "squash to {survivor:?} would revoke retired op {i}"
                    )));
                }
            }
        }
        let surviving_executed_store = {
            let states = &self.states;
            let bypassed = &self.bypassed;
            let ops = &self.script.ops;
            move || {
                states.iter().enumerate().any(|(i, s)| {
                    matches!(s, OpState::Executed(q, _) if *q <= survivor)
                        && ops[i].kind == MemKind::Store
                        && !bypassed[i]
                })
            }
        };
        self.backend
            .squash_after(survivor, youngest, &surviving_executed_store);
        for (i, s) in self.states.iter_mut().enumerate() {
            if matches!(s.seq(), Some(q) if q > survivor) {
                *s = OpState::Waiting;
                self.replayed[i] = false;
                self.bypassed[i] = false;
                self.requeued[i] = true;
            }
        }
        self.out.squashes += 1;
        Ok(())
    }

    /// Applies the earliest-flush-point violation of a batch, like the
    /// pipeline's recovery stage.
    fn apply_violations(&mut self, violations: &[Violation]) -> Result<(), ConformanceError> {
        let Some(v) = violations.iter().min_by_key(|v| v.squash_after) else {
            return Ok(());
        };
        self.out.violations += violations.len() as u64;
        // Train the dependence predictor: the producer is always the
        // program-older instruction, so serialize consumer-after-producer.
        for v in violations {
            if let (Some(p), Some(c)) = (self.op_of_pc(v.producer_pc), self.op_of_pc(v.consumer_pc))
            {
                if p < c && !self.serialized.contains(&(p, c)) {
                    self.serialized.push((p, c));
                }
            }
        }
        self.squash(v.squash_after)
    }

    fn retire_phase(&mut self) -> u64 {
        let mut retired = 0;
        while let Some(i) = self.head() {
            if i >= self.retire_limit {
                break;
            }
            let OpState::Executed(seq, value) = self.states[i] else {
                break;
            };
            let op = self.script.ops[i];
            match op.kind {
                MemKind::Store => {
                    // The contract: bytes hit memory *before* retire_store.
                    self.mem.write(op.access, value);
                    self.backend.retire_store(seq, op.access);
                }
                MemKind::Load => {
                    let slot = self.load_slot(i);
                    self.out.load_values[slot] = value;
                    self.backend.retire_load(seq, op.access);
                }
            }
            self.states[i] = OpState::Retired(seq);
            retired += 1;
        }
        retired
    }

    /// Attempts execution in priority order until one op makes progress
    /// (Done or a violation-raising outcome); returns whether any did.
    fn execute_phase(&mut self) -> Result<bool, ConformanceError> {
        let head = self.head();
        for &i in &self.priority_order() {
            let OpState::Dispatched(seq) = self.states[i] else {
                continue;
            };
            if self.held(i) {
                continue;
            }
            let op = self.script.ops[i];
            let bypass = self.backend.supports_head_bypass() && self.replayed[i] && head == Some(i);
            match op.kind {
                MemKind::Load => {
                    if bypass {
                        // §2.2: a replayed load at the head reads committed
                        // memory directly; the backend is skipped.
                        let value = self.mem.read(op.access);
                        self.states[i] = OpState::Executed(seq, value);
                        self.bypassed[i] = true;
                        self.exec_successes += 1;
                        return Ok(true);
                    }
                    let req = LoadRequest {
                        seq,
                        pc: Self::pc(i),
                        access: op.access,
                        floor: self.floor(),
                        filtered: false,
                    };
                    match self.backend.load_execute(&req, &self.mem) {
                        LoadOutcome::Done { value, .. } => {
                            self.states[i] = OpState::Executed(seq, value);
                            self.exec_successes += 1;
                            return Ok(true);
                        }
                        LoadOutcome::Replay(_) => {
                            self.out.replays += 1;
                            self.replayed[i] = true;
                        }
                        LoadOutcome::Anti(v) => {
                            self.apply_violations(&[v])?;
                            if self.states[i] != OpState::Waiting {
                                return Err(ConformanceError(format!(
                                    "anti violation did not squash its own load (op {i})"
                                )));
                            }
                            return Ok(true);
                        }
                    }
                }
                MemKind::Store => {
                    let req = StoreRequest {
                        seq,
                        pc: Self::pc(i),
                        access: op.access,
                        value: op.value,
                        floor: self.floor(),
                        bypass,
                    };
                    match self.backend.store_execute(&req, &self.mem) {
                        StoreOutcome::Done { violations, .. } => {
                            self.states[i] = OpState::Executed(seq, op.value);
                            if bypass {
                                // A bypassed store commits at execute; the
                                // (idempotent) retire commit follows later.
                                self.mem.write(op.access, op.value);
                                self.bypassed[i] = true;
                            }
                            self.exec_successes += 1;
                            self.apply_violations(&violations)?;
                            if self.states[i] != OpState::Executed(seq, op.value) {
                                return Err(ConformanceError(format!(
                                    "store op {i} squashed by its own violation"
                                )));
                            }
                            return Ok(true);
                        }
                        StoreOutcome::Replay(_) => {
                            self.out.replays += 1;
                            self.replayed[i] = true;
                        }
                    }
                }
            }
        }
        Ok(false)
    }

    fn dispatch_phase(&mut self) -> u64 {
        let mut dispatched = 0;
        while let Some(i) = self.states.iter().position(|s| *s == OpState::Waiting) {
            let op = self.script.ops[i];
            if self.backend.can_dispatch(op.kind).is_err() {
                break;
            }
            let seq = SeqNum(self.next_seq);
            self.next_seq += 1;
            let hint = (op.kind == MemKind::Store && self.backend.wants_dispatch_hint())
                .then_some(op.access);
            self.backend.dispatch(op.kind, seq, Self::pc(i), hint);
            self.states[i] = OpState::Dispatched(seq);
            dispatched += 1;
        }
        dispatched
    }

    fn run(mut self) -> Result<Conformance, ConformanceError> {
        self.run_until(usize::MAX)?;
        Ok(self.finish())
    }

    fn finish(mut self) -> Conformance {
        self.backend.stats_into(&mut self.out.stats);
        self.out.final_mem = self.mem.nonzero_bytes();
        self.out
    }

    /// Runs the round loop until every op before `stop` has retired. Ops at
    /// or beyond `stop` still dispatch and execute speculatively — exactly
    /// the in-flight work a sampled-mode quiesce then has to squash.
    fn run_until(&mut self, stop: usize) -> Result<(), ConformanceError> {
        self.retire_limit = stop;
        let mut stalled = 0u64;
        let round_budget = ROUNDS_PER_OP * (self.script.ops.len() as u64 + 1);
        while self.head().is_some_and(|h| h < stop) {
            self.out.rounds += 1;
            // Sibling-core interference fires first: a concurrently retiring
            // core's stores land in committed memory at an arbitrary point
            // relative to this core's stages, and "before the whole round"
            // reaches every stage of it.
            if let Some(sibling) = self.sibling.as_mut() {
                sibling(self.out.rounds, &mut self.mem);
            }
            if self.out.rounds > round_budget {
                return Err(ConformanceError(format!(
                    "round budget exhausted after {} rounds ({} execs, {} squashes, \
                     {} violations): likely a violation/squash livelock",
                    self.out.rounds, self.exec_successes, self.out.squashes, self.out.violations
                )));
            }
            let mut progressed = false;
            // Externally injected squashes fire between rounds, like a
            // mispredict discovered at completion.
            for k in 0..self.script.squashes.len() {
                let (after, survivor_idx) = self.script.squashes[k];
                if self.squashes_done[k] || self.exec_successes < after {
                    continue;
                }
                self.squashes_done[k] = true;
                // Survive up to the named op (its seq, if assigned). Like a
                // real mispredict, the flush can never revoke retirement, so
                // the survivor is clamped to the youngest retired seq.
                let survivor = self.states[..=survivor_idx.min(self.states.len() - 1)]
                    .iter()
                    .filter_map(|s| s.seq())
                    .max();
                let retired_floor = self
                    .states
                    .iter()
                    .filter_map(|s| match s {
                        OpState::Retired(q) => Some(*q),
                        _ => None,
                    })
                    .max();
                if let Some(survivor) = survivor.max(retired_floor) {
                    self.squash(survivor)?;
                    progressed = true;
                }
            }
            progressed |= self.retire_phase() > 0;
            progressed |= self.execute_phase()?;
            progressed |= self.dispatch_phase() > 0;
            stalled = if progressed { 0 } else { stalled + 1 };
            if stalled > STALL_LIMIT {
                let stuck: Vec<String> = self
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !matches!(s, OpState::Retired(_)))
                    .map(|(i, s)| format!("op {i} {s:?}"))
                    .collect();
                return Err(ConformanceError(format!(
                    "no progress after {STALL_LIMIT} rounds; stuck: {}",
                    stuck.join(", ")
                )));
            }
        }
        Ok(())
    }

    /// The sampled pipeline's detail→warm transition: squash everything
    /// unretired (the backend hears `squash_after` with the youngest seq
    /// ever assigned, like any recovery), then drop all in-flight state with
    /// a full `flush`. Trained dependences survive, as the pipeline's
    /// dependence predictor does.
    fn quiesce(&mut self) -> Result<(), ConformanceError> {
        let in_flight = self
            .states
            .iter()
            .any(|s| matches!(s, OpState::Dispatched(_) | OpState::Executed(..)));
        if in_flight {
            let survivor = self
                .states
                .iter()
                .filter_map(|s| match s {
                    OpState::Retired(q) => Some(*q),
                    _ => None,
                })
                .max()
                .unwrap_or(SeqNum(0));
            self.squash(survivor)?;
        }
        self.backend.flush();
        Ok(())
    }

    /// Functionally warms ops `range` through the warm engine's protocol:
    /// in program order, stores commit their bytes and loads read committed
    /// memory (their final observed value — nothing can squash a warm op),
    /// and the backend hears each op through [`MemBackend::warm`] alone.
    /// Each op takes a fresh sequence number for the harness's own retirement
    /// bookkeeping; the backend never sees it.
    fn warm_range(&mut self, range: std::ops::Range<usize>) -> Result<(), ConformanceError> {
        for i in range {
            if matches!(self.states[i], OpState::Retired(_)) {
                return Err(ConformanceError(format!(
                    "warm range re-executes already-retired op {i}"
                )));
            }
            let op = self.script.ops[i];
            match op.kind {
                MemKind::Store => self.mem.write(op.access, op.value),
                MemKind::Load => {
                    let slot = self.load_slot(i);
                    self.out.load_values[slot] = self.mem.read(op.access);
                }
            }
            self.backend.warm(op.kind, Self::pc(i), op.access);
            self.states[i] = OpState::Retired(SeqNum(self.next_seq));
            self.next_seq += 1;
        }
        Ok(())
    }
}

/// Drives `backend` through `script`, returning what the run observed.
/// Performs contract-order bookkeeping and deadlock detection but does
/// *not* compare against the in-order reference — see [`check_contract`].
pub fn run_script(
    backend: &mut dyn MemBackend,
    script: &Script,
) -> Result<Conformance, ConformanceError> {
    Driver::new(backend, script, None).run()
}

/// Like [`run_script`], but with a sibling core writing committed memory
/// between rounds (see [`SiblingHook`]).
///
/// This is the executable form of the backend contract's no-cross-core-state
/// guarantee: a backend's disambiguation state is indexed by *this core's*
/// in-flight accesses only, so a sibling mutating shared memory at disjoint
/// addresses — even addresses that alias the same MDT/SFC sets — must leave
/// every observable of the run (load values, violations, replays, squashes,
/// rounds, backend stats) identical to the clean run. Only the final memory
/// image may differ, by exactly the sibling's bytes.
///
/// The contract comparison against the in-order reference is the caller's
/// job ([`check_contract`] assumes no interference): a sibling writing
/// script-visible words legitimately changes load values.
pub fn run_script_with_interference(
    backend: &mut dyn MemBackend,
    script: &Script,
    sibling: &mut SiblingHook<'_>,
) -> Result<Conformance, ConformanceError> {
    Driver::new(backend, script, Some(sibling)).run()
}

/// Like [`run_script`], but interleaving sampled-mode warm↔detailed
/// handoffs mid-trace.
///
/// `plan` is a sorted list of `(at, warm_len)` handoffs. For each one the
/// driver runs the scripted out-of-order schedule until every op before
/// `at` has retired — ops at or beyond `at` dispatch and execute
/// speculatively in the meantime, so the boundary carries genuine in-flight
/// state — then performs the detail→warm transition exactly as the sampled
/// pipeline does (squash everything unretired, full
/// [`flush`](MemBackend::flush)), functionally warms ops
/// `at..at + warm_len` in program order, and resumes the scripted schedule
/// against the warmed backend.
///
/// # Errors
///
/// Everything [`run_script`] can report, plus a malformed (unsorted /
/// overlapping) plan.
pub fn run_script_with_handoffs(
    backend: &mut dyn MemBackend,
    script: &Script,
    plan: &[(usize, usize)],
) -> Result<Conformance, ConformanceError> {
    let mut driver = Driver::new(backend, script, None);
    let mut cursor = 0usize;
    for &(at, warm_len) in plan {
        if at < cursor || at > script.ops.len() {
            return Err(ConformanceError(format!(
                "handoff at op {at} is out of order (cursor {cursor}, {} ops)",
                script.ops.len()
            )));
        }
        driver.run_until(at)?;
        driver.quiesce()?;
        let end = (at + warm_len).min(script.ops.len());
        driver.warm_range(at..end)?;
        cursor = end;
    }
    driver.run_until(usize::MAX)?;
    Ok(driver.finish())
}

/// Runs `script` with the handoff `plan` (see [`run_script_with_handoffs`])
/// and checks the architectural outcome against the in-order reference —
/// the sampled-mode guarantee that mode transitions never leak into
/// architectural state.
pub fn check_handoff_contract(
    backend: &mut dyn MemBackend,
    script: &Script,
    plan: &[(usize, usize)],
) -> Result<Conformance, ConformanceError> {
    let got = run_script_with_handoffs(backend, script, plan)?;
    let (want_loads, want_mem) = reference(script);
    if got.load_values != want_loads {
        return Err(ConformanceError(format!(
            "retired load values diverged from in-order reference across handoffs:\n  \
             got  {:x?}\n  want {:x?}",
            got.load_values, want_loads
        )));
    }
    if got.final_mem != want_mem {
        return Err(ConformanceError(format!(
            "committed memory diverged from in-order reference across handoffs:\n  \
             got  {:x?}\n  want {:x?}",
            got.final_mem, want_mem
        )));
    }
    Ok(got)
}

/// The in-order ground truth for a script: each load's value and the final
/// nonzero memory bytes.
pub fn reference(script: &Script) -> (Vec<u64>, Vec<(u64, u8)>) {
    let mut mem = MainMemory::new();
    for &(access, value) in &script.init {
        mem.write(access, value);
    }
    let mut loads = Vec::new();
    for op in &script.ops {
        match op.kind {
            MemKind::Store => mem.write(op.access, op.value),
            MemKind::Load => loads.push(mem.read(op.access)),
        }
    }
    (loads, mem.nonzero_bytes())
}

/// Runs `script` on `backend` and checks the architectural outcome against
/// the in-order reference: every retired load value and the committed
/// memory image must match exactly.
pub fn check_contract(
    backend: &mut dyn MemBackend,
    script: &Script,
) -> Result<Conformance, ConformanceError> {
    let got = run_script(backend, script)?;
    let (want_loads, want_mem) = reference(script);
    if got.load_values != want_loads {
        return Err(ConformanceError(format!(
            "retired load values diverged from in-order reference:\n  got  {:x?}\n  want {:x?}",
            got.load_values, want_loads
        )));
    }
    if got.final_mem != want_mem {
        return Err(ConformanceError(format!(
            "committed memory diverged from in-order reference:\n  got  {:x?}\n  want {:x?}",
            got.final_mem, want_mem
        )));
    }
    Ok(got)
}

/// Tiny deterministic generator (xorshift64*) so conformance sweeps need no
/// external RNG crate.
struct ScriptRng(u64);

impl ScriptRng {
    fn new(seed: u64) -> ScriptRng {
        ScriptRng(seed | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

impl Script {
    /// A straight-line script with every op executing in program order and
    /// no injected squashes — the simplest valid schedule.
    pub fn in_order(init: Vec<(MemAccess, u64)>, ops: Vec<ScriptOp>) -> Script {
        let exec_priority = (0..ops.len()).collect();
        Script {
            init,
            ops,
            exec_priority,
            squashes: Vec::new(),
        }
    }

    /// A deterministic random script: `n_ops` loads/stores over `n_words`
    /// adjacent 8-byte words (so aliasing, sub-word overlap and false
    /// sharing are all frequent), a shuffled execution priority, and a few
    /// injected squashes. The same seed always yields the same script.
    pub fn random(seed: u64, n_ops: usize, n_words: u64) -> Script {
        let mut rng = ScriptRng::new(seed);
        let n_words = n_words.max(1);
        let base = 0x1000u64;
        let mut init = Vec::new();
        for w in 0..n_words {
            if rng.below(2) == 0 {
                let access =
                    MemAccess::new(Addr(base + 8 * w), AccessSize::Double).expect("word-aligned");
                init.push((access, rng.next()));
            }
        }
        let mut ops = Vec::with_capacity(n_ops);
        for _ in 0..n_ops {
            let size = AccessSize::ALL[rng.below(4) as usize];
            let bytes = size.bytes();
            let word = base + 8 * rng.below(n_words);
            let offset = bytes * rng.below(8 / bytes);
            let access =
                MemAccess::new(Addr(word + offset), size).expect("aligned by construction");
            let kind = if rng.below(5) < 2 {
                MemKind::Store
            } else {
                MemKind::Load
            };
            ops.push(ScriptOp {
                kind,
                access,
                value: rng.next(),
            });
        }
        // Fisher–Yates shuffle for the execution priority.
        let mut exec_priority: Vec<usize> = (0..n_ops).collect();
        for i in (1..n_ops).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            exec_priority.swap(i, j);
        }
        let mut squashes = Vec::new();
        for _ in 0..rng.below(3) {
            squashes.push((
                1 + rng.below(n_ops.max(1) as u64),
                rng.below(n_ops.max(1) as u64) as usize,
            ));
        }
        Script {
            init,
            ops,
            exec_priority,
            squashes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build, BackendConfig, BackendParams, LsqConfig};

    #[test]
    fn reference_matches_hand_computation() {
        let d = |a| MemAccess::new(Addr(a), AccessSize::Double).unwrap();
        let script = Script::in_order(
            vec![(d(0x1000), 0x11)],
            vec![
                ScriptOp {
                    kind: MemKind::Load,
                    access: d(0x1000),
                    value: 0,
                },
                ScriptOp {
                    kind: MemKind::Store,
                    access: d(0x1000),
                    value: 0x22,
                },
                ScriptOp {
                    kind: MemKind::Load,
                    access: d(0x1000),
                    value: 0,
                },
            ],
        );
        let (loads, mem) = reference(&script);
        assert_eq!(loads, vec![0x11, 0x22]);
        assert_eq!(mem, vec![(0x1000, 0x22)]);
    }

    #[test]
    fn random_scripts_are_deterministic_and_valid() {
        let a = Script::random(7, 24, 4);
        let b = Script::random(7, 24, 4);
        assert_eq!(a.ops.len(), b.ops.len());
        for (x, y) in a.ops.iter().zip(&b.ops) {
            assert_eq!(x.access, y.access);
            assert_eq!(x.value, y.value);
            assert_eq!(x.kind == MemKind::Store, y.kind == MemKind::Store);
        }
        let mut sorted = a.exec_priority.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<_>>());
    }

    #[test]
    fn handoff_driver_matches_reference_on_the_lsq() {
        let mut backend = build(&BackendParams::new(BackendConfig::Lsq(
            LsqConfig::baseline_48x32(),
        )));
        let script = Script::random(11, 24, 4);
        let got = check_handoff_contract(backend.as_mut(), &script, &[(6, 6), (18, 3)]).unwrap();
        // The two quiesces squashed whatever was speculatively in flight.
        assert!(got.squashes >= 1, "quiesce never squashed in-flight work");
    }

    #[test]
    fn unsorted_handoff_plans_are_rejected() {
        let mut backend = build(&BackendParams::new(BackendConfig::Lsq(
            LsqConfig::baseline_48x32(),
        )));
        let script = Script::random(11, 24, 4);
        let err = run_script_with_handoffs(backend.as_mut(), &script, &[(12, 6), (6, 2)]);
        assert!(err.is_err(), "overlapping plan must be rejected");
    }

    #[test]
    fn driver_runs_a_trivial_script_on_the_lsq() {
        let mut backend = build(&BackendParams::new(BackendConfig::Lsq(
            LsqConfig::baseline_48x32(),
        )));
        let script = Script::random(3, 16, 3);
        let got = check_contract(backend.as_mut(), &script).unwrap();
        assert_eq!(
            got.load_values.len(),
            script
                .ops
                .iter()
                .filter(|o| o.kind == MemKind::Load)
                .count()
        );
        assert!(got.rounds > 0);
    }
}
