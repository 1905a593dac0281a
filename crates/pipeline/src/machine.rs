//! The machine driver: state, cycle loop, and run entry points. The stage
//! implementations live in sibling modules ([`crate::fetch`] et al.); the
//! memory-ordering machinery lives behind [`aim_backend::MemBackend`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

use aim_backend::MemBackend;
use aim_isa::{Instr, Program, Reg, Trace};
use aim_mem::{CoreMemSys, MainMemory};
use aim_predictor::{Gshare, OracleBoost, ProducerSetPredictor, TagScoreboard};
use aim_types::SeqNum;

use crate::config::SimConfig;
use crate::probe::{Probe, Stage};
use crate::recover::PendingViolation;
use crate::rename::Renamer;
use crate::rob::{InFlight, Rob};
use crate::sched::{Scheduler, WakeList};
use crate::stats::SimStats;

/// Errors terminating a simulation abnormally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The architectural interpreter rejected the program.
    Program(String),
    /// A retiring instruction diverged from the golden trace — a simulator
    /// correctness bug (e.g. a forwarding error the disambiguation hardware
    /// missed).
    Validation(String),
    /// No instruction retired for an implausibly long time.
    Deadlock(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Program(s) => write!(f, "program error: {s}"),
            SimError::Validation(s) => write!(f, "validation failed: {s}"),
            SimError::Deadlock(s) => write!(f, "pipeline deadlock: {s}"),
        }
    }
}

impl std::error::Error for SimError {}

/// An instruction staged between fetch and dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetched {
    pub(crate) pc: u64,
    pub(crate) instr: Instr,
    pub(crate) trace_index: Option<u64>,
    pub(crate) predicted_next_pc: u64,
    pub(crate) history_snapshot: u64,
}

/// The architectural end state of a run: the retired register file and the
/// committed memory image. Every backend must produce the same
/// [`FinalState`] for the same program — the cross-backend equivalence
/// property the `prop_backend_parity` integration test asserts.
#[derive(Debug)]
pub struct FinalState {
    /// Architectural registers `r0..r31` at halt.
    pub regs: Vec<u64>,
    /// Committed memory at halt.
    pub mem: MainMemory,
}

/// One simulated out-of-order processor core.
///
/// A `Core` owns a full pipeline (fetch through retire, with recovery) and
/// its private L1 caches, and holds the shared tier (committed memory plus
/// the unified L2) while it runs. Construct with [`Machine::new`]
/// (self-contained single-core, the historical `Machine`) and drive with
/// [`Machine::run`], or use the [`crate::simulate`] convenience function;
/// [`crate::MultiMachine`] attaches several cores to one shared memory
/// system and schedules them.
///
/// # Examples
///
/// ```
/// use aim_isa::{Assembler, Interpreter, Reg};
/// use aim_pipeline::{BackendChoice, Machine, MachineClass, SimConfig};
///
/// let mut asm = Assembler::new();
/// asm.movi(Reg::new(1), 42);
/// asm.halt();
/// let program = asm.assemble().unwrap();
/// let trace = Interpreter::new(&program).run(100).unwrap();
///
/// let machine = Machine::new(&program, &trace, SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build());
/// let stats = machine.run().unwrap();
/// assert_eq!(stats.retired, 2);
/// ```
pub struct Core<'a> {
    pub(crate) config: SimConfig,
    pub(crate) program: &'a Program,
    pub(crate) trace: &'a Trace,

    pub(crate) cycle: u64,
    pub(crate) next_seq: u64,
    pub(crate) halted: bool,
    pub(crate) target_retired: u64,

    pub(crate) renamer: Renamer,
    pub(crate) rob: Rob,
    /// This core's private L1s over the (possibly shared) L2 and committed
    /// memory.
    pub(crate) memsys: CoreMemSys,
    pub(crate) backend: Box<dyn MemBackend + Send>,
    pub(crate) dep_pred: ProducerSetPredictor,
    /// Dependence-tag readiness; each pending tag carries its consumers'
    /// wake list.
    pub(crate) tags: TagScoreboard<WakeList>,
    pub(crate) gshare: Gshare,
    pub(crate) oracle: OracleBoost,

    pub(crate) fetch_pc: u64,
    pub(crate) on_correct_path: bool,
    pub(crate) trace_cursor: u64,
    pub(crate) fetch_stall_until: u64,
    pub(crate) fetch_halted: bool,
    pub(crate) fetch_buffer: VecDeque<Fetched>,

    pub(crate) exec_events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Violations awaiting their raiser's completion event, kept sorted by
    /// raising sequence number (see `Machine::queue_violation`) so lookup
    /// and squash are range operations instead of whole-vector scans.
    pub(crate) pending_violations: Vec<(SeqNum, PendingViolation)>,

    /// Scratch buffers reused across cycles so the steady-state loop
    /// allocates nothing: issue's selected positions, recovery's squash
    /// list, and completion's taken-violation list keep their capacity
    /// run-long.
    pub(crate) issue_scratch: Vec<u64>,
    pub(crate) squash_scratch: Vec<InFlight>,
    pub(crate) violation_scratch: Vec<PendingViolation>,

    /// The event-driven scheduler: wake conditions of every
    /// [`InstrState::Waiting`](crate::rob::InstrState) entry, the wake
    /// lists that meet them, and the ROB-ordered ready set select scans.
    pub(crate) sched: Scheduler,

    /// §4 MDT search filter: count of in-flight stores that have not yet
    /// (successfully) executed, and a counting filter over the granules of
    /// executed-but-unretired stores.
    pub(crate) unexecuted_stores: u64,
    pub(crate) store_granule_filter: Vec<u32>,

    pub(crate) stats: SimStats,
    pub(crate) last_retire_cycle: u64,
}

/// The historical single-core name: a [`Core`] constructed with
/// [`Machine::new`] owns its entire memory system and behaves exactly as
/// the pre-multi-core machine did.
pub type Machine<'a> = Core<'a>;

/// No-forward-progress bound for the per-core deadlock detector.
const DEADLOCK_CYCLES: u64 = 200_000;

impl<'a> Core<'a> {
    /// Creates a self-contained single-core machine over `program`,
    /// validated against `trace` (the golden architectural run of the same
    /// program).
    pub fn new(program: &'a Program, trace: &'a Trace, config: SimConfig) -> Core<'a> {
        let memsys = CoreMemSys::single(program.build_memory(), config.hierarchy);
        Core::attach(program, trace, config, memsys)
    }

    /// Creates core `core_id` of a [`crate::MultiMachine`], without the
    /// shared tier: the machine lends it the tier for each step. The
    /// per-core oracle seed folds the core id in so sibling cores draw
    /// independent streams; core 0 keeps the configured seed bit-for-bit
    /// (the N=1 equivalence gate).
    pub(crate) fn sibling(
        program: &'a Program,
        trace: &'a Trace,
        mut config: SimConfig,
        core_id: usize,
    ) -> Core<'a> {
        config.seed ^= (core_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let memsys = CoreMemSys::detached(config.hierarchy);
        Core::attach(program, trace, config, memsys)
    }

    fn attach(
        program: &'a Program,
        trace: &'a Trace,
        config: SimConfig,
        memsys: CoreMemSys,
    ) -> Core<'a> {
        let backend = aim_backend::build(&config.backend_params());
        let target_retired = if config.max_instrs == 0 {
            trace.len() as u64
        } else {
            config.max_instrs.min(trace.len() as u64)
        };
        Core {
            renamer: Renamer::new(config.phys_regs),
            rob: Rob::new(config.rob_entries),
            memsys,
            backend,
            dep_pred: ProducerSetPredictor::with_config(config.dep_predictor),
            tags: TagScoreboard::default(),
            gshare: Gshare::new(config.gshare_counters, config.gshare_history_bits),
            oracle: OracleBoost::new(config.oracle_fix_probability, config.seed),
            fetch_pc: 0,
            on_correct_path: true,
            trace_cursor: 0,
            fetch_stall_until: 0,
            fetch_halted: false,
            fetch_buffer: VecDeque::new(),
            exec_events: BinaryHeap::new(),
            pending_violations: Vec::new(),
            issue_scratch: Vec::new(),
            sched: Scheduler::new(config.rob_entries, config.phys_regs),
            squash_scratch: Vec::new(),
            violation_scratch: Vec::new(),
            unexecuted_stores: 0,
            store_granule_filter: vec![0; 1024],
            cycle: 0,
            next_seq: 1,
            halted: false,
            target_retired,
            stats: SimStats::default(),
            last_retire_cycle: 0,
            config,
            program,
            trace,
        }
    }

    /// Runs the machine to completion (program halt or instruction budget)
    /// and returns the statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::Validation`] if a retiring instruction diverges from the
    /// golden trace, [`SimError::Deadlock`] if no progress is made for an
    /// implausibly long stretch.
    pub fn run(self) -> Result<SimStats, SimError> {
        self.run_with(&mut ())
    }

    /// Like [`Machine::run`], but reports every pipeline [`Event`] to
    /// `probe` as it happens (see [`crate::probe`]).
    ///
    /// # Errors
    ///
    /// See [`Machine::run`].
    ///
    /// [`Event`]: crate::Event
    pub fn run_with(mut self, probe: &mut impl Probe) -> Result<SimStats, SimError> {
        self.run_loop(probe)?;
        Ok(self.stats)
    }

    /// Like [`Machine::run`], but also returns the architectural end state
    /// (retired register file and committed memory) for cross-backend
    /// equivalence checks.
    ///
    /// # Errors
    ///
    /// See [`Machine::run`].
    pub fn run_final(mut self) -> Result<(SimStats, FinalState), SimError> {
        self.run_loop(&mut ())?;
        let regs = self.arch_regs();
        Ok((
            self.stats,
            FinalState {
                regs,
                mem: self.memsys.into_memory(),
            },
        ))
    }

    /// The retired architectural register file `r0..r31`.
    pub(crate) fn arch_regs(&self) -> Vec<u64> {
        (0..32)
            .map(|i| self.renamer.read(self.renamer.lookup(Reg::new(i))))
            .collect()
    }

    /// Advances the core by one cycle: retire, then (unless halted)
    /// complete/issue/dispatch/fetch, with the per-core deadlock check.
    /// The probe's [`Probe::stage`] marks the end of each stage.
    /// This is the multi-core scheduling quantum — the single-core
    /// [`Machine::run`] loop calls it back to back.
    pub(crate) fn step<P: Probe>(&mut self, probe: &mut P) -> Result<(), SimError> {
        self.cycle += 1;
        self.retire(probe)?;
        probe.stage(Stage::Retire);
        if self.halted {
            self.debug_check_filter_census();
            return Ok(());
        }
        self.complete(probe);
        probe.stage(Stage::Complete);
        self.issue(probe);
        probe.stage(Stage::Issue);
        self.dispatch(probe);
        probe.stage(Stage::Dispatch);
        self.fetch();
        probe.stage(Stage::Fetch);

        if self.cycle - self.last_retire_cycle > DEADLOCK_CYCLES {
            return Err(SimError::Deadlock(format!(
                "no retirement for {} cycles at cycle {}; retired {}, rob {} entries, \
                 head {:?}",
                DEADLOCK_CYCLES,
                self.cycle,
                self.stats.retired,
                self.rob.len(),
                self.rob.head().map(|h| (h.seq, h.pc, h.state))
            )));
        }
        Ok(())
    }

    fn run_loop<P: Probe>(&mut self, probe: &mut P) -> Result<(), SimError> {
        if self.target_retired == 0 {
            return Ok(());
        }
        if self.config.sample.is_some() {
            return self.run_sampled(probe);
        }
        let wall_start = std::time::Instant::now();
        while !self.halted {
            self.step(probe)?;
        }
        self.stats.cycles = self.cycle;
        self.stats.host.wall_ns = wall_start.elapsed().as_nanos() as u64;
        self.finalize_stats();
        Ok(())
    }

    pub(crate) fn finalize_stats(&mut self) {
        self.backend.stats_into(&mut self.stats.backend);
        self.stats.gshare = self.gshare.stats();
        self.stats.dep_predictor = self.dep_pred.stats();
        self.stats.caches = self.memsys.stats();
        self.stats.far = self.memsys.far_stats();
    }

    pub(crate) fn at_head(&self, seq: SeqNum) -> bool {
        self.rob.head().map(|h| h.seq) == Some(seq)
    }

    pub(crate) fn trace_record(&self, cursor: u64) -> Option<aim_isa::Retired> {
        self.trace.get(cursor)
    }
}
