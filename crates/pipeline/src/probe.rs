//! Typed pipeline observation. The stages report each [`Event`] to the
//! [`Probe`] passed to [`Core::run_with`](crate::Core::run_with), the one
//! run loop, and the cycle loop marks the end of each [`Stage`]. The probe
//! is a generic parameter, so with the no-op probe `()` every event site
//! and stage mark compiles to nothing, and an [`Event`] holds no `String`,
//! so nothing is formatted unless a probe asks for it.

use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::time::Instant;

use aim_types::SeqNum;

use crate::rob::InFlight;

/// One pipeline step. Each variant borrows the instruction's in-flight
/// record as the emitting stage has just updated it.
#[derive(Debug, Clone, Copy)]
pub enum Event<'e> {
    /// The instruction entered the reorder buffer.
    Dispatch(&'e InFlight),
    /// The instruction began an execution pass.
    Issue(&'e InFlight),
    /// The memory unit dropped the pass; the instruction waits to issue
    /// again (§2.4 replay).
    Replay(&'e InFlight),
    /// The instruction broadcast its result.
    Complete(&'e InFlight),
    /// Everything after `survivor` was squashed; fetch resumes at
    /// `resume_pc` after a `penalty`-cycle stall.
    Recover {
        survivor: SeqNum,
        resume_pc: u64,
        penalty: u64,
    },
    /// The instruction retired.
    Retire(&'e InFlight),
}

/// The event's text as [`EventLog`] records it (without the cycle column).
impl fmt::Display for Event<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Event::Dispatch(e) => write!(f, "dispatch {} pc={} `{}`", e.seq, e.pc, e.instr),
            Event::Issue(e) => write!(f, "issue    {} pc={} `{}`", e.seq, e.pc, e.instr),
            Event::Replay(e) => write!(f, "replay   {} dropped by the memory unit", e.seq),
            Event::Complete(e) => {
                write!(f, "complete {} pc={} result={:#x}", e.seq, e.pc, e.result)
            }
            Event::Recover {
                survivor,
                resume_pc,
                penalty,
            } => write!(
                f,
                "recover  squash seq>{} resume pc={resume_pc} (+{penalty} cycles)",
                survivor.0
            ),
            Event::Retire(e) => write!(f, "retire   {} pc={} `{}`", e.seq, e.pc, e.instr),
        }
    }
}

/// A span of the cycle loop, marked by [`Probe::stage`] when it ends.
///
/// Each cycle runs retire, complete, issue, dispatch and fetch in that
/// order. A sampled run also marks [`Stage::Warm`] after each functional
/// warm stretch (and the detail-window handoff before it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// In-order commit (plus the loop overhead since the previous cycle's
    /// fetch).
    Retire,
    /// Completion-event drain: result broadcast and recovery.
    Complete,
    /// Wakeup, select and execute.
    Issue,
    /// Rename and reorder-buffer insertion.
    Dispatch,
    /// Fetch and branch prediction.
    Fetch,
    /// A sampled run's functional warm stretch.
    Warm,
}

impl Stage {
    /// Every stage, in the order [`StageTimes`] reports them.
    pub const ALL: [Stage; 6] = [
        Stage::Retire,
        Stage::Complete,
        Stage::Issue,
        Stage::Dispatch,
        Stage::Fetch,
        Stage::Warm,
    ];

    /// The stage's lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Retire => "retire",
            Stage::Complete => "complete",
            Stage::Issue => "issue",
            Stage::Dispatch => "dispatch",
            Stage::Fetch => "fetch",
            Stage::Warm => "warm",
        }
    }
}

/// A pipeline observer, called at each event site in simulation order.
/// `()` observes nothing; a pair `(A, B)` forwards to `A`, then `B`;
/// `None` observes nothing and `Some(p)` forwards to `p`.
pub trait Probe {
    /// Receives one event at `cycle`.
    fn event(&mut self, cycle: u64, event: &Event<'_>);

    /// Marks the end of `stage` in the current cycle. Not an [`Event`]:
    /// event logs and pipeviews ignore it.
    #[inline(always)]
    fn stage(&mut self, _stage: Stage) {}
}

impl Probe for () {
    #[inline(always)]
    fn event(&mut self, _cycle: u64, _event: &Event<'_>) {}
}

impl<A: Probe, B: Probe> Probe for (A, B) {
    fn event(&mut self, cycle: u64, event: &Event<'_>) {
        self.0.event(cycle, event);
        self.1.event(cycle, event);
    }

    fn stage(&mut self, stage: Stage) {
        self.0.stage(stage);
        self.1.stage(stage);
    }
}

impl<P: Probe> Probe for Option<P> {
    fn event(&mut self, cycle: u64, event: &Event<'_>) {
        if let Some(p) = self {
            p.event(cycle, event);
        }
    }

    fn stage(&mut self, stage: Stage) {
        if let Some(p) = self {
            p.stage(stage);
        }
    }
}

/// Host time per pipeline [`Stage`]: each mark charges the wall time since
/// the previous mark to the stage it ends. One `Instant` read per mark, so
/// the figures include that read (about 40 ns on a shared 2-vCPU x86 host;
/// five reads per cycle).
///
/// # Examples
///
/// ```
/// use aim_isa::{Assembler, Interpreter, Reg};
/// use aim_pipeline::{Machine, MachineClass, SimConfig, Stage, StageTimes};
///
/// let mut asm = Assembler::new();
/// asm.movi(Reg::new(1), 7);
/// asm.halt();
/// let program = asm.assemble().unwrap();
/// let trace = Interpreter::new(&program).run(100).unwrap();
/// let mut times = StageTimes::new();
/// let cfg = SimConfig::machine(MachineClass::Baseline).build();
/// let stats = Machine::new(&program, &trace, cfg).run_with(&mut times).unwrap();
/// assert_eq!(times.cycles(), stats.cycles);
/// assert_eq!(times.ns(Stage::Warm), 0, "an unsampled run has no warm stretch");
/// let table = times.render(0);
/// assert!(table.contains("issue") && !table.contains("warm"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct StageTimes {
    last: Option<Instant>,
    ns: [u64; Stage::ALL.len()],
    cycles: u64,
}

impl StageTimes {
    /// An empty tally; the first mark only starts the clock.
    pub fn new() -> StageTimes {
        StageTimes::default()
    }

    /// Host nanoseconds charged to `stage`.
    pub fn ns(&self, stage: Stage) -> u64 {
        self.ns[stage as usize]
    }

    /// Detailed cycles stepped (one per [`Stage::Retire`] mark).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// A table of each detail stage's ns per detailed cycle and share of
    /// the total. A sampled run, whose functional warm engine retired
    /// `warm_retired` instructions (`SimStats::sampled`), adds a warm line
    /// in ns per warm instruction and warm MIPS instead: the warm engine
    /// steps no cycles.
    pub fn render(&self, warm_retired: u64) -> String {
        let total: u64 = self.ns.iter().sum();
        let share = |ns: u64| 100.0 * ns as f64 / total.max(1) as f64;
        let cycles = self.cycles.max(1) as f64;
        let mut out = format!(
            "-- host time per stage ({} cycles, {:.3} s) --\n{:<10}{:>12}{:>9}\n",
            self.cycles,
            total as f64 / 1e9,
            "stage",
            "ns/cycle",
            "share"
        );
        for stage in Stage::ALL {
            let ns = self.ns(stage);
            if stage != Stage::Warm {
                let _ = writeln!(
                    out,
                    "{:<10}{:>12.1}{:>8.1}%",
                    stage.name(),
                    ns as f64 / cycles,
                    share(ns)
                );
            } else if ns > 0 {
                let _ = writeln!(
                    out,
                    "{:<10}{:>12.1}{:>8.1}%  ns/inst: {warm_retired} instructions at \
                     {:.1} MIPS",
                    stage.name(),
                    ns as f64 / warm_retired.max(1) as f64,
                    share(ns),
                    warm_retired as f64 * 1e3 / ns as f64
                );
            }
        }
        out
    }
}

impl Probe for StageTimes {
    #[inline(always)]
    fn event(&mut self, _cycle: u64, _event: &Event<'_>) {}

    fn stage(&mut self, stage: Stage) {
        let now = Instant::now();
        if let Some(last) = self.last {
            self.ns[stage as usize] += now.duration_since(last).as_nanos() as u64;
        }
        self.cycles += (stage == Stage::Retire) as u64;
        self.last = Some(now);
    }
}

/// A probe keeping the newest `capacity` items it records: an
/// [`EventLog`] or a [`Pipeview`](crate::Pipeview).
#[derive(Debug, Clone)]
pub struct Ring<T> {
    capacity: usize,
    items: VecDeque<T>,
}

impl<T> Ring<T> {
    /// A ring of the newest `capacity` items (0 records nothing).
    pub fn new(capacity: usize) -> Ring<T> {
        Ring {
            capacity,
            items: VecDeque::new(),
        }
    }

    /// The retained items, oldest first.
    pub fn into_vec(self) -> Vec<T> {
        self.items.into()
    }

    pub(crate) fn push(&mut self, item: impl FnOnce() -> T) {
        if self.capacity > 0 {
            if self.items.len() == self.capacity {
                self.items.pop_front();
            }
            self.items.push_back(item());
        }
    }
}

/// The newest events as text lines, `"{cycle:>8}  {event}"`.
pub type EventLog = Ring<String>;

impl Probe for EventLog {
    fn event(&mut self, cycle: u64, event: &Event<'_>) {
        self.push(|| format!("{cycle:>8}  {event}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_row_reads_per_warm_instruction() {
        let mut times = StageTimes::new();
        times.cycles = 1_000;
        times.ns[Stage::Issue as usize] = 500_000;
        times.ns[Stage::Warm as usize] = 2_000_000;
        let table = times.render(100_000);
        // Detail stages per detailed cycle; warm per warm instruction.
        assert!(table.contains("issue            500.0    20.0%"), "{table}");
        assert!(
            table.contains(
                "warm              20.0    80.0%  ns/inst: 100000 instructions at 50.0 MIPS"
            ),
            "{table}"
        );
    }
}
