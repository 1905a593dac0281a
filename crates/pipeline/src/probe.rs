//! Typed pipeline observation. The stages report each [`Event`] to the
//! [`Probe`] passed to [`Core::run_with`](crate::Core::run_with), the one
//! run loop. The probe is a generic parameter, so with the no-op probe
//! `()` every event site compiles to nothing, and an [`Event`] holds no
//! `String`, so nothing is formatted unless a probe asks for it.

use std::collections::VecDeque;
use std::fmt;

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

/// A pipeline observer, called at each event site in simulation order.
/// `()` observes nothing; a pair `(A, B)` forwards to `A`, then `B`.
pub trait Probe {
    /// Receives one event at `cycle`.
    fn event(&mut self, cycle: u64, event: &Event<'_>);
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
