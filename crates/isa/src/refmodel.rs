//! Multi-core operational reference model.
//!
//! The single-core [`Interpreter`] is the golden oracle for one pipeline; a
//! multi-core machine has no single golden execution, only a *set* of allowed
//! final states. This module defines that set operationally, with a model
//! deliberately **weaker** than anything the simulated machine can produce,
//! so that every machine execution is guaranteed to land inside it:
//!
//! * Each core executes its (straight-line) program in order.
//! * A store enters the core's private store buffer (FIFO). A separate
//!   `Drain` event later publishes the oldest entry to shared memory.
//! * Shared memory keeps the full *version history* of every 8-byte word.
//! * A load **must** forward from the youngest matching entry in its own
//!   store buffer (the machine's store-to-load forwarding paths all read
//!   program-order-preceding same-core stores). With no match it may read
//!   *any* committed version at or above the core's per-word read floor;
//!   the chosen version becomes the new floor (per-location coherence of
//!   reads on the same core).
//! * Draining a store raises the draining core's own floor past it — a core
//!   never reads memory older than a store it has itself committed.
//!
//! This admits the classic relaxed outcomes (store buffering, message
//! passing with a stale data read, IRIW) while still forbidding the two
//! behaviours the simulated machine genuinely cannot exhibit: load-buffering
//! cycles (stores commit only at retirement, after the core's own earlier
//! loads are done) and a core missing its own store. Litmus tests therefore
//! assert machine outcomes `⊆` [`allowed_outcomes`] — a sound check on every
//! backend — and the forwarding variants keep it non-vacuous.
//!
//! Only straight-line programs over `movi`/ALU/8-byte-aligned `ld`/`sd`/
//! `halt` are accepted; control flow would make per-core paths depend on
//! cross-core values, which the fetch-steering contract of the pipeline
//! does not cover.
//!
//! [`Interpreter`]: crate::Interpreter

use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::fmt;

use aim_mem::MainMemory;
use aim_types::{AccessSize, Addr, MemAccess};

use crate::instr::{Instr, Reg};
use crate::Program;

/// Errors raised while exploring the reference model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// An instruction outside the supported straight-line subset.
    Unsupported {
        /// Core that fetched it.
        core: usize,
        /// Its program counter.
        pc: u64,
        /// The instruction.
        instr: Instr,
    },
    /// A memory access that is not an aligned 8-byte word.
    BadAccess {
        /// Core that issued it.
        core: usize,
        /// Its program counter.
        pc: u64,
    },
    /// A core's program counter ran off its instruction stream.
    PcOutOfRange {
        /// The core.
        core: usize,
        /// The offending program counter.
        pc: u64,
    },
    /// Enumeration visited more distinct states than the configured budget.
    StateBudget {
        /// The budget that was exceeded.
        limit: usize,
    },
}

impl fmt::Display for RefError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RefError::Unsupported { core, pc, instr } => {
                write!(f, "core {core} pc {pc}: `{instr}` outside litmus subset")
            }
            RefError::BadAccess { core, pc } => {
                write!(
                    f,
                    "core {core} pc {pc}: access is not an aligned 8-byte word"
                )
            }
            RefError::PcOutOfRange { core, pc } => {
                write!(f, "core {core}: pc {pc} out of range")
            }
            RefError::StateBudget { limit } => {
                write!(f, "state budget of {limit} distinct states exceeded")
            }
        }
    }
}

impl std::error::Error for RefError {}

/// Exploration budget for [`allowed_outcomes`].
#[derive(Debug, Clone, Copy)]
pub struct RefLimits {
    /// Maximum number of distinct states to visit before giving up with
    /// [`RefError::StateBudget`]. Litmus-sized programs stay far below the
    /// default.
    pub max_states: usize,
}

impl Default for RefLimits {
    fn default() -> RefLimits {
        RefLimits {
            max_states: 1 << 20,
        }
    }
}

/// One core's architectural state in the model.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CoreState {
    pc: u64,
    regs: [u64; Reg::COUNT],
    halted: bool,
    /// FIFO store buffer of `(word address, value)`, oldest first.
    sb: VecDeque<(u64, u64)>,
}

/// A full model state: all cores plus shared memory's version histories and
/// the per-(core, word) read floors.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct RefState {
    cores: Vec<CoreState>,
    /// Word address → committed versions, index 0 the initial value.
    versions: BTreeMap<u64, Vec<u64>>,
    /// Per core: word address → lowest version index it may still read.
    floors: Vec<BTreeMap<u64, usize>>,
}

/// One enabled transition out of a state.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Execute the next instruction of `core`. For a load that reads shared
    /// memory, `load_version` picks which committed version it observes.
    Step {
        core: usize,
        load_version: Option<usize>,
    },
    /// Publish the oldest store-buffer entry of `core` to shared memory.
    Drain { core: usize },
}

impl RefState {
    fn initial(programs: &[Program]) -> RefState {
        RefState {
            cores: programs
                .iter()
                .map(|_| CoreState {
                    pc: 0,
                    regs: [0; Reg::COUNT],
                    halted: false,
                    sb: VecDeque::new(),
                })
                .collect(),
            versions: BTreeMap::new(),
            floors: vec![BTreeMap::new(); programs.len()],
        }
    }

    fn terminal(&self) -> bool {
        self.cores.iter().all(|c| c.halted && c.sb.is_empty())
    }

    /// The committed version history of `word`, created on first touch from
    /// the merged initial memory image.
    fn history<'a>(
        versions: &'a mut BTreeMap<u64, Vec<u64>>,
        init: &MainMemory,
        word: u64,
    ) -> &'a mut Vec<u64> {
        versions.entry(word).or_insert_with(|| {
            let access = MemAccess::new(Addr(word), AccessSize::Double)
                .expect("word addresses are 8-byte aligned by construction");
            vec![init.read(access)]
        })
    }
}

/// The model over a fixed set of programs.
struct Model<'a> {
    programs: &'a [Program],
    /// Merged initial data image (core order), the source of word version 0.
    init: MainMemory,
}

impl<'a> Model<'a> {
    fn new(programs: &'a [Program]) -> Model<'a> {
        let mut init = MainMemory::new();
        for p in programs {
            for (addr, bytes) in p.data() {
                init.write_bytes(*addr, bytes);
            }
        }
        Model { programs, init }
    }

    /// The 8-byte word address accessed by a load/store, or an error if it
    /// is not an aligned double.
    fn word_of(
        &self,
        core: usize,
        pc: u64,
        base: u64,
        offset: i64,
        size: AccessSize,
    ) -> Result<u64, RefError> {
        let addr = base.wrapping_add(offset as u64);
        if size != AccessSize::Double || !addr.is_multiple_of(8) {
            return Err(RefError::BadAccess { core, pc });
        }
        Ok(addr)
    }

    /// All transitions enabled in `state`. Empty iff the state is terminal.
    fn enabled(&self, state: &RefState) -> Result<Vec<Event>, RefError> {
        let mut events = Vec::new();
        for (core, c) in state.cores.iter().enumerate() {
            if !c.sb.is_empty() {
                events.push(Event::Drain { core });
            }
            if c.halted {
                continue;
            }
            let instr = *self.programs[core]
                .instr(c.pc)
                .ok_or(RefError::PcOutOfRange { core, pc: c.pc })?;
            match instr {
                Instr::Load {
                    base, offset, size, ..
                } => {
                    let word =
                        self.word_of(core, c.pc, c.regs[base.index() as usize], offset, size)?;
                    if c.sb.iter().rev().any(|&(w, _)| w == word) {
                        // Forwarding from the own store buffer is mandatory:
                        // exactly one way to execute this load.
                        events.push(Event::Step {
                            core,
                            load_version: None,
                        });
                    } else {
                        let floor = state.floors[core].get(&word).copied().unwrap_or(0);
                        let len = state.versions.get(&word).map_or(1, Vec::len);
                        for v in floor..len {
                            events.push(Event::Step {
                                core,
                                load_version: Some(v),
                            });
                        }
                    }
                }
                _ => events.push(Event::Step {
                    core,
                    load_version: None,
                }),
            }
        }
        Ok(events)
    }

    /// Applies `event` to a copy of `state`.
    fn apply(&self, state: &RefState, event: Event) -> Result<RefState, RefError> {
        let mut next = state.clone();
        match event {
            Event::Drain { core } => {
                let (word, value) = next.cores[core]
                    .sb
                    .pop_front()
                    .expect("drain only enabled with a non-empty store buffer");
                let history = RefState::history(&mut next.versions, &self.init, word);
                history.push(value);
                let latest = history.len() - 1;
                // A core never reads below its own committed store.
                next.floors[core].insert(word, latest);
            }
            Event::Step { core, load_version } => {
                let pc = next.cores[core].pc;
                let instr = *self.programs[core]
                    .instr(pc)
                    .ok_or(RefError::PcOutOfRange { core, pc })?;
                let c = &mut next.cores[core];
                let reg = |c: &CoreState, r: Reg| c.regs[r.index() as usize];
                let set = |c: &mut CoreState, r: Reg, v: u64| {
                    if !r.is_zero() {
                        c.regs[r.index() as usize] = v;
                    }
                };
                match instr {
                    Instr::Alu { op, rd, rs1, rs2 } => {
                        let v = op.eval(reg(c, rs1), reg(c, rs2));
                        set(c, rd, v);
                    }
                    Instr::AluImm { op, rd, rs1, imm } => {
                        let v = op.eval(reg(c, rs1), imm as u64);
                        set(c, rd, v);
                    }
                    Instr::MovImm { rd, imm } => set(c, rd, imm as u64),
                    Instr::Nop => {}
                    Instr::Halt => {
                        c.halted = true;
                        return Ok(next);
                    }
                    Instr::Store {
                        rs,
                        base,
                        offset,
                        size,
                    } => {
                        let word = self.word_of(core, pc, reg(c, base), offset, size)?;
                        let value = reg(c, rs);
                        c.sb.push_back((word, value));
                    }
                    Instr::Load {
                        rd,
                        base,
                        offset,
                        size,
                    } => {
                        let word = self.word_of(core, pc, reg(c, base), offset, size)?;
                        let forwarded =
                            c.sb.iter()
                                .rev()
                                .find(|&&(w, _)| w == word)
                                .map(|&(_, v)| v);
                        let value = match (forwarded, load_version) {
                            (Some(v), _) => v,
                            (None, Some(idx)) => {
                                let history =
                                    RefState::history(&mut next.versions, &self.init, word);
                                let value = history[idx];
                                next.floors[core].insert(word, idx);
                                let c = &mut next.cores[core];
                                set(c, rd, value);
                                c.pc += 1;
                                return Ok(next);
                            }
                            (None, None) => {
                                unreachable!("memory loads carry an explicit version choice")
                            }
                        };
                        set(c, rd, value);
                    }
                    other => {
                        return Err(RefError::Unsupported {
                            core,
                            pc,
                            instr: other,
                        })
                    }
                }
                next.cores[core].pc += 1;
            }
        }
        Ok(next)
    }

    fn outcome(&self, state: &RefState, observed: &[(usize, Reg)]) -> Vec<u64> {
        observed
            .iter()
            .map(|&(core, r)| state.cores[core].regs[r.index() as usize])
            .collect()
    }
}

/// Enumerates every final value of the `observed` registers (`(core, reg)`
/// pairs) the model allows for the given per-core programs.
///
/// Exhaustive DFS over interleavings with duplicate-state pruning; errors if
/// the state space exceeds `limits.max_states` so a truncated exploration can
/// never masquerade as a complete one.
///
/// # Examples
///
/// A one-core program degenerates to the interpreter's single outcome:
///
/// ```
/// use aim_isa::{allowed_outcomes, Assembler, RefLimits, Reg};
///
/// let mut asm = Assembler::new();
/// asm.movi(Reg::new(1), 7);
/// asm.halt();
/// let p = asm.assemble().unwrap();
///
/// let outcomes =
///     allowed_outcomes(&[p], &[(0, Reg::new(1))], &RefLimits::default()).unwrap();
/// assert_eq!(outcomes.into_iter().collect::<Vec<_>>(), vec![vec![7]]);
/// ```
pub fn allowed_outcomes(
    programs: &[Program],
    observed: &[(usize, Reg)],
    limits: &RefLimits,
) -> Result<BTreeSet<Vec<u64>>, RefError> {
    let model = Model::new(programs);
    let start = RefState::initial(programs);
    let mut outcomes = BTreeSet::new();
    let mut seen: HashSet<RefState> = HashSet::new();
    let mut stack = vec![start.clone()];
    seen.insert(start);
    while let Some(state) = stack.pop() {
        if state.terminal() {
            outcomes.insert(model.outcome(&state, observed));
            continue;
        }
        for event in model.enabled(&state)? {
            let next = model.apply(&state, event)?;
            if seen.insert(next.clone()) {
                if seen.len() > limits.max_states {
                    return Err(RefError::StateBudget {
                        limit: limits.max_states,
                    });
                }
                stack.push(next);
            }
        }
    }
    Ok(outcomes)
}

/// Runs one seeded random walk through the model and returns the observed
/// registers of the final state it reaches.
///
/// Used to cross-check [`allowed_outcomes`]: every sampled outcome must be a
/// member of the enumerated set.
pub fn sample_outcome(
    programs: &[Program],
    observed: &[(usize, Reg)],
    seed: u64,
) -> Result<Vec<u64>, RefError> {
    let model = Model::new(programs);
    let mut state = RefState::initial(programs);
    let mut rng = SplitMix64::new(seed);
    // Straight-line programs terminate: every Step advances a pc and every
    // Drain shrinks a buffer that only Steps refill. The bound is defensive.
    let mut budget = 64 * programs.iter().map(Program::len).sum::<usize>().max(1);
    while !state.terminal() {
        let events = model.enabled(&state)?;
        let pick = (rng.next() % events.len() as u64) as usize;
        state = model.apply(&state, events[pick])?;
        budget -= 1;
        assert!(budget > 0, "random walk failed to terminate");
    }
    Ok(model.outcome(&state, observed))
}

/// SplitMix64 — tiny seeded generator for the random walk (no external
/// dependencies; quality is ample for schedule sampling).
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed.wrapping_add(0x9E37_79B9_7F4A_7C15),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::litmus;

    fn by_name(name: &str) -> litmus::LitmusTest {
        litmus::litmus_suite()
            .into_iter()
            .find(|t| t.name == name)
            .unwrap_or_else(|| panic!("no litmus test named {name}"))
    }

    fn outcomes(test: &litmus::LitmusTest) -> BTreeSet<Vec<u64>> {
        allowed_outcomes(&test.programs, &test.observed, &RefLimits::default()).unwrap()
    }

    #[test]
    fn sb_allows_the_relaxed_outcome() {
        let t = by_name("SB");
        let set = outcomes(&t);
        // Both loads may miss the sibling's buffered store...
        assert!(set.contains(&vec![0, 0]), "store buffering must be allowed");
        // ...and the SC outcomes are there too.
        assert!(set.contains(&vec![1, 1]));
        assert!(set.contains(&vec![0, 1]));
        assert!(set.contains(&vec![1, 0]));
    }

    #[test]
    fn sb_fwd_forces_forwarding() {
        let t = by_name("SB+fwd");
        for o in outcomes(&t) {
            // Observed layout: (r5 forwarded own store, r2, r3).
            assert_eq!(o[0], 1, "own store must forward: {o:?}");
        }
    }

    #[test]
    fn mp_allows_stale_data_but_not_stale_flag_semantics() {
        let t = by_name("MP");
        let set = outcomes(&t);
        // Relaxed: flag observed set, data still old.
        assert!(
            set.contains(&vec![1, 0]),
            "MP relaxed outcome must be allowed"
        );
        assert!(set.contains(&vec![1, 42]));
        assert!(set.contains(&vec![0, 0]));
        // Data=42 with flag unobserved is also fine (reader may see the data
        // store first) — the model is weaker than TSO on purpose.
        assert!(set.contains(&vec![0, 42]));
    }

    #[test]
    fn mp_fwd_writer_sees_own_data() {
        let t = by_name("MP+fwd");
        for o in outcomes(&t) {
            assert_eq!(o[0], 42, "writer must observe its own store: {o:?}");
        }
    }

    #[test]
    fn lb_forbids_the_cycle() {
        let t = by_name("LB");
        let set = outcomes(&t);
        assert!(
            !set.contains(&vec![1, 1]),
            "load-buffering cycle must be forbidden"
        );
        assert!(set.contains(&vec![0, 0]));
        assert!(set.contains(&vec![1, 0]));
        assert!(set.contains(&vec![0, 1]));
    }

    #[test]
    fn iriw_allows_disagreeing_readers() {
        let t = by_name("IRIW");
        let set = outcomes(&t);
        // Readers may disagree on the order of the two independent writes.
        assert!(
            set.contains(&vec![1, 0, 1, 0]),
            "IRIW relaxed outcome must be allowed"
        );
    }

    #[test]
    fn sampling_is_contained_in_enumeration() {
        for t in litmus::litmus_suite() {
            let set = outcomes(&t);
            for seed in 0..200u64 {
                let o = sample_outcome(&t.programs, &t.observed, seed).unwrap();
                assert!(
                    set.contains(&o),
                    "{}: sampled outcome {o:?} not in enumerated set",
                    t.name
                );
            }
        }
    }

    #[test]
    fn control_flow_is_rejected() {
        let mut asm = crate::Assembler::new();
        asm.label("top");
        asm.jump("top");
        let p = asm.assemble().unwrap();
        let err = allowed_outcomes(&[p], &[], &RefLimits::default()).unwrap_err();
        assert!(matches!(err, RefError::Unsupported { .. }));
    }

    #[test]
    fn sub_word_access_is_rejected() {
        let mut asm = crate::Assembler::new();
        asm.movi(Reg::new(1), 0x1000);
        asm.sw(Reg::new(2), Reg::new(1), 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let err = allowed_outcomes(&[p], &[], &RefLimits::default()).unwrap_err();
        assert!(matches!(err, RefError::BadAccess { .. }));
    }

    #[test]
    fn state_budget_is_enforced() {
        let t = by_name("IRIW");
        let err =
            allowed_outcomes(&t.programs, &t.observed, &RefLimits { max_states: 4 }).unwrap_err();
        assert_eq!(err, RefError::StateBudget { limit: 4 });
    }

    #[test]
    fn initial_memory_comes_from_the_data_image() {
        let mut asm = crate::Assembler::new();
        asm.data_words(aim_types::Addr(0x2000), &[0xABCD]);
        asm.movi(Reg::new(1), 0x2000);
        asm.ld(Reg::new(2), Reg::new(1), 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let set = allowed_outcomes(&[p], &[(0, Reg::new(2))], &RefLimits::default()).unwrap();
        assert_eq!(set.into_iter().collect::<Vec<_>>(), vec![vec![0xABCD]]);
    }
}
