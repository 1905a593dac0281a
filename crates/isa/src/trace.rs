//! Architectural retirement traces.
//!
//! A [`Trace`] stores one packed 24-byte [`TraceRecord`] per retired
//! instruction and keeps a single copy of the program's instructions. A
//! record holds only what the program cannot supply — the pc, one value,
//! one address and the branch direction — and [`Trace::get`] decodes it,
//! with the instruction at its pc, into a by-value [`Retired`] view.

use aim_types::{Addr, MemAccess};

use crate::instr::{Instr, Reg};

/// One retired instruction in the architectural (golden) execution.
///
/// The out-of-order pipeline compares every instruction it retires against
/// the corresponding view; any divergence is a simulator correctness bug
/// (e.g. a forwarding error the disambiguation hardware failed to catch).
/// [`Interpreter::step`](crate::Interpreter::step) returns it and
/// [`Trace::get`] decodes it from the stored [`TraceRecord`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Instruction index (program counter) of this instruction.
    pub pc: u64,
    /// The instruction itself.
    pub instr: Instr,
    /// Architectural register written, with the value (`None` for `r0`).
    pub reg_write: Option<(Reg, u64)>,
    /// Memory written: access plus the stored value.
    pub mem_store: Option<(MemAccess, u64)>,
    /// Memory read: access plus the loaded value.
    pub mem_load: Option<(MemAccess, u64)>,
    /// The next program counter (branch/jump outcomes included).
    pub next_pc: u64,
}

impl Retired {
    /// Whether this instruction redirected control flow (did not fall
    /// through to `pc + 1`). For a conditional branch this is its taken
    /// direction — the signal the branch predictor trains on during
    /// functional warm-up.
    pub fn taken(&self) -> bool {
        self.next_pc != self.pc + 1
    }
}

/// The stored form of one retired instruction.
///
/// Everything the instruction itself determines is left out: the access
/// size and destination register come from the instruction at `pc`, and
/// the next pc from the instruction plus the taken bit (or the stored
/// target, for `Jr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The register result, the loaded value (the same as the load's
    /// register write), or the store's value masked to its width.
    value: u64,
    /// The access address of a load or store; the target of a `Jr`.
    addr: u64,
    pc: u32,
    taken: bool,
}

impl TraceRecord {
    fn pack(r: &Retired) -> TraceRecord {
        let (value, addr) = match (r.reg_write, r.mem_load.or(r.mem_store)) {
            (_, Some((access, value))) => (value, access.addr().0),
            (Some((_, value)), None) => (value, 0),
            (None, None) => (0, r.next_pc),
        };
        TraceRecord {
            value,
            addr,
            pc: r.pc as u32,
            taken: r.taken(),
        }
    }

    #[inline]
    fn decode(self, instr: Instr) -> Retired {
        let pc = u64::from(self.pc);
        let access = |size| {
            let access = MemAccess::new(Addr(self.addr), size);
            (access.expect("aligned at interpretation"), self.value)
        };
        let (mem_load, mem_store) = match instr {
            Instr::Load { size, .. } => (Some(access(size)), None),
            Instr::Store { size, .. } => (None, Some(access(size))),
            _ => (None, None),
        };
        let next_pc = match instr {
            Instr::Branch { target, .. } if self.taken => target,
            Instr::Jump { target } | Instr::Jal { target, .. } => target,
            Instr::Jr { .. } => self.addr,
            Instr::Halt => pc,
            _ => pc + 1,
        };
        Retired {
            pc,
            instr,
            reg_write: instr.def().map(|rd| (rd, self.value)),
            mem_store,
            mem_load,
            next_pc,
        }
    }
}

/// The golden in-order retirement trace of a program run.
///
/// # Examples
///
/// ```
/// use aim_isa::{Assembler, Interpreter};
///
/// let mut asm = Assembler::new();
/// asm.nop();
/// asm.halt();
/// let p = asm.assemble().unwrap();
/// let trace = Interpreter::new(&p).run(10).unwrap();
/// assert_eq!(trace.len(), 2);
/// assert!(trace.halted());
/// assert_eq!(trace.get(1).unwrap().next_pc, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Trace {
    instrs: Vec<Instr>,
    records: Vec<TraceRecord>,
    halted: bool,
}

impl Trace {
    /// An empty trace of a program with instructions `instrs`.
    ///
    /// # Panics
    ///
    /// Panics if the program has more instructions than a `u32` pc holds.
    pub(crate) fn new(instrs: &[Instr]) -> Trace {
        assert!(
            u32::try_from(instrs.len()).is_ok(),
            "program of {} instructions does not fit a 32-bit trace pc",
            instrs.len()
        );
        Trace {
            instrs: instrs.to_vec(),
            records: Vec::new(),
            halted: false,
        }
    }

    pub(crate) fn push(&mut self, retired: &Retired) {
        debug_assert_eq!(self.instrs.get(retired.pc as usize), Some(&retired.instr));
        self.records.push(TraceRecord::pack(retired));
    }

    pub(crate) fn set_halted(&mut self) {
        self.halted = true;
    }

    /// Number of retired instructions (including the final `Halt`, if any).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no instructions were retired.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether the program reached `Halt` within the run's instruction budget.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instruction `index`, decoded.
    #[inline]
    pub fn get(&self, index: u64) -> Option<Retired> {
        let rec = *self.records.get(index as usize)?;
        Some(rec.decode(self.instrs[rec.pc as usize]))
    }

    /// Every retired instruction in retirement order, decoded.
    pub fn records(&self) -> impl ExactSizeIterator<Item = Retired> + '_ {
        self.records
            .iter()
            .map(|rec| rec.decode(self.instrs[rec.pc as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<TraceRecord>() <= 24);
    }

    #[test]
    fn trace_accumulates() {
        let mut t = Trace::new(&[Instr::Nop]);
        assert!(t.is_empty());
        t.push(&Retired {
            pc: 0,
            instr: Instr::Nop,
            reg_write: None,
            mem_store: None,
            mem_load: None,
            next_pc: 1,
        });
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(0).unwrap().next_pc, 1);
        assert!(t.get(1).is_none());
        assert!(!t.halted());
        t.set_halted();
        assert!(t.halted());
    }

    #[test]
    fn taken_is_any_non_fallthrough() {
        let mut rec = Retired {
            pc: 10,
            instr: Instr::Nop,
            reg_write: None,
            mem_store: None,
            mem_load: None,
            next_pc: 11,
        };
        assert!(!rec.taken());
        rec.next_pc = 42;
        assert!(rec.taken());
    }
}
