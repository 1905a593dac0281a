//! The architectural (in-order) interpreter.

use core::fmt;

use aim_mem::MainMemory;
use aim_types::{Addr, MemAccess, MisalignedAccess};

use crate::instr::{Instr, Reg};
use crate::trace::{Retired, Trace};
use crate::Program;

/// Errors raised by architectural execution.
///
/// These indicate *program* bugs (a workload kernel computing a bad address),
/// not simulator bugs; workloads are required to be clean under the
/// interpreter before they are run on the out-of-order pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The program counter left the instruction stream.
    PcOutOfRange {
        /// The offending program counter.
        pc: u64,
    },
    /// A load or store computed a misaligned effective address.
    Misaligned {
        /// The program counter of the access.
        pc: u64,
        /// Details of the misalignment.
        access: MisalignedAccess,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            ExecError::Misaligned { pc, access } => write!(f, "at pc {pc}: {access}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The in-order architectural executor.
///
/// Runs a [`Program`] to completion (or an instruction budget), producing the
/// golden retirement [`Trace`]. Register `r0` always reads zero; writes to it
/// are discarded.
///
/// # Examples
///
/// ```
/// use aim_isa::{Assembler, Interpreter, Reg};
/// use aim_types::Addr;
///
/// let mut asm = Assembler::new();
/// asm.movi(Reg::new(1), 0x1000);
/// asm.movi(Reg::new(2), 42);
/// asm.sd(Reg::new(2), Reg::new(1), 0);
/// asm.ld(Reg::new(3), Reg::new(1), 0);
/// asm.halt();
/// let p = asm.assemble().unwrap();
///
/// let mut interp = Interpreter::new(&p);
/// interp.run(100).unwrap();
/// assert_eq!(interp.reg(Reg::new(3)), 42);
/// ```
#[derive(Debug)]
pub struct Interpreter<'a> {
    program: &'a Program,
    regs: [u64; Reg::COUNT],
    pc: u64,
    mem: MainMemory,
    halted: bool,
    executed: u64,
}

impl<'a> Interpreter<'a> {
    /// Creates an interpreter at `pc = 0` with memory initialized from the
    /// program's data image.
    pub fn new(program: &'a Program) -> Interpreter<'a> {
        Interpreter {
            program,
            regs: [0; Reg::COUNT],
            pc: 0,
            mem: program.build_memory(),
            halted: false,
            executed: 0,
        }
    }

    /// Current value of `r`.
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// Sets `r` (writes to `r0` are ignored). Useful for test setup.
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Current program counter (instruction index).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether `Halt` has been executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Number of instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The architectural memory.
    pub fn memory(&self) -> &MainMemory {
        &self.mem
    }

    /// Mutable access to the architectural memory (test setup).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.mem
    }

    /// Executes one instruction, returning what it retired, or `Ok(None)`
    /// if the machine has already halted.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn step(&mut self) -> Result<Option<Retired>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let instr = *self
            .program
            .instr(pc)
            .ok_or(ExecError::PcOutOfRange { pc })?;

        let mut record = Retired {
            pc,
            instr,
            reg_write: None,
            mem_store: None,
            mem_load: None,
            next_pc: pc + 1,
        };

        let mem_access = |base: Reg, offset: i64, size, regs: &Self| {
            let addr = Addr(regs.reg(base).wrapping_add(offset as u64));
            MemAccess::new(addr, size).map_err(|access| ExecError::Misaligned { pc, access })
        };

        match instr {
            Instr::Alu { op, rd, rs1, rs2 } => {
                let v = op.eval(self.reg(rs1), self.reg(rs2));
                self.set_reg(rd, v);
                if !rd.is_zero() {
                    record.reg_write = Some((rd, v));
                }
            }
            Instr::AluImm { op, rd, rs1, imm } => {
                let v = op.eval(self.reg(rs1), imm as u64);
                self.set_reg(rd, v);
                if !rd.is_zero() {
                    record.reg_write = Some((rd, v));
                }
            }
            Instr::MovImm { rd, imm } => {
                self.set_reg(rd, imm as u64);
                if !rd.is_zero() {
                    record.reg_write = Some((rd, imm as u64));
                }
            }
            Instr::Load {
                rd,
                base,
                offset,
                size,
            } => {
                let access = mem_access(base, offset, size, self)?;
                let v = self.mem.read(access);
                self.set_reg(rd, v);
                record.mem_load = Some((access, v));
                if !rd.is_zero() {
                    record.reg_write = Some((rd, v));
                }
            }
            Instr::Store {
                rs,
                base,
                offset,
                size,
            } => {
                let access = mem_access(base, offset, size, self)?;
                let v = self.reg(rs);
                self.mem.write(access, v);
                record.mem_store = Some((access, v & size.value_mask()));
            }
            Instr::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                if cond.eval(self.reg(rs1), self.reg(rs2)) {
                    record.next_pc = target;
                }
            }
            Instr::Jump { target } => {
                record.next_pc = target;
            }
            Instr::Jal { rd, target } => {
                let link = pc + 1;
                self.set_reg(rd, link);
                if !rd.is_zero() {
                    record.reg_write = Some((rd, link));
                }
                record.next_pc = target;
            }
            Instr::Jr { rs } => {
                record.next_pc = self.reg(rs);
            }
            Instr::Halt => {
                self.halted = true;
                record.next_pc = pc;
            }
            Instr::Nop => {}
        }

        self.pc = record.next_pc;
        self.executed += 1;
        Ok(Some(record))
    }

    /// Runs until `Halt` or `max_instrs` instructions, collecting the trace.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    ///
    /// # Panics
    ///
    /// Panics if the program has more instructions than a `u32` pc holds.
    pub fn run(&mut self, max_instrs: u64) -> Result<Trace, ExecError> {
        let mut trace = Trace::new(self.program.instrs());
        while self.executed < max_instrs {
            match self.step()? {
                Some(record) => {
                    trace.push(&record);
                    if self.halted {
                        trace.set_halted();
                        break;
                    }
                }
                None => {
                    trace.set_halted();
                    break;
                }
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use aim_types::AccessSize;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn r0_reads_zero_and_ignores_writes() {
        let mut asm = Assembler::new();
        asm.movi(Reg::ZERO, 77);
        asm.add(r(1), Reg::ZERO, Reg::ZERO);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut i = Interpreter::new(&p);
        i.run(10).unwrap();
        assert_eq!(i.reg(Reg::ZERO), 0);
        assert_eq!(i.reg(r(1)), 0);
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut asm = Assembler::new();
        asm.movi(r(1), 10);
        asm.movi(r(2), 0);
        asm.label("l");
        asm.addi(r(2), r(2), 3);
        asm.subi(r(1), r(1), 1);
        asm.bne(r(1), Reg::ZERO, "l");
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut i = Interpreter::new(&p);
        let t = i.run(1000).unwrap();
        assert_eq!(i.reg(r(2)), 30);
        assert!(t.halted());
        // 2 setup + 10 * 3 loop body + halt
        assert_eq!(t.len(), 2 + 30 + 1);
    }

    #[test]
    fn store_then_load_roundtrip_subword() {
        let mut asm = Assembler::new();
        asm.movi(r(1), 0x2000);
        asm.movi(r(2), 0x1234_5678_9abc_def0u64 as i64);
        asm.sd(r(2), r(1), 0);
        asm.lb(r(3), r(1), 1);
        asm.lw(r(4), r(1), 4);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.reg(r(3)), 0xde);
        assert_eq!(i.reg(r(4)), 0x1234_5678);
    }

    #[test]
    fn trace_records_loads_stores_and_next_pc() {
        let mut asm = Assembler::new();
        asm.movi(r(1), 0x100);
        asm.sw(r(1), r(1), 0);
        asm.lw(r(2), r(1), 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = Interpreter::new(&p).run(100).unwrap();
        let store = t.get(1).unwrap();
        assert_eq!(store.mem_store.unwrap().1, 0x100);
        let load = t.get(2).unwrap();
        assert_eq!(load.mem_load.unwrap().1, 0x100);
        assert_eq!(load.reg_write, Some((r(2), 0x100)));
        let halt = t.get(3).unwrap();
        assert_eq!(halt.next_pc, halt.pc);
    }

    #[test]
    fn misaligned_access_raises() {
        let mut asm = Assembler::new();
        asm.movi(r(1), 0x101);
        asm.lw(r(2), r(1), 0);
        asm.halt();
        let p = asm.assemble().unwrap();
        let err = Interpreter::new(&p).run(10).unwrap_err();
        assert!(matches!(err, ExecError::Misaligned { pc: 1, .. }));
    }

    #[test]
    fn pc_out_of_range_raises() {
        let p = Program::from_instrs(vec![Instr::Nop]);
        let err = Interpreter::new(&p).run(10).unwrap_err();
        assert_eq!(err, ExecError::PcOutOfRange { pc: 1 });
    }

    #[test]
    fn jal_jr_call_return() {
        let mut asm = Assembler::new();
        asm.jal(r(31), "fn");
        asm.movi(r(1), 1);
        asm.halt();
        asm.label("fn");
        asm.movi(r(2), 2);
        asm.jr(r(31));
        let p = asm.assemble().unwrap();
        let mut i = Interpreter::new(&p);
        i.run(100).unwrap();
        assert_eq!(i.reg(r(1)), 1);
        assert_eq!(i.reg(r(2)), 2);
    }

    #[test]
    fn run_respects_budget_without_halt() {
        let mut asm = Assembler::new();
        asm.label("spin");
        asm.jump("spin");
        let p = asm.assemble().unwrap();
        let mut i = Interpreter::new(&p);
        let t = i.run(25).unwrap();
        assert_eq!(t.len(), 25);
        assert!(!t.halted());
    }

    #[test]
    fn negative_offsets_work() {
        let mut asm = Assembler::new();
        asm.movi(r(1), 0x208);
        asm.movi(r(2), 5);
        asm.sd(r(2), r(1), -8);
        asm.ld(r(3), r(1), -8);
        asm.halt();
        let p = asm.assemble().unwrap();
        let mut i = Interpreter::new(&p);
        i.run(10).unwrap();
        assert_eq!(i.reg(r(3)), 5);
        assert_eq!(
            i.memory()
                .read(MemAccess::new(Addr(0x200), AccessSize::Double).unwrap()),
            5
        );
    }

    #[test]
    fn taken_and_not_taken_branch_next_pc() {
        let mut asm = Assembler::new();
        asm.movi(r(1), 1);
        asm.beq(r(1), Reg::ZERO, "skip"); // not taken
        asm.bne(r(1), Reg::ZERO, "skip"); // taken
        asm.nop();
        asm.label("skip");
        asm.halt();
        let p = asm.assemble().unwrap();
        let t = Interpreter::new(&p).run(100).unwrap();
        assert_eq!(t.get(1).unwrap().next_pc, 2);
        assert_eq!(t.get(2).unwrap().next_pc, 4);
    }
}
