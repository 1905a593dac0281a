//! Property tests: ISA semantics and assembler behaviour.

use aim_isa::{AluOp, Assembler, BranchCond, Instr, Interpreter, Program, Reg};
use aim_types::AccessSize;
use proptest::prelude::*;

fn alu_reference(op: AluOp, a: u64, b: u64) -> u64 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::And => a & b,
        AluOp::Or => a | b,
        AluOp::Xor => a ^ b,
        AluOp::Sll => a << (b % 64),
        AluOp::Srl => a >> (b % 64),
        AluOp::Sra => ((a as i64) >> (b % 64)) as u64,
        AluOp::Slt => ((a as i64) < (b as i64)) as u64,
        AluOp::Sltu => (a < b) as u64,
        AluOp::Mul => a.wrapping_mul(b),
    }
}

const BRANCH_CONDS: [BranchCond; 6] = [
    BranchCond::Eq,
    BranchCond::Ne,
    BranchCond::Lt,
    BranchCond::Ge,
    BranchCond::Ltu,
    BranchCond::Geu,
];

const ALU_OPS: [AluOp; 11] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Sll,
    AluOp::Srl,
    AluOp::Sra,
    AluOp::Slt,
    AluOp::Sltu,
    AluOp::Mul,
];

/// Emits one random operation of a decode-test program. `r1` holds the
/// data base and is never written: a destination of 1 becomes `r0`, so
/// writes to `r0` are common. Loads and stores of every width stay aligned
/// inside 64 bytes at the base, branches only skip forward, and calls go
/// to the `callee` routine, which returns through `r31`.
fn emit_op(asm: &mut Assembler, i: usize, (kind, a, b, imm): (u8, u8, u8, i64)) {
    let r = Reg::new;
    let rd = r(if a == 1 { 0 } else { a });
    let rs = r(b);
    let size = AccessSize::ALL[(imm as u64 % 4) as usize];
    let offset = ((imm as u64 >> 8) % (64 / size.bytes()) * size.bytes()) as i64;
    match kind {
        0 => {
            let op = ALU_OPS[(imm as u64 % 11) as usize];
            asm.emit(Instr::Alu {
                op,
                rd,
                rs1: rs,
                rs2: r(a),
            });
        }
        1 => asm.addi(rd, rs, imm),
        2 => asm.movi(rd, imm),
        3 => asm.load(rd, r(1), offset, size),
        4 => asm.store(rs, r(1), offset, size),
        5 => {
            let label = format!("skip{i}");
            asm.branch(BRANCH_CONDS[(imm as u64 % 6) as usize], rs, r(a), &label);
            asm.nop();
            asm.label(&label);
        }
        _ => asm.jal(r(31), "callee"),
    }
}

/// The trace of `program` decodes, record by record, to exactly what
/// `Interpreter::step` returned, and ends where stepping does.
fn assert_trace_decodes_steps(program: &Program) {
    let trace = Interpreter::new(program).run(100_000).unwrap();
    assert!(trace.halted());
    let mut interp = Interpreter::new(program);
    for (i, rec) in trace.records().enumerate() {
        assert_eq!(Some(rec), interp.step().unwrap(), "record {i}");
        assert_eq!(trace.get(i as u64), Some(rec), "record {i}");
    }
    assert_eq!(interp.step().unwrap(), None);
}

#[test]
fn trace_decodes_halt_narrow_stores_and_r0_writes() {
    let r = Reg::new;
    let mut asm = Assembler::new();
    asm.movi(r(1), 0x2000);
    asm.movi(r(2), 0x1234_5678_9abc_def0u64 as i64);
    asm.sb(r(2), r(1), 3);
    asm.sw(r(2), r(1), 4);
    asm.movi(Reg::ZERO, 9);
    asm.lw(Reg::ZERO, r(1), 4);
    asm.jal(Reg::ZERO, "end");
    asm.nop();
    asm.label("end");
    asm.halt();
    let program = asm.assemble().unwrap();
    assert_trace_decodes_steps(&program);

    let trace = Interpreter::new(&program).run(100).unwrap();
    let sb = trace.get(2).unwrap();
    assert_eq!(
        sb.mem_store.map(|(a, v)| (a.addr().0, v)),
        Some((0x2003, 0xf0))
    );
    let sw = trace.get(3).unwrap();
    assert_eq!(sw.mem_store.map(|(_, v)| v), Some(0x9abc_def0));
    for i in 4..=6 {
        assert_eq!(trace.get(i).unwrap().reg_write, None, "r0 write at {i}");
    }
    assert_eq!(
        trace.get(5).unwrap().mem_load.map(|(_, v)| v),
        Some(0x9abc_def0)
    );
    assert_eq!(trace.get(6).unwrap().next_pc, 8);
    let halt = trace.get(7).unwrap();
    assert_eq!((halt.instr, halt.next_pc), (Instr::Halt, halt.pc));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random programs — ALU ops, loads and stores of every width, writes
    /// to `r0`, taken and not-taken branches, calls and `Jr` returns —
    /// decode losslessly from their packed trace.
    #[test]
    fn trace_decodes_random_programs(
        ops in proptest::collection::vec((0u8..7, 0u8..8, 0u8..8, any::<i64>()), 1..40),
    ) {
        let r = Reg::new;
        let mut asm = Assembler::new();
        asm.movi(r(1), 0x2000);
        for (i, &op) in ops.iter().enumerate() {
            emit_op(&mut asm, i, op);
        }
        asm.halt();
        asm.label("callee");
        asm.addi(r(2), r(2), 1);
        asm.jr(r(31));
        assert_trace_decodes_steps(&asm.assemble().unwrap());
    }

    /// Every ALU op, executed through the interpreter, matches an
    /// independently written reference semantics.
    #[test]
    fn alu_ops_match_reference(op_idx in 0usize..11, a in any::<u64>(), b in any::<u64>()) {
        let op = ALU_OPS[op_idx];
        let r = Reg::new;
        let program = Program::from_instrs(vec![
            Instr::Alu { op, rd: r(3), rs1: r(1), rs2: r(2) },
            Instr::Halt,
        ]);
        let mut interp = Interpreter::new(&program);
        interp.set_reg(r(1), a);
        interp.set_reg(r(2), b);
        interp.run(10).unwrap();
        prop_assert_eq!(interp.reg(r(3)), alu_reference(op, a, b));
    }

    /// Store-then-load round-trips through memory for every size and offset,
    /// with correct zero-extension.
    #[test]
    fn memory_roundtrip_zero_extends(
        value in any::<u64>(),
        size_idx in 0usize..4,
        word in 0u64..8,
    ) {
        let size = AccessSize::ALL[size_idx];
        let sub_slots = 8 / size.bytes();
        for sub in 0..sub_slots {
            let offset = (word * 8 + sub * size.bytes()) as i64;
            let mut asm = Assembler::new();
            let r = Reg::new;
            asm.movi(r(1), 0x2000);
            asm.movi(r(2), value as i64);
            asm.store(r(2), r(1), offset, size);
            asm.load(r(3), r(1), offset, size);
            asm.halt();
            let program = asm.assemble().unwrap();
            let mut interp = Interpreter::new(&program);
            interp.run(10).unwrap();
            let mask = if size.bytes() == 8 { u64::MAX } else { (1 << (8 * size.bytes())) - 1 };
            prop_assert_eq!(interp.reg(r(3)), value & mask);
        }
    }

    /// Branch conditions agree with their Rust-level comparisons.
    #[test]
    fn branch_conditions_match_reference(a in any::<u64>(), b in any::<u64>()) {
        let cases: [(BranchCond, bool); 6] = [
            (BranchCond::Eq, a == b),
            (BranchCond::Ne, a != b),
            (BranchCond::Lt, (a as i64) < (b as i64)),
            (BranchCond::Ge, (a as i64) >= (b as i64)),
            (BranchCond::Ltu, a < b),
            (BranchCond::Geu, a >= b),
        ];
        for (cond, expect) in cases {
            prop_assert_eq!(cond.eval(a, b), expect, "{:?}", cond);
        }
    }

    /// Any program built of forward branches and ALU ops terminates at its
    /// Halt with a consistent trace: next_pc chains through every record.
    #[test]
    fn trace_next_pc_chains(skips in proptest::collection::vec(any::<bool>(), 1..20)) {
        let mut asm = Assembler::new();
        let r = Reg::new;
        for (i, &skip) in skips.iter().enumerate() {
            let label = format!("l{i}");
            asm.movi(r(1), skip as i64);
            asm.bne(r(1), Reg::ZERO, &label);
            asm.addi(r(2), r(2), 1);
            asm.label(&label);
        }
        asm.halt();
        let program = asm.assemble().unwrap();
        let trace = Interpreter::new(&program).run(10_000).unwrap();
        prop_assert!(trace.halted());
        let records: Vec<_> = trace.records().collect();
        for w in records.windows(2) {
            prop_assert_eq!(w[0].next_pc, w[1].pc, "trace must chain");
        }
        let skipped = skips.iter().filter(|&&s| s).count();
        let executed_adds = skips.len() - skipped;
        let interp_len = 2 * skips.len() + executed_adds + 1;
        prop_assert_eq!(trace.len(), interp_len);
    }
}
