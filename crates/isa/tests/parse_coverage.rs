//! Exhaustive coverage of the text assembler's grammar, errors, and the
//! disassembler's round-trip guarantee over every instruction form.

use aim_isa::{parse_program, program_to_asm, AluOp, Instr, Interpreter, Program, Reg};
use aim_types::{AccessSize, Addr};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

#[test]
fn every_instruction_kind_round_trips() {
    use aim_isa::BranchCond;
    let instrs = vec![
        Instr::Nop,
        Instr::MovImm { rd: r(1), imm: -42 },
        Instr::Alu {
            op: AluOp::Sltu,
            rd: r(2),
            rs1: r(3),
            rs2: r(4),
        },
        Instr::AluImm {
            op: AluOp::Sra,
            rd: r(5),
            rs1: r(6),
            imm: 7,
        },
        Instr::Load {
            rd: r(7),
            base: r(8),
            offset: -8,
            size: AccessSize::Byte,
        },
        Instr::Store {
            rs: r(9),
            base: r(10),
            offset: 16,
            size: AccessSize::Half,
        },
        Instr::Branch {
            cond: BranchCond::Geu,
            rs1: r(11),
            rs2: r(12),
            target: 8,
        },
        Instr::Jump { target: 8 },
        Instr::Jal {
            rd: r(31),
            target: 8,
        },
        Instr::Jr { rs: r(31) },
        Instr::Halt,
    ];
    let mut program = Program::from_instrs(instrs);
    program.add_data(Addr(0x9000), vec![1, 0, 0, 0, 0, 0, 0, 0]);
    let text = program_to_asm(&program);
    let reparsed = parse_program(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
    assert_eq!(program.instrs(), reparsed.instrs());
    assert_eq!(program.data(), reparsed.data());
}

#[test]
fn every_branch_mnemonic_round_trips() {
    let src = "\
t:      beq  r1, r2, t
        bne  r1, r2, t
        blt  r1, r2, t
        bge  r1, r2, t
        bltu r1, r2, t
        bgeu r1, r2, t
        halt
";
    let p = parse_program(src).unwrap();
    let q = parse_program(&program_to_asm(&p)).unwrap();
    assert_eq!(p.instrs(), q.instrs());
}

#[test]
fn all_load_store_sizes_parse() {
    let src = "\
ld1 r1, (r2)
ld2 r1, (r2)
ld4 r1, (r2)
ld8 r1, (r2)
st1 r1, (r2)
st2 r1, (r2)
st4 r1, (r2)
st8 r1, (r2)
halt
";
    let p = parse_program(src).unwrap();
    assert_eq!(p.len(), 9);
    for (i, size) in AccessSize::ALL.iter().enumerate() {
        match p.instrs()[i] {
            Instr::Load { size: s, .. } => assert_eq!(s, *size),
            ref other => panic!("expected a load, got {other}"),
        }
    }
}

#[test]
fn parse_error_catalogue() {
    let cases: &[(&str, &str)] = &[
        ("movi r32, 1\n", "register"),
        ("movi r1, banana\n", "integer"),
        ("ld8 r1, r2\n", "offset(base)"),
        ("ld8 r1, 8(r2\n", "missing `)`"),
        ("ld3 r1, (r2)\n", "unknown mnemonic"),
        (".data 0x10 1 2\n", ".data wants"),
        ("x y: nop\n", "bad label"),
        ("add r1, r2\n", "3 operands"),
        ("jr\n", "1 operands"),
    ];
    for (src, needle) in cases {
        let e = parse_program(src).unwrap_err();
        assert!(
            e.message.contains(needle),
            "source {src:?}: expected {needle:?} in {:?}",
            e.message
        );
    }
}

#[test]
fn multiple_labels_on_one_line() {
    let p = parse_program("a: b: nop\n j a\n j b\n halt\n").unwrap();
    assert_eq!(p.instrs()[1], Instr::Jump { target: 0 });
    assert_eq!(p.instrs()[2], Instr::Jump { target: 0 });
}

#[test]
fn parsed_program_executes_like_builder_program() {
    // The same algorithm via both front ends must produce identical traces.
    let src = "\
        movi r1, 20
        movi r2, 0x8000
loop:   st8  r1, 0(r2)
        ld8  r3, 0(r2)
        add  r4, r4, r3
        addi r2, r2, 8
        subi r1, r1, 1
        bne  r1, r0, loop
        halt
";
    let parsed = parse_program(src).unwrap();

    let mut asm = aim_isa::Assembler::new();
    asm.movi(r(1), 20);
    asm.movi(r(2), 0x8000);
    asm.label("loop");
    asm.sd(r(1), r(2), 0);
    asm.ld(r(3), r(2), 0);
    asm.add(r(4), r(4), r(3));
    asm.addi(r(2), r(2), 8);
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "loop");
    asm.halt();
    let built = asm.assemble().unwrap();

    assert_eq!(parsed.instrs(), built.instrs());
    let ta = Interpreter::new(&parsed).run(10_000).unwrap();
    let tb = Interpreter::new(&built).run(10_000).unwrap();
    assert!(ta.records().eq(tb.records()));
}
