//! Failure injection: architecturally faulting programs surface as typed
//! errors through every public entry point, never as panics or silent
//! mis-simulation.

use aim_isa::{Assembler, Interpreter, Reg};
use aim_pipeline::{BackendChoice, MachineClass, simulate, SimConfig, SimError};
use aim_predictor::EnforceMode;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// A doubleword load from an odd address faults in the interpreter and is
/// reported as a program error by the simulator, under both backends.
#[test]
fn misaligned_access_is_a_program_error() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 0x1001);
    asm.ld(r(2), r(1), 0);
    asm.halt();
    let program = asm.assemble().unwrap();

    assert!(Interpreter::new(&program).run(100).is_err());
    for cfg in [
        SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build(),
        SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build(),
    ] {
        match simulate(&program, &cfg) {
            Err(SimError::Program(msg)) => {
                assert!(msg.contains("misaligned"), "unexpected message: {msg}");
            }
            other => panic!("expected a program error, got {other:?}"),
        }
    }
}

/// A taken branch that jumps past the end of the instruction stream faults
/// architecturally.
#[test]
fn pc_out_of_range_is_a_program_error() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 0);
    asm.beq(r(1), Reg::ZERO, "skip");
    asm.halt();
    asm.label("skip");
    // `skip` labels the end of the stream: the taken branch jumps past the
    // last instruction with no halt in reach.
    let program = asm.assemble().unwrap();

    assert!(Interpreter::new(&program).run(100).is_err());
    match simulate(&program, &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build()) {
        Err(SimError::Program(_)) => {}
        other => panic!("expected a program error, got {other:?}"),
    }
}

/// An empty program (no instructions at all) is handled as a zero-length
/// run, not an error or a hang.
#[test]
fn empty_program_retires_nothing() {
    let program = Assembler::new().assemble().unwrap();
    let trace = Interpreter::new(&program).run(100);
    // Either an immediate PC fault or an empty halt-less trace is
    // acceptable architecturally; the simulator must not panic either way.
    if let Ok(t) = trace {
        assert_eq!(t.len(), 0);
    }
    let _ = simulate(&program, &SimConfig::machine(MachineClass::Baseline).backend(BackendChoice::Lsq).build());
}

/// `max_instrs` truncates a long-running program cleanly: the machine
/// retires exactly the budgeted prefix and reports success.
#[test]
fn instruction_budget_truncates_cleanly() {
    let mut asm = Assembler::new();
    asm.movi(r(1), 1_000_000);
    asm.label("spin");
    asm.subi(r(1), r(1), 1);
    asm.bne(r(1), Reg::ZERO, "spin");
    asm.halt();
    let program = asm.assemble().unwrap();

    let mut cfg = SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build();
    cfg.max_instrs = 5_000;
    let stats = simulate(&program, &cfg).expect("budgeted run validates");
    assert_eq!(stats.retired, 5_000);
}
