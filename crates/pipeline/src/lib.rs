//! The execution-driven out-of-order superscalar simulator.
//!
//! This crate reproduces the evaluation vehicle of Stone, Woley & Frank
//! (MICRO-38, 2005): "an execution-driven simulator of a 64-bit MIPS
//! pipeline ... The simulator executes all instructions, including those on
//! mispredicted paths, and the results produced by retiring instructions are
//! validated against a trace generated by an architectural simulator" (§3).
//!
//! The pipeline (paper Figure 1): fetch → decode → memory dependence
//! prediction → rename → schedule → memory unit / function units → retire,
//! with
//!
//! * gshare + 80 %-oracle branch prediction and speculative wrong-path
//!   execution,
//! * physical-register renaming with walk-back (checkpoint-equivalent)
//!   recovery,
//! * a data-driven scheduler that also tracks *dependence tags* from the
//!   producer-set predictor and implements the stall-bit replay heuristic
//!   (§2.4.3),
//! * a memory unit behind the pluggable [`aim_backend::MemBackend`] trait:
//!   the idealized LSQ, the paper's SFC + MDT (with store FIFO, head-of-ROB
//!   bypass, and full/partial SFC flush semantics), and the oracle / no-spec
//!   bounds backends,
//! * in-order retirement validated instruction-by-instruction against the
//!   golden trace from [`aim_isa::Interpreter`].
//!
//! The stage implementations live in one module per stage (`fetch`,
//! `dispatch`, `execute`, `retire`, `recover`), all extending the
//! [`Machine`] driver. [`Machine::run_with`] reports every pipeline step to
//! a typed [`Probe`] ([`EventLog`], [`Pipeview`], or `()` for none; see
//! [`probe`]). [`SimConfig::machine`] builds a configuration;
//! [`ConfigSpec`] names one by tokens — the one spelling the CLI, the job
//! server's wire, and the bench specs share.
//!
//! # Examples
//!
//! ```
//! use aim_isa::{Assembler, Reg};
//! use aim_pipeline::{simulate, BackendChoice, MachineClass, SimConfig};
//!
//! let mut asm = Assembler::new();
//! asm.movi(Reg::new(1), 100);
//! asm.movi(Reg::new(2), 0x1000);
//! asm.label("loop");
//! asm.sd(Reg::new(1), Reg::new(2), 0);
//! asm.ld(Reg::new(3), Reg::new(2), 0);
//! asm.subi(Reg::new(1), Reg::new(1), 1);
//! asm.bne(Reg::new(1), Reg::ZERO, "loop");
//! asm.halt();
//! let program = asm.assemble().unwrap();
//!
//! let cfg = SimConfig::machine(MachineClass::Baseline)
//!     .backend(BackendChoice::Lsq)
//!     .build();
//! let stats = simulate(&program, &cfg).unwrap();
//! assert!(stats.ipc() > 0.5);
//! ```

mod config;
mod dispatch;
mod execute;
mod fetch;
mod machine;
mod multi;
pub mod pipeview;
pub mod probe;
mod recover;
mod rename;
mod retire;
mod rob;
pub mod sample;
mod sched;
mod spec;
mod stats;

pub use aim_backend::{
    AimStats, BackendStats, FilterConfig, FilterSlot, FilterStats, FilteredStats, LsqStats,
    MdtStats, NoSpecStats, OracleStats, PcaxConfig, PcaxPredStats, PcaxStats, SfcStats,
    StoreFilter, TableGeometry, UnknownBackend,
};
pub use aim_mem::{FarSpec, FarStats, MemSpec};
pub use aim_types::SampleSpec;
pub use config::{
    BackendChoice, BackendConfig, MachineBuilder, MachineClass, OutputDepRecovery, SimConfig,
};
pub use machine::{Core, FinalState, Machine, SimError};
pub use multi::{run_litmus, CoreSchedule, MultiFinalState, MultiMachine, MultiStats};
pub use pipeview::{PipeRecord, Pipeview};
pub use probe::{Event, EventLog, Probe, Stage, StageTimes};
pub use rename::{PhysReg, RenameDest, Renamer};
pub use rob::{InFlight, InstrState, Rob};
pub use spec::{ConfigSpec, JobSpec};
pub use stats::{DispatchStalls, FlushCounts, HostPerf, ReplayCounts, SampledStats, SimStats};

use aim_isa::{Interpreter, Program};

/// Default architectural-trace budget when [`SimConfig::max_instrs`] is 0.
/// Sized for `Scale::Huge`-class workloads (~2M retired instructions) with a
/// wide margin.
pub const DEFAULT_INSTR_BUDGET: u64 = 20_000_000;

/// Runs `program` through the architectural interpreter to produce the
/// golden trace, then through the out-of-order machine, validating every
/// retirement.
///
/// # Errors
///
/// [`SimError::Program`] if the program faults architecturally;
/// [`SimError::Validation`] / [`SimError::Deadlock`] for simulator failures
/// (these indicate bugs and are asserted against throughout the test suite).
pub fn simulate(program: &Program, config: &SimConfig) -> Result<SimStats, SimError> {
    let budget = if config.max_instrs > 0 {
        config.max_instrs
    } else {
        DEFAULT_INSTR_BUDGET
    };
    let trace = Interpreter::new(program)
        .run(budget)
        .map_err(|e| SimError::Program(e.to_string()))?;
    Machine::new(program, &trace, config.clone()).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_isa::{Assembler, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn baseline(choice: BackendChoice) -> SimConfig {
        SimConfig::machine(MachineClass::Baseline)
            .backend(choice)
            .build()
    }

    fn loop_program(iters: i64) -> Program {
        let mut asm = Assembler::new();
        asm.movi(r(1), iters);
        asm.movi(r(2), 0x1000);
        asm.movi(r(4), 0);
        asm.label("loop");
        asm.sd(r(1), r(2), 0);
        asm.ld(r(3), r(2), 0);
        asm.add(r(4), r(4), r(3));
        asm.subi(r(1), r(1), 1);
        asm.bne(r(1), Reg::ZERO, "loop");
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn lsq_baseline_runs_and_validates() {
        let p = loop_program(200);
        let stats = simulate(&p, &baseline(BackendChoice::Lsq)).unwrap();
        assert!(stats.retired > 1000);
        assert!(stats.ipc() > 0.5, "ipc {}", stats.ipc());
        assert!(stats.backend.lsq().is_some());
        assert_eq!(stats.backend.family(), "lsq");
    }

    #[test]
    fn sfc_mdt_baseline_runs_and_validates() {
        let p = loop_program(200);
        let stats = simulate(&p, &baseline(BackendChoice::SfcMdt)).unwrap();
        assert!(stats.retired > 1000);
        assert!(stats.ipc() > 0.5, "ipc {}", stats.ipc());
        assert!(stats.backend.sfc().is_some());
        assert!(stats.backend.mdt().is_some());
        // The loop forwards stores to loads through the SFC.
        assert!(stats.loads_forwarded > 0);
    }

    #[test]
    fn pcax_baseline_runs_and_validates() {
        let p = loop_program(200);
        let stats = simulate(&p, &baseline(BackendChoice::Pcax)).unwrap();
        assert!(stats.retired > 1000);
        assert!(stats.ipc() > 0.5, "ipc {}", stats.ipc());
        let pcax = stats.backend.pcax().expect("pcax stats");
        assert!(pcax.pred.classified() > 0);
        assert!(stats.backend.sfc().is_some());
        assert_eq!(stats.backend.family(), "pcax");
    }

    #[test]
    fn oracle_baseline_runs_without_violations() {
        let p = loop_program(200);
        let stats = simulate(&p, &baseline(BackendChoice::Oracle)).unwrap();
        assert!(stats.retired > 1000);
        assert_eq!(stats.flushes.memory(), 0, "the oracle never mis-speculates");
        assert!(stats.backend.oracle().is_some());
        // The loop's store-to-load pattern forwards through the oracle.
        assert!(stats.loads_forwarded > 0);
    }

    #[test]
    fn nospec_baseline_runs_and_bounds_below() {
        let p = loop_program(200);
        let nospec = simulate(&p, &baseline(BackendChoice::NoSpec)).unwrap();
        let oracle = simulate(&p, &baseline(BackendChoice::Oracle)).unwrap();
        assert!(nospec.retired > 1000);
        assert_eq!(
            nospec.flushes.memory(),
            0,
            "serialized loads cannot violate"
        );
        assert!(nospec.backend.nospec().is_some());
        assert!(
            nospec.cycles >= oracle.cycles,
            "no-spec ({}) must not beat the oracle ({})",
            nospec.cycles,
            oracle.cycles
        );
    }

    #[test]
    fn aggressive_machines_run() {
        let p = loop_program(100);
        for cfg in [
            SimConfig::machine(MachineClass::Aggressive)
                .backend(BackendChoice::Lsq)
                .lsq(aim_lsq::LsqConfig::aggressive_120x80())
                .build(),
            SimConfig::machine(MachineClass::Aggressive).build(),
            SimConfig::machine(MachineClass::Aggressive)
                .backend(BackendChoice::Pcax)
                .build(),
            SimConfig::machine(MachineClass::Aggressive)
                .backend(BackendChoice::Oracle)
                .build(),
            SimConfig::machine(MachineClass::Aggressive)
                .backend(BackendChoice::NoSpec)
                .build(),
        ] {
            let stats = simulate(&p, &cfg).unwrap();
            assert!(stats.retired > 500);
        }
    }

    #[test]
    fn max_instrs_limits_run() {
        let p = loop_program(10_000);
        let mut cfg = baseline(BackendChoice::Lsq);
        cfg.max_instrs = 500;
        let stats = simulate(&p, &cfg).unwrap();
        assert_eq!(stats.retired, 500);
    }

    #[test]
    fn empty_program_is_ok() {
        let mut asm = Assembler::new();
        asm.halt();
        let p = asm.assemble().unwrap();
        let stats = simulate(&p, &baseline(BackendChoice::Lsq)).unwrap();
        assert_eq!(stats.retired, 1);
    }
}
