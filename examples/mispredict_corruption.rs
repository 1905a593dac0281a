//! Wrong-path stores, partial flushes, and SFC corruption.
//!
//! Reproduces the paper's §2.3 example interactively: stores executed in the
//! shadow of a mispredicted branch may overwrite surviving stores' values in
//! the SFC, so every partial pipeline flush marks all valid bytes corrupt
//! and later loads to those addresses must replay. The example contrasts a
//! perfectly-predicted run (no corruption) against a deliberately
//! hard-to-predict one (vpr_route-style), and prints the corruption ledger.
//!
//! ```text
//! cargo run --release -p aim-examples --bin mispredict_corruption
//! ```

use aim_isa::Interpreter;
use aim_pipeline::{MachineClass, Machine, SimConfig};
use aim_predictor::EnforceMode;
use aim_workloads::{by_name, Scale};

fn main() {
    let w = by_name("vpr_route", Scale::Small).expect("kernel exists");
    let trace = Interpreter::new(&w.program)
        .run(5_000_000)
        .expect("kernel runs clean");
    println!(
        "vpr_route-style frontier kernel: {} dynamic instructions",
        trace.len()
    );
    println!();
    println!(
        "{:<26} | {:>7} {:>10} {:>10} {:>10} {:>10}",
        "branch oracle", "IPC", "mispreds", "part.fl", "full.fl", "corrupt%"
    );
    println!("{}", "-".repeat(84));

    for (name, fix_probability) in [
        ("perfect (100% fix-up)", 1.0),
        ("paper's 80% fix-up", 0.8),
        ("raw gshare (0% fix-up)", 0.0),
    ] {
        let mut cfg = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
        cfg.oracle_fix_probability = fix_probability;
        let stats = Machine::new(&w.program, &trace, cfg).run().expect("validated");
        let sfc = *stats.backend.sfc().expect("SFC backend");
        println!(
            "{:<26} | {:>7.3} {:>10} {:>10} {:>10} {:>9.2}%",
            name,
            stats.ipc(),
            stats.branch_mispredicts,
            sfc.partial_flushes,
            sfc.full_flushes,
            stats.corrupt_replay_rate()
        );
    }
    println!();
    println!("more mispredicts -> more partial flushes -> more corrupt bytes -> more loads");
    println!("replayed; with perfect prediction the corruption machinery never engages.");
}
