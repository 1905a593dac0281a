//! MDT sizing study on an mcf-style pointer-dereference kernel.
//!
//! The paper's mcf pathology (§3.2): data structures strided at multiples of
//! the MDT size alias into a few sets and exhaust the 2 ways, replaying over
//! 16% of loads. This example sweeps the MDT's set count and associativity
//! on the `mcf` kernel and prints the conflict/IPC trade-off, reproducing
//! the associativity-16 observation interactively.
//!
//! ```text
//! cargo run --release -p aim-examples --bin pointer_chase
//! ```

use aim_isa::Interpreter;
use aim_pipeline::{MachineClass, Machine, BackendConfig, SimConfig};
use aim_predictor::EnforceMode;
use aim_workloads::{by_name, Scale};

fn main() {
    let w = by_name("mcf", Scale::Small).expect("mcf kernel exists");
    let trace = Interpreter::new(&w.program)
        .run(5_000_000)
        .expect("kernel runs clean");
    println!(
        "mcf-style kernel: {} dynamic instructions; nodes strided 8 KiB apart",
        trace.len()
    );
    println!();
    println!(
        "{:>9} {:>6} | {:>10} {:>10} {:>8}",
        "MDT sets", "ways", "entries", "ld repl %", "IPC"
    );
    println!("{}", "-".repeat(52));

    for (sets, ways) in [
        (2048usize, 2usize),
        (4096, 2),
        (8192, 2), // the paper's aggressive geometry
        (16384, 2),
        (8192, 4),
        (8192, 16), // the paper's associativity experiment
    ] {
        let mut cfg = SimConfig::machine(MachineClass::Aggressive).mode(EnforceMode::TotalOrder).build();
        if let BackendConfig::SfcMdt { mdt, .. } = &mut cfg.backend {
            mdt.sets = sets;
            mdt.ways = ways;
        }
        let stats = Machine::new(&w.program, &trace, cfg).run().expect("validated");
        println!(
            "{:>9} {:>6} | {:>10} {:>9.2}% {:>8.3}",
            sets,
            ways,
            sets * ways,
            stats.mdt_conflict_rate(),
            stats.ipc()
        );
    }
    println!();
    println!("paper: 16 ways absorb the aliasing node headers (conflicts -> ~0, IPC +6.5%)");
}
