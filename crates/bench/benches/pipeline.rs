//! Criterion benchmarks of whole-pipeline simulation throughput.
//!
//! Measures simulated-instructions-per-second for both memory-ordering
//! backends on both machine configurations, using a representative kernel.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use aim_isa::Interpreter;
use aim_lsq::LsqConfig;
use aim_pipeline::{BackendChoice, Machine, MachineClass, SimConfig};
use aim_predictor::EnforceMode;
use aim_workloads::{by_name, Scale};

fn pipeline_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_throughput");
    group.sample_size(10);

    let configs: Vec<(&str, SimConfig)> = vec![
        (
            "baseline_lsq",
            SimConfig::machine(MachineClass::Baseline)
                .backend(BackendChoice::Lsq)
                .build(),
        ),
        (
            "baseline_sfc_mdt",
            SimConfig::machine(MachineClass::Baseline)
                .mode(EnforceMode::All)
                .build(),
        ),
        (
            "aggressive_lsq",
            SimConfig::machine(MachineClass::Aggressive)
                .backend(BackendChoice::Lsq)
                .lsq(LsqConfig::aggressive_120x80())
                .build(),
        ),
        (
            "aggressive_sfc_mdt",
            SimConfig::machine(MachineClass::Aggressive)
                .mode(EnforceMode::TotalOrder)
                .build(),
        ),
    ];

    for kernel in ["gzip", "swim"] {
        let w = by_name(kernel, Scale::Tiny).expect("known kernel");
        let trace = Interpreter::new(&w.program).run(2_000_000).expect("clean");
        group.throughput(Throughput::Elements(trace.len() as u64));
        for (name, cfg) in &configs {
            group.bench_with_input(
                BenchmarkId::new(*name, kernel),
                &(&w.program, &trace, cfg),
                |b, (program, trace, cfg)| {
                    b.iter(|| {
                        black_box(
                            Machine::new(program, trace, SimConfig::clone(cfg))
                                .run()
                                .unwrap(),
                        )
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(pipeline, pipeline_throughput);
criterion_main!(pipeline);
