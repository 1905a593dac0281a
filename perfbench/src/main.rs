//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload detail|window|sampled|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload through the public APIs of `aim-workloads`, `aim-isa`,
//! `aim-pipeline`, `aim-bench` and `aim-serve`, checks the outputs, and
//! prints human-readable lines followed by one JSON result line. With
//! `--trace 0` the result carries the end-to-end metrics; with `--trace 1`
//! it carries the per-layer metrics, measured from spans the benchmark
//! records around its own calls into each layer (see `perfbench/README.md`).

mod inproc;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("req_per_s", "req/s"),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end figures, measured on the traced run.
    ("ipc_err_pct", "%"),
    ("hit_ms_p50", "ms"),
    ("hit_ms_p99", "ms"),
    ("miss_ms_p50", "ms"),
    ("miss_ms_p90", "ms"),
    ("error_rate", "fraction"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    // Self time per layer, per pass.
    ("perfbench.self_s", "s"),
    ("workloads.self_s", "s"),
    ("isa.self_s", "s"),
    ("pipeline.self_s", "s"),
    ("sample.self_s", "s"),
    ("bench.self_s", "s"),
    ("serve.self_s", "s"),
    ("wire.self_s", "s"),
    // workloads
    ("workloads.build_s", "s"),
    // isa
    ("isa.interp_s", "s"),
    ("isa.interp_mips", "Minstr/s"),
    ("isa.trace_records", "count"),
    ("isa.trace_mb", "MiB"),
    // pipeline
    ("pipeline.new_ms", "ms"),
    ("pipeline.run_s", "s"),
    ("pipeline.ns_per_cycle.baseline", "ns/cycle"),
    ("pipeline.ns_per_cycle.aggressive", "ns/cycle"),
    ("pipeline.ns_per_cycle.huge", "ns/cycle"),
    ("pipeline.cycles", "count"),
    ("pipeline.retired", "count"),
    ("pipeline.fetched", "count"),
    ("pipeline.dispatched", "count"),
    ("pipeline.issued", "count"),
    ("pipeline.squashed", "count"),
    ("pipeline.replays", "count"),
    ("pipeline.flushes.branch", "count"),
    ("pipeline.flushes.memory", "count"),
    ("pipeline.stall.rob_full", "count"),
    ("pipeline.stall.lq_full", "count"),
    ("pipeline.stall.sq_full", "count"),
    ("pipeline.useful_frac", "fraction"),
    // backend
    ("backend.ns_per_cycle.nospec", "ns/cycle"),
    ("backend.ns_per_cycle.lsq", "ns/cycle"),
    ("backend.ns_per_cycle.sfc-mdt", "ns/cycle"),
    ("backend.ns_per_cycle.filtered", "ns/cycle"),
    ("backend.ns_per_cycle.pcax", "ns/cycle"),
    ("backend.ns_per_cycle.oracle", "ns/cycle"),
    ("backend.replay_frac", "fraction"),
    ("backend.forward_frac", "fraction"),
    ("core.sfc.load_lookups", "count"),
    ("core.sfc.store_conflicts", "count"),
    ("core.sfc.corrupt_rejections", "count"),
    ("core.mdt.load_checks", "count"),
    ("core.mdt.store_checks", "count"),
    ("core.mdt.conflicts", "count"),
    ("core.sfc_peak_occupancy", "count"),
    ("core.mdt_peak_occupancy", "count"),
    ("lsq.sq_searches", "count"),
    ("lsq.lq_searches", "count"),
    ("backend.pcax.coverage", "fraction"),
    ("backend.filter.skip_frac", "fraction"),
    // mem
    ("mem.l1i.accesses", "count"),
    ("mem.l1d.accesses", "count"),
    ("mem.l1d.hit_frac", "fraction"),
    ("mem.l2.hit_frac", "fraction"),
    ("mem.far.accesses", "count"),
    ("mem.far.coalesced_frac", "fraction"),
    ("mem.far.peak_inflight", "count"),
    ("mem.far.overflow", "count"),
    // predictor
    ("predictor.branch_mispredict_frac", "fraction"),
    // sample (the functional warm engine)
    ("sample.run_s", "s"),
    ("sample.warm_retired", "count"),
    ("sample.detail_retired", "count"),
    ("sample.detail_frac", "fraction"),
    ("sample.warm_mips", "Minstr/s"),
    // bench (cache key)
    ("bench.config_text_us", "us"),
    ("bench.key_hash_us", "us"),
    ("bench.program_text_bytes", "B"),
    // serve
    ("serve.key_us", "us"),
    ("serve.cache_load_us", "us"),
    ("serve.handle_us", "us"),
    ("serve.transport_us", "us"),
    ("serve.cache_store_us", "us"),
    ("serve.sim_ms", "ms"),
    ("serve.hit_frac", "fraction"),
    ("serve.dedup_waits", "count"),
    ("serve.sims_run", "count"),
    ("serve.corrupt_evictions", "count"),
    ("serve.worker_utilization", "fraction"),
    // wire
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.reply_bytes", "B"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Records one failed operation or output check.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        println!("FAILED: {what}");
    }

    /// The JSON result line for the metric list `names`.
    fn result_line(&self, names: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).copied().unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["detail", "window", "sampled", "serve"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (detail|window|sampled|serve)"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed expects an unsigned integer")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Client connections of the `serve` workload: the host's parallelism,
/// capped at 2 so the load stays the same on larger hosts.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// Where runs leave span files and scratch caches, relative to the
/// checkout the benchmark runs from.
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_0fa1_b2c3_d4e5)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The `q`-quantile of `values`, interpolated linearly between the two
/// nearest order statistics (0 for an empty set).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f`, turning a panic into an error that carries its message.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// One finished job of a closed loop.
#[derive(Debug)]
pub struct Done<T> {
    pub job: usize,
    pub secs: f64,
    pub result: Result<T, String>,
}

/// Runs `jobs` (in the given order) on `workers` threads as a closed loop:
/// each worker takes the next job when it frees. A panicking job becomes
/// an `Err`. Returns the makespan and the finished jobs sorted by job.
pub fn closed_loop<T: Send>(
    jobs: &[usize],
    workers: usize,
    run: impl Fn(usize) -> Result<T, String> + Sync,
) -> (f64, Vec<Done<T>>) {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(jobs.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let slot = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = jobs.get(slot) else { break };
                let t0 = Instant::now();
                let result = guarded(|| run(job)).and_then(|r| r);
                let secs = t0.elapsed().as_secs_f64();
                done.lock()
                    .expect("results lock: workers never panic while holding it")
                    .push(Done { job, secs, result });
            });
        }
    });
    let makespan = start.elapsed().as_secs_f64();
    let mut done = done
        .into_inner()
        .expect("results lock: workers never panic while holding it");
    done.sort_by_key(|d| d.job);
    (makespan, done)
}

/// Whether another pass of about `last` seconds still fits in the run's
/// `seconds` budget after `elapsed` seconds.
pub fn another_pass(elapsed: f64, last: f64, seconds: f64) -> bool {
    elapsed + last <= seconds
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload detail|window|sampled|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} workers {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.workload == "serve" {
            workers()
        } else {
            inproc::CELL_WORKERS
        }
    );
    let outcome = match args.workload.as_str() {
        "detail" => inproc::detail(&args, &inproc::Size::FULL),
        "window" => inproc::window(&args, &inproc::Size::FULL),
        "sampled" => inproc::sampled(&args, &inproc::Size::FULL, None),
        _ => serve::serve(&args, &serve::Size::FULL),
    };
    let mut outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let error_rate = ratio(outcome.failed as f64, outcome.attempted as f64);
    outcome.put("error_rate", error_rate);
    println!(
        "checks: {} attempted, {} failed, error_rate {error_rate}",
        outcome.attempted, outcome.failed
    );
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", outcome.result_line(names));
}

/// Asserts a run passed its checks and that its result line carries every
/// metric of `names` with a finite value.
#[cfg(test)]
pub fn assert_complete(out: &Outcome, names: &[(&str, &str)]) {
    assert_eq!(out.failed, 0, "failed checks");
    assert!(out.attempted > 0);
    let line = out.result_line(names);
    assert!(line.starts_with("{\"correct\": true, "), "{line}");
    for (name, unit) in names {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&key)
            .unwrap_or_else(|| panic!("metric {name} missing from {line}"))
            + key.len();
        let value: f64 = line[at..line[at..].find(',').unwrap() + at]
            .parse()
            .unwrap();
        assert!(
            value.is_finite() && value >= 0.0
                || ["trace.overhead_s", "serve.transport_us"].contains(name),
            "{name} = {value}"
        );
        assert!(line[at..].starts_with(&format!("{value}, \"unit\": \"{unit}\"")));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("pb --workload serve --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve", 3, 10.0, true)
        );
        assert!(parse_args(&argv("pb --workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&argv("pb --workload serve --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("pb --workload serve --seconds 10 --trace 0")).is_err());
    }

    #[test]
    fn quantiles_and_shuffles_are_deterministic() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 5.5);
        assert!((quantile(&v, 0.9) - 9.1).abs() < 1e-12);
        assert_eq!(quantile(&v, 1.0), 10.0);
        assert_eq!(quantile(&[4.0], 0.99), 4.0);
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        Rng::new(9).shuffle(&mut a);
        Rng::new(9).shuffle(&mut b);
        assert_eq!(a, b);
        assert_ne!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn closed_loop_turns_panics_into_errors() {
        let (_, done) = closed_loop(&[0, 1, 2, 3], 2, |job| {
            assert!(job != 2, "job two fails");
            Ok(job * 10)
        });
        let results: Vec<_> = done.iter().map(|d| d.result.clone()).collect();
        assert_eq!(results[0], Ok(0));
        assert_eq!(results[3], Ok(30));
        assert!(results[2].as_ref().unwrap_err().contains("job two fails"));
        assert_eq!(guarded(|| 7), Ok(7));
        assert_eq!(
            guarded(|| -> u32 { panic!("setup of {} fails", "gzip") }),
            Err("setup of gzip fails".to_string())
        );
    }

    /// The metric lists here and in `BENCHMARK.json` name the same metrics.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        for (list, key) in [(END_TO_END, "\"end_to_end\""), (PER_LAYER, "\"per_layer\"")] {
            let section = &text[text.find(key).expect("section present")..];
            let section = &section[..section.find(']').expect("section closes")];
            let named = section.matches("\"name\"").count();
            assert_eq!(
                named,
                list.len(),
                "{key} lists {named} metrics, the benchmark {}",
                list.len()
            );
            for (name, unit) in list {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(section.contains(&entry), "{key} is missing {entry}");
            }
        }
    }
}
