//! The in-process workloads: `detail`, `window` and `sampled`.
//!
//! Each runs its cells as a closed loop on [`CELL_WORKERS`] thread, in an order
//! drawn from the seed, in passes over the whole cell list until the next
//! pass would overrun `--seconds`. A cell is one (kernel, config) job as a
//! user submits it.

use crate::trace::{self, Span, Tracer};
use crate::{
    another_pass, closed_loop, guarded, median, peak_rss_mb, quantile, ratio, Args, Done, Outcome,
    Rng,
};
use aim_bench::{fingerprint_stats, Prepared};
use aim_pipeline::{Machine, SampleSpec, SimConfig, SimStats};
use aim_workloads::Scale;
use std::collections::BTreeMap;
use std::time::Instant;

/// How big a run's inputs are.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Scale of the `detail` and `window` kernels.
    pub scale: Scale,
    /// Scale of the `sampled` kernels.
    pub sampled_scale: Scale,
    /// How many kernels of the registry, in registry order.
    pub kernels: usize,
    /// Largest allowed |sampled − full-detail IPC| in percent. The
    /// `table_sampled` gate asserts its 10% convergence tolerance at
    /// `Scale::Huge` only, so smaller scales check no tolerance.
    pub tolerance_pct: Option<f64>,
}

impl Size {
    pub const FULL: Size = Size {
        scale: Scale::Full,
        sampled_scale: Scale::Huge,
        kernels: usize::MAX,
        tolerance_pct: Some(10.0),
    };
}

/// Times the setup is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Worker threads of the in-process closed loops. One: on a host of a few
/// shared cores, a second worker makes a cell's time depend on which cell
/// runs beside it (the two share caches, memory bandwidth and the
/// allocator), and a pass's makespan on the order the seed draws.
pub const CELL_WORKERS: usize = 1;

/// Committed full-detail IPC per kernel for the `sampled` workload.
const SAMPLED_REFERENCE: &str = "BENCH_sampled.json";

fn kernel_names(size: &Size) -> Vec<&'static str> {
    aim_workloads::names()
        .into_iter()
        .take(size.kernels)
        .collect()
}

/// The six bracket backends on the huge machine behind the 800-cycle far
/// tier: the `huge-far800-*` rows of `table_far_mem`.
fn huge_far800() -> Vec<(String, aim_serve::ConfigSpec)> {
    aim_serve::farmem_configs()
        .into_iter()
        .filter(|(name, _)| name.starts_with("huge-far800-"))
        .collect()
}

fn machine_class(config_name: &str) -> &'static str {
    match config_name.split('-').next() {
        Some("base") => "baseline",
        Some("aggr") => "aggressive",
        _ => "huge",
    }
}

fn backend_label(stats: &SimStats) -> &'static str {
    match stats.backend.family() {
        "aim" => "sfc-mdt",
        other => other,
    }
}

fn build(
    tracer: &Tracer,
    name: &str,
    scale: Scale,
    id: u64,
) -> Result<aim_workloads::Workload, String> {
    tracer
        .span("workloads.by_name", id, || {
            aim_workloads::by_name(name, scale)
        })
        .ok_or_else(|| format!("no kernel named `{name}`"))
}

/// Builds and interprets one kernel. `aim_bench::prepare` panics when the
/// interpreter fails or the trace does not halt; that comes back as an
/// error.
fn prepare(tracer: &Tracer, name: &str, scale: Scale, id: u64) -> Result<Prepared, String> {
    let workload = build(tracer, name, scale, id)?;
    guarded(|| tracer.span("isa.interp", id, || aim_bench::prepare(workload, scale)))
        .map_err(|e| format!("{name}: golden trace failed: {e}"))
}

/// One pass over every cell.
struct Pass<T> {
    traced: bool,
    makespan: f64,
    done: Vec<Done<T>>,
}

/// Runs passes of `n` cells until the time budget is spent. A traced run
/// alternates untraced and traced passes, starting untraced, so the two
/// can be compared for the tracing overhead.
fn run_passes<T: Send>(
    args: &Args,
    n: usize,
    traced: &Tracer,
    run: impl Fn(&Tracer, usize) -> Result<T, String> + Sync,
) -> Vec<Pass<T>> {
    let untraced = Tracer::new(false);
    let mut rng = Rng::new(args.seed);
    let min_passes = if args.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut passes: Vec<Pass<T>> = Vec::new();
    loop {
        let is_traced = args.trace && passes.len() % 2 == 1;
        let tracer = if is_traced { traced } else { &untraced };
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let (makespan, done) = closed_loop(&order, CELL_WORKERS, |cell| run(tracer, cell));
        println!(
            "pass {}: {n} cells in {makespan:.3} s{}",
            passes.len(),
            if is_traced { " (traced)" } else { "" }
        );
        passes.push(Pass {
            traced: is_traced,
            makespan,
            done,
        });
        if passes.len() >= min_passes
            && !another_pass(start.elapsed().as_secs_f64(), makespan, args.seconds)
        {
            return passes;
        }
    }
}

/// Counts the failed cells of every pass and checks that every pass
/// simulated the same statistics. Returns the fingerprint of the first
/// pass (cells in fixed order).
fn check_passes(
    out: &mut Outcome,
    passes: &[Pass<(SimStats, u64)>],
    label: impl Fn(usize) -> String,
) -> u64 {
    let mut first = None;
    for (i, pass) in passes.iter().enumerate() {
        out.attempted += pass.done.len() as u64;
        let mut ok = Vec::with_capacity(pass.done.len());
        for d in &pass.done {
            match &d.result {
                Ok((stats, _)) => ok.push(stats),
                Err(e) => out.fail(&format!("pass {i} cell {}: {e}", label(d.job))),
            }
        }
        let fp = fingerprint_stats(ok);
        match first {
            None => first = Some(fp),
            Some(f) if f != fp => out.fail(&format!(
                "pass {i} fingerprint {fp:#018x} differs from pass 0 {f:#018x}"
            )),
            Some(_) => {}
        }
    }
    first.unwrap_or(0)
}

/// The end-to-end metrics of the untraced passes.
fn put_end_to_end(out: &mut Outcome, setup_secs: &[f64], passes: &[Pass<(SimStats, u64)>]) {
    let untraced: Vec<&Pass<_>> = passes.iter().filter(|p| !p.traced).collect();
    let cells: Vec<&Done<_>> = untraced.iter().flat_map(|p| &p.done).collect();
    let retired: u64 = cells
        .iter()
        .filter_map(|d| d.result.as_ref().ok())
        .map(|(s, _)| s.retired)
        .sum();
    let busy: f64 = cells.iter().map(|d| d.secs).sum();
    // A cell's host time is its mean over the untraced passes, so a cell
    // counts once in the quantiles however many passes the run made.
    let mut per_cell: BTreeMap<usize, (f64, f64)> = BTreeMap::new();
    for d in &cells {
        let e = per_cell.entry(d.job).or_default();
        e.0 += d.secs;
        e.1 += 1.0;
    }
    let cell_ms: Vec<f64> = per_cell.values().map(|(s, n)| s / n * 1e3).collect();
    let makespans: Vec<f64> = untraced.iter().map(|p| p.makespan).collect();
    let rates: Vec<f64> = untraced
        .iter()
        .map(|p| p.done.len() as f64 / p.makespan)
        .collect();
    out.put("setup_s", median(setup_secs));
    out.put("wall_s", median(&makespans));
    out.put("sim_mips", ratio(retired as f64, busy) / 1e6);
    out.put("cell_ms_p50", quantile(&cell_ms, 0.5));
    out.put("cell_ms_p90", quantile(&cell_ms, 0.9));
    out.put("peak_rss_mb", peak_rss_mb());
    out.put("req_per_s", median(&rates));
    println!(
        "cells: {} untraced in {} pass(es), {} distinct; cell_ms p50 {:.3} p90 {:.3}",
        cells.len(),
        untraced.len(),
        cell_ms.len(),
        quantile(&cell_ms, 0.5),
        quantile(&cell_ms, 0.9)
    );
}

/// Per-layer counts from the last traced pass; returns that pass.
fn put_counts_of_last_traced<'a, T>(
    out: &mut Outcome,
    passes: &'a [Pass<(SimStats, T)>],
) -> &'a Pass<(SimStats, T)> {
    let last = passes
        .iter()
        .rev()
        .find(|p| p.traced)
        .expect("a traced run has a traced pass");
    let ok: Vec<&SimStats> = last
        .done
        .iter()
        .filter_map(|d| d.result.as_ref().ok())
        .map(|r| &r.0)
        .collect();
    put_counts(out, &ok);
    last
}

/// Per-layer counts from the statistics one pass returned.
fn put_counts(out: &mut Outcome, stats: &[&SimStats]) {
    let sum = |f: &dyn Fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&SimStats) -> u64| stats.iter().map(|s| f(s)).max().unwrap_or(0) as f64;
    out.put("pipeline.cycles", sum(&|s| s.cycles));
    out.put("pipeline.retired", sum(&|s| s.retired));
    out.put("pipeline.fetched", sum(&|s| s.fetched));
    out.put("pipeline.dispatched", sum(&|s| s.dispatched));
    out.put("pipeline.issued", sum(&|s| s.issued));
    out.put("pipeline.squashed", sum(&|s| s.squashed));
    out.put("pipeline.replays", sum(&|s| s.replays.total()));
    out.put("pipeline.flushes.branch", sum(&|s| s.flushes.branch));
    out.put("pipeline.flushes.memory", sum(&|s| s.flushes.memory()));
    out.put(
        "pipeline.stall.rob_full",
        sum(&|s| s.dispatch_stalls.rob_full),
    );
    out.put(
        "pipeline.stall.lq_full",
        sum(&|s| s.dispatch_stalls.lq_full),
    );
    out.put(
        "pipeline.stall.sq_full",
        sum(&|s| s.dispatch_stalls.sq_full),
    );
    out.put(
        "pipeline.useful_frac",
        ratio(sum(&|s| s.retired), sum(&|s| s.dispatched)),
    );

    let load_execs = sum(&|s| s.load_executions);
    out.put(
        "backend.replay_frac",
        ratio(sum(&|s| s.replays.total()), load_execs),
    );
    out.put(
        "backend.forward_frac",
        ratio(sum(&|s| s.loads_forwarded), load_execs),
    );
    let sfc = |f: fn(&aim_pipeline::SfcStats) -> u64| sum(&|s| s.backend.sfc().map_or(0, f));
    let mdt = |f: fn(&aim_pipeline::MdtStats) -> u64| sum(&|s| s.backend.mdt().map_or(0, f));
    out.put("core.sfc.load_lookups", sfc(|x| x.load_lookups));
    out.put("core.sfc.store_conflicts", sfc(|x| x.store_conflicts));
    out.put("core.sfc.corrupt_rejections", sfc(|x| x.corrupt_rejections));
    out.put("core.mdt.load_checks", mdt(|x| x.load_checks));
    out.put("core.mdt.store_checks", mdt(|x| x.store_checks));
    out.put("core.mdt.conflicts", mdt(|x| x.conflicts));
    let aim = |s: &SimStats| {
        s.backend
            .aim()
            .or_else(|| s.backend.pcax().map(|p| &p.aim))
            .copied()
    };
    out.put(
        "core.sfc_peak_occupancy",
        max(&|s| aim(s).map_or(0, |a| a.sfc_peak_occupancy as u64)),
    );
    out.put(
        "core.mdt_peak_occupancy",
        max(&|s| aim(s).map_or(0, |a| a.mdt_peak_occupancy as u64)),
    );
    let lsq = |s: &SimStats| {
        s.backend
            .lsq()
            .or_else(|| s.backend.filtered().map(|f| &f.lsq))
            .copied()
    };
    out.put(
        "lsq.sq_searches",
        sum(&|s| lsq(s).map_or(0, |l| l.sq_searches)),
    );
    out.put(
        "lsq.lq_searches",
        sum(&|s| lsq(s).map_or(0, |l| l.lq_searches)),
    );
    let pcax = |f: fn(&aim_pipeline::PcaxPredStats) -> u64| {
        sum(&|s| s.backend.pcax().map_or(0, |p| f(&p.pred)))
    };
    out.put(
        "backend.pcax.coverage",
        ratio(
            pcax(|p| p.loads_no_alias + p.loads_forward),
            pcax(|p| p.classified()),
        ),
    );
    let filter = |f: fn(&aim_pipeline::FilterStats) -> u64| {
        sum(&|s| s.backend.filtered().map_or(0, |x| f(&x.filter)))
    };
    out.put(
        "backend.filter.skip_frac",
        ratio(
            filter(|f| f.filtered_loads),
            filter(|f| f.filtered_loads + f.searched_loads),
        ),
    );

    out.put("mem.l1i.accesses", sum(&|s| s.caches.0.accesses()));
    out.put("mem.l1d.accesses", sum(&|s| s.caches.1.accesses()));
    out.put(
        "mem.l1d.hit_frac",
        ratio(sum(&|s| s.caches.1.hits), sum(&|s| s.caches.1.accesses())),
    );
    out.put(
        "mem.l2.hit_frac",
        ratio(sum(&|s| s.caches.2.hits), sum(&|s| s.caches.2.accesses())),
    );
    let far = |f: fn(&aim_pipeline::FarStats) -> u64| sum(&|s| s.far.as_ref().map_or(0, f));
    out.put("mem.far.accesses", far(|f| f.accesses));
    out.put(
        "mem.far.coalesced_frac",
        ratio(far(|f| f.coalesced), far(|f| f.accesses)),
    );
    out.put(
        "mem.far.peak_inflight",
        max(&|s| s.far.map_or(0, |f| f.peak_inflight as u64)),
    );
    out.put("mem.far.overflow", far(|f| f.overflow));
    out.put(
        "predictor.branch_mispredict_frac",
        ratio(sum(&|s| s.branch_mispredicts), sum(&|s| s.branches_retired)),
    );

    let sampled =
        |f: fn(&aim_pipeline::SampledStats) -> u64| sum(&|s| s.sampled.as_ref().map_or(0, f));
    out.put("sample.warm_retired", sampled(|x| x.warm_retired));
    out.put("sample.detail_retired", sampled(|x| x.detail_retired));
    out.put(
        "sample.detail_frac",
        ratio(
            sampled(|x| x.detail_retired),
            sampled(|x| x.warm_retired + x.detail_retired),
        ),
    );
}

/// Per-layer timings from the spans of the setup (`setup_spans`, over
/// `setup_reps` repetitions, which interpreted `setup_records` trace
/// records each) and of the traced passes. `cell_info` gives a cell's
/// simulated cycles, machine class and backend label.
fn put_timings(
    out: &mut Outcome,
    setup_spans: &[Span],
    setup_reps: usize,
    setup_records: u64,
    passes: &[Pass<(SimStats, u64)>],
    pass_spans: &[Span],
    cell_info: impl Fn(usize) -> Option<(u64, &'static str, &'static str)>,
) {
    let traced: Vec<&Pass<_>> = passes.iter().filter(|p| p.traced).collect();
    let n_traced = traced.len().max(1) as f64;
    let reps = setup_reps.max(1) as f64;
    let setup = trace::total_by_name(setup_spans);
    let cells = trace::total_by_name(pass_spans);
    let secs = |by: &BTreeMap<&str, (u64, f64)>, name: &str| by.get(name).map_or(0.0, |e| e.1);
    let calls =
        |by: &BTreeMap<&str, (u64, f64)>, name: &str| by.get(name).map_or(0, |e| e.0) as f64;

    out.put(
        "workloads.build_s",
        secs(&setup, "workloads.by_name") / reps,
    );
    // The kernels are interpreted in the setup (`detail`, `window`) or in
    // the cells (`sampled`), never both.
    let (interp_s, records) = if calls(&cells, "isa.interp") > 0.0 {
        let records: u64 = traced
            .iter()
            .flat_map(|p| &p.done)
            .filter_map(|d| d.result.as_ref().ok())
            .map(|r| r.1)
            .sum();
        (
            secs(&cells, "isa.interp") / n_traced,
            records as f64 / n_traced,
        )
    } else {
        (secs(&setup, "isa.interp") / reps, setup_records as f64)
    };
    out.put("isa.interp_s", interp_s);
    out.put("isa.trace_records", records);
    out.put("isa.interp_mips", ratio(records, interp_s) / 1e6);
    out.put(
        "isa.trace_mb",
        records * std::mem::size_of::<aim_isa::TraceRecord>() as f64 / (1u64 << 20) as f64,
    );
    out.put(
        "pipeline.new_ms",
        ratio(secs(&cells, "pipeline.new"), calls(&cells, "pipeline.new")) * 1e3,
    );
    out.put("pipeline.run_s", secs(&cells, "pipeline.run") / n_traced);
    out.put("sample.run_s", secs(&cells, "sample.run") / n_traced);

    let mut by_class: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    let mut by_backend: BTreeMap<&str, (f64, u64)> = BTreeMap::new();
    for s in pass_spans.iter().filter(|s| s.name == "pipeline.run") {
        if let Some((cycles, class, backend)) = cell_info(s.cell as usize) {
            for (map, key) in [(&mut by_class, class), (&mut by_backend, backend)] {
                let e = map.entry(key).or_default();
                e.0 += s.secs();
                e.1 += cycles;
            }
        }
    }
    let ns_per_cycle = |map: &BTreeMap<&str, (f64, u64)>, key: &str| {
        map.get(key).map_or(0.0, |e| ratio(e.0 * 1e9, e.1 as f64))
    };
    for (class, name) in [
        ("baseline", "pipeline.ns_per_cycle.baseline"),
        ("aggressive", "pipeline.ns_per_cycle.aggressive"),
        ("huge", "pipeline.ns_per_cycle.huge"),
    ] {
        out.put(name, ns_per_cycle(&by_class, class));
    }
    for (backend, name) in [
        ("nospec", "backend.ns_per_cycle.nospec"),
        ("lsq", "backend.ns_per_cycle.lsq"),
        ("sfc-mdt", "backend.ns_per_cycle.sfc-mdt"),
        ("filtered", "backend.ns_per_cycle.filtered"),
        ("pcax", "backend.ns_per_cycle.pcax"),
        ("oracle", "backend.ns_per_cycle.oracle"),
    ] {
        out.put(name, ns_per_cycle(&by_backend, backend));
    }

    put_self_times(out, setup_spans, reps, pass_spans, n_traced);
    let untraced: Vec<f64> = passes
        .iter()
        .filter(|p| !p.traced)
        .map(|p| p.makespan)
        .collect();
    let traced_walls: Vec<f64> = traced.iter().map(|p| p.makespan).collect();
    out.put(
        "trace.overhead_s",
        median(&traced_walls) - median(&untraced),
    );
    out.put("trace.spans", (setup_spans.len() + pass_spans.len()) as f64);
}

/// Self time per layer for one setup plus one measured pass (or `serve`
/// round).
pub fn put_self_times(
    out: &mut Outcome,
    setup_spans: &[Span],
    setup_reps: f64,
    spans: &[Span],
    reps: f64,
) {
    let setup = trace::self_time_by_layer(setup_spans);
    let measured = trace::self_time_by_layer(spans);
    for (layer, name) in [
        ("perfbench", "perfbench.self_s"),
        ("workloads", "workloads.self_s"),
        ("isa", "isa.self_s"),
        ("pipeline", "pipeline.self_s"),
        ("sample", "sample.self_s"),
        ("bench", "bench.self_s"),
        ("serve", "serve.self_s"),
        ("wire", "wire.self_s"),
    ] {
        let s = setup.get(layer).copied().unwrap_or(0.0) / setup_reps.max(1.0)
            + measured.get(layer).copied().unwrap_or(0.0) / reps.max(1.0);
        out.put(name, s);
    }
}

/// A matrix of prepared kernels × configs, each cell one full-detail run.
/// A kernel whose golden trace fails in the setup fails each of its cells.
fn matrix(args: &Args, size: &Size, configs: &[(String, SimConfig)]) -> Result<Outcome, String> {
    let names = kernel_names(size);
    let setup_tracer = Tracer::new(args.trace);
    let mut setup_secs = Vec::new();
    let mut prepared: Vec<Result<Prepared, String>> = Vec::new();
    for _ in 0..SETUP_REPS {
        // Free the previous repetition's traces first, so the peak memory
        // holds one set.
        prepared.clear();
        let t0 = Instant::now();
        prepared = names
            .iter()
            .enumerate()
            .map(|(k, name)| prepare(&setup_tracer, name, size.scale, k as u64))
            .collect();
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    let n_conf = configs.len();
    let n = names.len() * n_conf;
    let label = |cell: usize| format!("{}/{}", names[cell / n_conf], configs[cell % n_conf].0);
    println!(
        "setup: {} kernels at {:?}, {} configs, {n} cells",
        names.len(),
        size.scale,
        n_conf
    );

    let pass_tracer = Tracer::new(true);
    let passes = run_passes(args, n, &pass_tracer, |tracer, cell| {
        let p = prepared[cell / n_conf].as_ref().map_err(String::clone)?;
        let (name, cfg) = &configs[cell % n_conf];
        let id = cell as u64;
        tracer.span("perfbench.cell", id, || {
            let machine = tracer.span("pipeline.new", id, || {
                Machine::new(&p.program, &p.trace, cfg.clone())
            });
            let stats = tracer
                .span("pipeline.run", id, || machine.run())
                .map_err(|e| format!("{}: {e}", label(cell)))?;
            if stats.retired != p.trace.len() as u64 {
                return Err(format!(
                    "{}/{name}: retired {} of {} traced instructions",
                    p.name,
                    stats.retired,
                    p.trace.len()
                ));
            }
            Ok((stats, p.trace.len() as u64))
        })
    });

    let mut out = Outcome::default();
    let fp = check_passes(&mut out, &passes, label);
    println!("fingerprint: {fp:#018x} over {n} cells (kernel-major, config order)");
    println!(
        "ipc: kernel {}",
        configs
            .iter()
            .map(|(c, _)| c.as_str())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let first = &passes[0].done;
    for (k, name) in names.iter().enumerate() {
        let ipcs: Vec<String> = (0..n_conf)
            .map(|c| {
                first[k * n_conf + c]
                    .result
                    .as_ref()
                    .map_or("failed".to_string(), |(s, _)| format!("{:.4}", s.ipc()))
            })
            .collect();
        println!("ipc: {name} {}", ipcs.join(" "));
    }
    put_end_to_end(&mut out, &setup_secs, &passes);

    if args.trace {
        let records: u64 = prepared
            .iter()
            .flatten()
            .map(|p| p.trace.len() as u64)
            .sum();
        let last = put_counts_of_last_traced(&mut out, &passes);
        let cell_info = |cell: usize| {
            let d = last.done.get(cell)?;
            let (stats, _) = d.result.as_ref().ok()?;
            Some((
                stats.cycles,
                machine_class(&configs[cell % n_conf].0),
                backend_label(stats),
            ))
        };
        put_timings(
            &mut out,
            &setup_tracer.spans(),
            SETUP_REPS,
            records,
            &passes,
            &pass_tracer.spans(),
            cell_info,
        );
        trace::write_all(args, &[&setup_tracer, &pass_tracer]);
    }
    Ok(out)
}

/// `detail`: the 12 `table_hostperf` configs × every kernel at full scale.
pub fn detail(args: &Args, size: &Size) -> Result<Outcome, String> {
    matrix(args, size, &aim_bench::specs::table_hostperf().configs)
}

/// `window`: the six bracket backends on the huge machine behind the
/// 800-cycle far tier × every kernel at full scale.
pub fn window(args: &Args, size: &Size) -> Result<Outcome, String> {
    let configs: Vec<(String, SimConfig)> = huge_far800()
        .into_iter()
        .map(|(n, spec)| (n, spec.to_config()))
        .collect();
    matrix(args, size, &configs)
}

/// Reads each kernel's committed full-detail IPC from the `table_sampled`
/// report (one row per line).
fn committed_reference(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let field = |line: &str, key: &str| -> Option<String> {
        let rest = &line[line.find(&format!("\"{key}\": "))? + key.len() + 4..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim().trim_matches('"').to_string())
    };
    let reference: BTreeMap<String, f64> = text
        .lines()
        .filter_map(|l| Some((field(l, "workload")?, field(l, "full_ipc")?.parse().ok()?)))
        .collect();
    if reference.is_empty() {
        return Err(format!("{path}: no rows with a full_ipc"));
    }
    Ok(reference)
}

/// `sampled`: every kernel at huge scale on huge/far-800/SFC-MDT under the
/// tuned sampling policy. A cell builds the kernel, interprets its golden
/// trace and runs the sampled machine, as `aim-sim run --sample` does.
/// Accuracy is checked against the full-detail IPC in `reference` (the
/// committed `BENCH_sampled.json` when `None`).
pub fn sampled(
    args: &Args,
    size: &Size,
    reference: Option<BTreeMap<String, f64>>,
) -> Result<Outcome, String> {
    // The setup only builds the kernels (well under a millisecond), so it
    // repeats more often for a steady median.
    const SETUP_REPS_SAMPLED: usize = 200;
    let names = kernel_names(size);
    let scale = size.sampled_scale;
    let (_, full_spec) = huge_far800()
        .into_iter()
        .find(|(name, _)| name == "huge-far800-sfc-mdt")
        .ok_or("table_far_mem has no huge-far800-sfc-mdt cell")?;
    let reference_ipc = match reference {
        Some(r) => r,
        None => committed_reference(SAMPLED_REFERENCE)?,
    };
    let setup_tracer = Tracer::new(args.trace);
    let mut setup_secs = Vec::new();
    for _ in 0..SETUP_REPS_SAMPLED {
        let t0 = Instant::now();
        for (k, name) in names.iter().enumerate() {
            build(&setup_tracer, name, scale, k as u64)?;
        }
        setup_secs.push(t0.elapsed().as_secs_f64());
    }
    println!(
        "setup: {} kernels at {scale:?}, reference IPC for {}",
        names.len(),
        reference_ipc.len()
    );

    let pass_tracer = Tracer::new(true);
    let passes = run_passes(args, names.len(), &pass_tracer, |tracer, cell| {
        let id = cell as u64;
        tracer.span("perfbench.cell", id, || {
            let p = prepare(tracer, names[cell], scale, id)?;
            let len = p.trace.len() as u64;
            let spec = aim_serve::ConfigSpec {
                sample: Some(aim_serve::sampled_policy(len)),
                ..full_spec
            };
            let machine = tracer.span("pipeline.new", id, || {
                Machine::new(&p.program, &p.trace, spec.to_config())
            });
            let stats = tracer
                .span("sample.run", id, || machine.run())
                .map_err(|e| format!("{}: {e}", p.name))?;
            if stats.sampled.is_none() || stats.retired != len {
                return Err(format!(
                    "{}: sampled run retired {} of {len} traced instructions",
                    p.name, stats.retired
                ));
            }
            Ok((stats, len))
        })
    });

    let mut out = Outcome::default();
    let fp = check_passes(&mut out, &passes, |cell| names[cell].to_string());
    println!(
        "fingerprint: {fp:#018x} over {} cells (registry order)",
        names.len()
    );
    let mut worst = 0.0f64;
    for (cell, name) in names.iter().enumerate() {
        let Ok((stats, _)) = &passes[0].done[cell].result else {
            continue;
        };
        let Some(&full) = reference_ipc.get(*name) else {
            out.fail(&format!("{name}: no reference IPC"));
            continue;
        };
        let err = 100.0 * (stats.ipc() - full) / full;
        println!(
            "ipc: {name} sampled {:.6} full {full:.6} err {err:+.3}%",
            stats.ipc()
        );
        if size.tolerance_pct.is_some_and(|tol| err.abs() > tol) {
            out.fail(&format!(
                "{name}: sampled IPC off by {err:+.3}%, beyond the tolerance"
            ));
        }
        worst = worst.max(err.abs());
    }
    println!(
        "ipc_err_pct: {worst:.6} (worst over {} kernels)",
        names.len()
    );
    put_end_to_end(&mut out, &setup_secs, &passes);

    if args.trace {
        put_counts_of_last_traced(&mut out, &passes);
        put_timings(
            &mut out,
            &setup_tracer.spans(),
            SETUP_REPS_SAMPLED,
            0,
            &passes,
            &pass_tracer.spans(),
            |_| None,
        );
        let warm_mips = warm_engine_mips(&mut out, &names, scale, full_spec, args.seed);
        out.put("sample.warm_mips", warm_mips);
        out.put("ipc_err_pct", worst);
        trace::write_all(args, &[&setup_tracer, &pass_tracer]);
    }
    Ok(out)
}

/// The functional warm engine's throughput: one extra sampled run per
/// kernel whose policy leaves at least 99% of the instructions to the
/// warm engine (a single short detail window, then warm to the end).
fn warm_engine_mips(
    out: &mut Outcome,
    names: &[&str],
    scale: Scale,
    base: aim_serve::ConfigSpec,
    seed: u64,
) -> f64 {
    let off = Tracer::new(false);
    let mut order: Vec<usize> = (0..names.len()).collect();
    Rng::new(seed ^ 0x3a3a).shuffle(&mut order);
    let (_, done) = closed_loop(&order, CELL_WORKERS, |cell| {
        let p = prepare(&off, names[cell], scale, cell as u64)?;
        let len = p.trace.len() as u64;
        let spec = SampleSpec::new(len, (len / 200).max(4), 1).ok_or("empty trace")?;
        let machine = Machine::new(
            &p.program,
            &p.trace,
            aim_serve::ConfigSpec {
                sample: Some(spec),
                ..base
            }
            .to_config(),
        );
        let t0 = Instant::now();
        let stats = machine.run().map_err(|e| format!("{}: {e}", p.name))?;
        let secs = t0.elapsed().as_secs_f64();
        Ok((stats.sampled.map_or(0, |s| s.warm_retired), secs))
    });
    let (mut retired, mut secs) = (0u64, 0.0f64);
    for d in done {
        match d.result {
            Ok((r, s)) => {
                retired += r;
                secs += s;
            }
            Err(e) => out.fail(&format!("warm-engine run {}: {e}", names[d.job])),
        }
        out.attempted += 1;
    }
    ratio(retired as f64, secs) / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{assert_complete, END_TO_END, PER_LAYER};

    const SMOKE: Size = Size {
        scale: Scale::Tiny,
        sampled_scale: Scale::Tiny,
        kernels: 2,
        tolerance_pct: None,
    };

    fn args(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.into(),
            seed: 1,
            seconds: 0.01,
            trace,
        }
    }

    #[test]
    fn detail_smoke() {
        let out = detail(&args("detail", false), &SMOKE).unwrap();
        assert_complete(&out, END_TO_END);
        assert_eq!(out.attempted, 24);
        let out = detail(&args("detail", true), &SMOKE).unwrap();
        assert_complete(&out, PER_LAYER);
        assert!(out.metrics["pipeline.ns_per_cycle.baseline"] > 0.0);
        assert!(out.metrics["core.mdt.load_checks"] > 0.0);
        assert!(out.metrics["lsq.sq_searches"] > 0.0);
        assert!(out.metrics["isa.interp_s"] > 0.0);
    }

    #[test]
    fn window_smoke() {
        let out = window(&args("window", true), &SMOKE).unwrap();
        assert_complete(&out, PER_LAYER);
        assert!(out.metrics["pipeline.ns_per_cycle.huge"] > 0.0);
        assert!(out.metrics["mem.far.accesses"] > 0.0);
        let out = window(&args("window", false), &SMOKE).unwrap();
        assert_complete(&out, END_TO_END);
    }

    #[test]
    fn sampled_smoke() {
        // At tiny scale the reference is computed here: the committed
        // report is a huge-scale run.
        let (_, full) = huge_far800()
            .into_iter()
            .find(|(n, _)| n == "huge-far800-sfc-mdt")
            .unwrap();
        let reference = kernel_names(&SMOKE)
            .into_iter()
            .map(|name| {
                let p = aim_bench::prepare(
                    aim_workloads::by_name(name, Scale::Tiny).unwrap(),
                    Scale::Tiny,
                );
                (
                    name.to_string(),
                    aim_bench::run(&p, &full.to_config()).ipc(),
                )
            })
            .collect::<BTreeMap<_, _>>();
        let out = sampled(&args("sampled", true), &SMOKE, Some(reference.clone())).unwrap();
        assert_complete(&out, PER_LAYER);
        assert!(out.metrics["sample.warm_mips"] > 0.0);
        assert!(out.metrics["sample.detail_frac"] > 0.0);
        assert!(out.metrics["ipc_err_pct"] > 0.0);
        let out = sampled(&args("sampled", false), &SMOKE, Some(reference)).unwrap();
        assert_complete(&out, END_TO_END);
    }

    #[test]
    fn committed_reference_reads_every_kernel() {
        let reference = committed_reference(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../BENCH_sampled.json"
        ))
        .unwrap();
        assert_eq!(reference.len(), aim_workloads::names().len());
        assert!((reference["gap"] - 7.930431).abs() < 1e-9);
    }
}
