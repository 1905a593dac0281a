//! Sampled fast-forward execution vs full detail, routed through the job
//! server: the differential convergence gate that unlocks `Scale::Huge`.
//!
//! Full-detail simulation of the huge machine class behind the 800-cycle
//! far tier costs roughly a microsecond of host time per instruction —
//! multi-million-instruction (`Scale::Huge`) runs take minutes per
//! matrix. Sampled mode alternates functional warm-up with detailed
//! cycle-accurate windows and extrapolates whole-run timing from the
//! windows, so it is only trustworthy *differentially*: this artifact
//! runs every committed kernel twice on the hardest configuration (huge
//! 4096-entry window, far latency 800, SFC/MDT) — once in full detail,
//! once under the tuned per-kernel tiled policy
//! ([`aim_serve::sampled_policy`]) — and asserts, at
//! `Scale::Huge`, that every extrapolated IPC lands within the
//! convergence tolerance of the full-detail truth and that the sampled
//! sweep is at least 10× faster wall-clock in aggregate. Architectural
//! state needs no tolerance: sampled retirement is validated
//! instruction-by-instruction against the same golden trace, so any
//! architectural divergence fails the run outright.
//!
//! Every cell is a wire `JobSpec` submitted to a shared local [`Server`]
//! over framed connections: a sampled cell and its full-detail twin are
//! distinct content-addressed cache entries (the `sample` field flips the
//! canonical-config key), and the whole matrix replayed warm must be
//! answered from the cache with zero simulations, byte-identically.
//! Wall-clock is measured on local in-process reruns of both
//! configurations, not on the (parallel, possibly cached) server rounds;
//! the local full-detail rerun must also reproduce the server's cycle
//! count exactly, pinning cross-path determinism.
//!
//! Alongside the human-readable table, the run emits the stable
//! `aim-sampled-report/v1` JSON (`BENCH_sampled.json`).

use aim_bench::{
    csv_path_from_args, jobs_from_args, rule, scale_from_args, CsvTable, SampledReport, SampledRow,
};
use aim_pipeline::{BackendChoice, FarSpec, MachineClass};
use aim_serve::{
    parse_sampled_stats, run_cells, sampled_policy, ConfigSpec, JobResponse, JobSpec, Server,
    SAMPLE_PERIODS,
};
use aim_workloads::{Scale, Suite};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// The studied configuration: the far-tier latency every cell runs
/// behind. 800 cycles is the sweep's extreme point, where full detail is
/// slowest and the warm/detail host-cost ratio is widest — the
/// configuration the ≥10× speedup claim is made on.
const FAR_LATENCY: u64 = 800;

/// Convergence tolerance at `Scale::Huge`: every kernel's extrapolated
/// IPC must land within this many percent of full detail. The measured
/// worst case of the tuned policy is −6.6% (see `EXPERIMENTS.md`
/// T-SAMPLE); 10% holds margin without hiding a regressed estimator.
const TOLERANCE_PCT: f64 = 10.0;

fn ipc(resp: &JobResponse) -> f64 {
    if resp.cycles == 0 {
        0.0
    } else {
        resp.retired as f64 / resp.cycles as f64
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let scale = scale_from_args();
    let jobs = jobs_from_args();
    let far = Some(FarSpec::new(FAR_LATENCY, 64, 8));
    let full_spec = ConfigSpec { far, ..ConfigSpec::new(MachineClass::Huge, BackendChoice::SfcMdt) };
    let window = full_spec.to_config().rob_entries as u64;

    // Prepare every kernel up front: the tiled policy is a function of
    // the kernel's dynamic length, and the wall-clock measurement reruns
    // both configurations locally on the shared golden trace.
    let prepared: Vec<aim_bench::Prepared> = aim_workloads::all(scale)
        .into_iter()
        .map(|w| aim_bench::prepare(w, scale))
        .collect();
    let cells: Vec<JobSpec> = prepared
        .iter()
        .flat_map(|p| {
            let sampled_spec = ConfigSpec {
                sample: Some(sampled_policy(p.trace.len() as u64)),
                ..full_spec
            };
            [full_spec.job(p.name, scale), sampled_spec.job(p.name, scale)]
        })
        .collect();

    let cache_dir = std::env::var("AIM_SERVE_CACHE").map(PathBuf::from).unwrap_or_else(|_| {
        std::env::temp_dir().join(format!("aim_sampled_cache_{}", std::process::id()))
    });
    let server = Arc::new(Server::new(&cache_dir, jobs).expect("serve cache dir"));

    // Round 1: the matrix through the shared local server. Full and
    // sampled cells must be distinct cache entries — default-off sampling
    // means the full cells' keys are byte-identical to every other
    // client's unsampled submissions.
    let before = server.counters();
    let cold = run_cells(&server, &cells, jobs, false).expect("matrix round");
    let mid = server.counters();
    // Round 2: replay the whole matrix; every cell must come back from
    // the cache, byte-identical, with zero simulations.
    let warm = run_cells(&server, &cells, jobs, false).expect("replay round");
    let after = server.counters();
    let cold_sims = mid.sims_run - before.sims_run;
    let warm_sims = after.sims_run - mid.sims_run;
    let warm_hits = after.cache_hits - mid.cache_hits;
    let diverging =
        warm.iter().zip(&cold).filter(|(w, c)| w.stats_text != c.stats_text).count();
    assert_eq!(warm_sims, 0, "warm replay ran simulations on a warm cache");
    assert_eq!(warm_hits as usize, cells.len(), "warm replay missed the cache");
    assert_eq!(diverging, 0, "warm replay diverged byte-wise from the first round");

    println!(
        "sampled convergence — huge machine ({window}-entry window), far latency {FAR_LATENCY}, \
         sfc/mdt; tiled {SAMPLE_PERIODS}-period policy vs full detail"
    );
    rule(118);
    println!(
        "{:<11} {:>5} {:>9} | {:>8} {:>8} {:>7} | {:>7} {:>7} | {:>9} {:>9} {:>7}",
        "benchmark", "suite", "insts", "full ipc", "samp ipc", "err%", "periods", "detail%",
        "full ms", "samp ms", "speedup"
    );
    rule(118);

    let mut rows = Vec::new();
    let mut misses: Vec<String> = Vec::new();
    let mut worst = 0.0f64;
    let (mut full_wall, mut samp_wall) = (0u64, 0u64);
    let mut csv = CsvTable::new(&[
        "workload",
        "suite",
        "trace_len",
        "full_ipc",
        "sampled_ipc",
        "err_pct",
        "periods_run",
        "detail_pct",
        "full_wall_ns",
        "sampled_wall_ns",
        "speedup",
    ]);

    for (w, p) in prepared.iter().enumerate() {
        let (full_resp, samp_resp) = (&cold[2 * w], &cold[2 * w + 1]);
        let policy = sampled_policy(p.trace.len() as u64);
        let (full_ipc, samp_ipc) = (ipc(full_resp), ipc(samp_resp));
        let err = 100.0 * (samp_ipc - full_ipc) / full_ipc;
        if err.abs() > worst.abs() {
            worst = err;
        }
        let sampled = parse_sampled_stats(&samp_resp.stats_text)
            .expect("sampled cell carries coverage stats");
        assert!(
            parse_sampled_stats(&full_resp.stats_text).is_none(),
            "{}: full-detail cell carries sampled stats — the cache keys collided",
            p.name
        );
        assert_eq!(
            sampled.periods_run, SAMPLE_PERIODS,
            "{}: the tiled schedule must complete every period",
            p.name
        );
        if err.abs() > TOLERANCE_PCT {
            misses.push(format!("{} {err:+.2}%", p.name));
        }

        // Wall-clock on local reruns: single-threaded, same process, same
        // golden trace — the only difference is the sampling policy. The
        // full rerun must reproduce the served cycle count exactly.
        let t0 = Instant::now();
        let local_full = aim_bench::run(p, &full_spec.to_config());
        let fw = t0.elapsed().as_nanos() as u64;
        let sampled_cfg =
            ConfigSpec { sample: Some(policy), ..full_spec }.to_config();
        let t0 = Instant::now();
        let local_samp = aim_bench::run(p, &sampled_cfg);
        let sw = t0.elapsed().as_nanos() as u64;
        assert_eq!(
            (local_full.cycles, local_full.retired),
            (full_resp.cycles, full_resp.retired),
            "{}: local full-detail rerun diverged from the served result",
            p.name
        );
        assert_eq!(
            (local_samp.cycles, local_samp.retired),
            (samp_resp.cycles, samp_resp.retired),
            "{}: local sampled rerun diverged from the served result",
            p.name
        );
        full_wall += fw;
        samp_wall += sw;

        let detail_pct = sampled.detail_fraction();
        let speedup = fw as f64 / sw as f64;
        let suite_tok = if p.suite == Suite::Int { "int" } else { "fp" };
        println!(
            "{:<11} {:>5} {:>9} | {:>8.4} {:>8.4} {:>+7.2} | {:>7} {:>7.2} | {:>9.1} {:>9.1} \
             {:>6.1}x",
            p.name,
            suite_tok,
            p.trace.len(),
            full_ipc,
            samp_ipc,
            err,
            sampled.periods_run,
            detail_pct,
            fw as f64 / 1e6,
            sw as f64 / 1e6,
            speedup
        );
        csv.row(&[
            p.name.to_string(),
            suite_tok.to_string(),
            p.trace.len().to_string(),
            format!("{full_ipc:.4}"),
            format!("{samp_ipc:.4}"),
            format!("{err:.2}"),
            sampled.periods_run.to_string(),
            format!("{detail_pct:.2}"),
            fw.to_string(),
            sw.to_string(),
            format!("{speedup:.2}"),
        ]);
        rows.push(SampledRow {
            workload: p.name.to_string(),
            suite: suite_tok.to_string(),
            trace_len: p.trace.len() as u64,
            warm_insts: policy.warm_insts,
            detail_insts: policy.detail_insts,
            periods: policy.periods,
            full_ipc,
            sampled_ipc: samp_ipc,
            err_pct: err,
            periods_run: sampled.periods_run,
            detail_pct,
            full_wall_ns: fw,
            sampled_wall_ns: sw,
            speedup,
        });
    }
    rule(118);
    let speedup = full_wall as f64 / samp_wall as f64;
    println!(
        "worst error {worst:+.2}%   aggregate wall {:.2}s full / {:.2}s sampled — {speedup:.1}x",
        full_wall as f64 / 1e9,
        samp_wall as f64 / 1e9
    );
    rule(118);

    if let Some(path) = csv_path_from_args() {
        csv.write(&path).expect("write csv");
        println!("wrote {path}");
    }
    let report = SampledReport {
        artifact: "table_sampled".to_string(),
        scale,
        workers: server.workers(),
        cold_sims,
        warm_hits,
        warm_sims,
        machine: full_spec.machine.to_string(),
        window,
        far_latency: FAR_LATENCY,
        worst_err_pct: worst,
        speedup,
        rows,
    };
    match report.write_default() {
        Ok(path) => println!("sampled report — {path}"),
        Err(e) => eprintln!("sampled report not written: {e}"),
    }
    println!(
        "serve: matrix cached under {} — first round {} simulations, replay {}/{} cells warm \
         ({} simulations)",
        cache_dir.display(),
        cold_sims,
        warm_hits,
        cells.len(),
        warm_sims
    );

    // The differential acceptance claims hold where the policy is sized
    // to operate: `Scale::Huge` traces, where each period spans hundreds
    // of thousands of instructions. At the tier-1 tiny scale the same
    // binary still pins the plumbing — distinct cache keys, complete
    // schedules, warm byte-identity, local/served determinism — but a
    // dozen-instruction detail window extrapolating a 5k-instruction
    // kernel is legitimately noisy, and wall-clock is dominated by fixed
    // costs, so the convergence and speedup gates stay huge-only.
    if scale == Scale::Huge {
        assert!(
            misses.is_empty(),
            "sampled IPC escaped the ±{TOLERANCE_PCT}% convergence tolerance on: {misses:?}"
        );
        assert!(
            speedup >= 10.0,
            "sampled mode must be >=10x faster wall-clock than full detail at huge scale, \
             measured {speedup:.2}x"
        );
    }
    println!(
        "acceptance: worst sampled-vs-detail error {worst:+.2}% (tolerance ±{TOLERANCE_PCT}% at \
         huge scale); wall-clock speedup {speedup:.1}x (floor 10x at huge scale)"
    );
}
