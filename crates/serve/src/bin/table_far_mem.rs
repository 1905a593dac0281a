//! Far-memory tier × kilo-entry-window sweep, routed through the job
//! server.
//!
//! The paper's claim is that address-indexed disambiguation scales where
//! LSQ CAMs throttle. This artifact stresses the claim where it is
//! hardest: both kilo-entry-window machine classes (aggressive 1024,
//! huge 4096) run behind a hundreds-of-cycles far-memory tier, so
//! thousands of instructions — and many MSHR-bounded far misses — are in
//! flight at once. Each (machine × latency) cell brackets two CAMs — the
//! buildable 120×80 Figure 4 queue and the 256×256 upper bound — plus
//! the SFC/MDT and PCAX between no-spec and oracle, normalized to the
//! cell's 256×256 LSQ IPC. The acceptance metric is *retention*: the
//! geomean share of the upper-bound CAM's throughput each backend keeps.
//! On the huge cells the buildable CAM drowns (its 120 load entries cap
//! the far-miss MLP a 4096-entry window exposes) while the
//! address-indexed backends stay at or above the upper bound.
//!
//! Unlike the other sweep binaries, the matrix does not run through
//! `aim_bench::run_matrix`: every cell is a wire `JobSpec` submitted to a
//! shared local [`Server`] over framed connections, then the whole matrix
//! is replayed and must be answered entirely from the content-addressed
//! cache with zero simulations. Point `$AIM_SERVE_CACHE` at a persistent
//! directory and the cells stay warm across invocations — and for any
//! other client (the CLI's `submit --machine huge --far …`) naming the
//! same cell through the extended `JobSpec` surface.
//!
//! Alongside the human-readable tables, the run emits the stable
//! `aim-farmem-report/v1` JSON (`BENCH_farmem.json`).

use aim_bench::{
    gap_closed, or_exit, resolve_jobs, specs, FarMemReport, FarMemRow, Options, Report,
};
use aim_serve::{farmem_configs, parse_far_stats, run_cells, JobResponse, JobSpec, Server};
use aim_types::geomean;
use aim_workloads::{Scale, Suite};
use std::path::PathBuf;
use std::sync::Arc;

/// The four (machine class, far latency) cells, in config-list order.
const CELLS: &[(&str, u64)] = &[("aggr", 200), ("aggr", 800), ("huge", 200), ("huge", 800)];

/// Backend columns per cell: no-spec, the buildable 120×80 CAM, the
/// 256×256 upper-bound CAM (normalization base), SFC/MDT, PCAX, oracle.
const COLS: usize = 6;

fn ipc(resp: &JobResponse) -> f64 {
    if resp.cycles == 0 {
        0.0
    } else {
        resp.retired as f64 / resp.cycles as f64
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, _) = or_exit(Options::parse(&args, &["--scale", "--jobs", "--csv"], 0));
    let (scale, jobs, csv_path) = (opts.scale, resolve_jobs(opts.jobs), opts.csv);
    let rule = "-".repeat(113);
    let spec = specs::table_far_mem();
    let configs = farmem_configs();
    assert_eq!(configs.len(), CELLS.len() * COLS, "cell layout drifted");

    let workloads: Vec<(&'static str, Suite)> = aim_workloads::all(scale)
        .iter()
        .filter(|w| !spec.skip.contains(&w.name))
        .map(|w| (w.name, w.suite))
        .collect();
    let cache_dir = std::env::var("AIM_SERVE_CACHE").map(PathBuf::from).unwrap_or_else(|_| {
        std::env::temp_dir().join(format!("aim_farmem_cache_{}", std::process::id()))
    });
    let server = Arc::new(Server::new(&cache_dir, jobs).expect("serve cache dir"));
    let cells: Vec<JobSpec> = workloads
        .iter()
        .flat_map(|(name, _)| configs.iter().map(|(_, c)| c.job(name, scale)))
        .collect();

    // Round 1: the matrix through the shared local server (cells already
    // cached by an earlier run against the same directory stay warm).
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

    let resp = |w: usize, k: usize| &cold[w * configs.len() + k];
    let mut rows = Vec::new();
    let mut bracket_misses: Vec<String> = Vec::new();
    // Per huge cell: (cam, sfc, pcax) retention vs the 256×256 upper
    // bound, for the scaling acceptance claim.
    let mut huge_rets: Vec<(f64, f64, f64)> = Vec::new();

    for (c, &(tag, lat)) in CELLS.iter().enumerate() {
        let base = c * COLS;
        let window = spec.configs[base].1.rob_entries as u64;
        println!(
            "far-memory bracket — {tag} machine ({window}-entry window), far latency {lat} \
             (normalized to the cell's 256x256 upper-bound LSQ IPC)"
        );
        println!("{rule}");
        println!(
            "{:<11} {:>5} | {:>8} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>6} {:>6} {:>6} | {:>8} {:>5}",
            "benchmark", "suite", "LSQ IPC", "no-spec", "cam-120", "sfc/mdt", "pcax", "oracle",
            "cam%", "sfc%", "pcax%", "far-acc", "peak"
        );
        println!("{rule}");
        let mut gap_rows: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut norm_rows: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (w, &(name, suite)) in workloads.iter().enumerate() {
            let lsq_ipc = ipc(resp(w, base + 2));
            let norm = |k: usize| ipc(resp(w, base + k)) / lsq_ipc;
            let (nospec, cam, sfc, pcax, oracle) =
                (norm(0), norm(1), norm(3), norm(4), norm(5));
            let closed = |x: f64| gap_closed(x, nospec, oracle);
            let (cam_closed, sfc_closed, pcax_closed) = (closed(cam), closed(sfc), closed(pcax));
            // Acceptance: every real backend inside the bracket. The
            // ceiling is max(oracle, LSQ, SFC/MDT) as in `table_pcax`:
            // the oracle stalls loads behind aliasing stores instead of
            // forwarding, so speculative forwarding legitimately beats it
            // on forwarding-heavy kernels. The tolerances are relative —
            // 5% under the floor, 2% over the ceiling — because the
            // bracket ends are themselves speculation policies, not hard
            // bounds: on forwarding-light, store-ordered kernels
            // (perlbmk) the speculative store buffer pays a few percent
            // in output-dependence flushes with no stalls to save, and on
            // forwarding-heavy ones speculative forwarding edges past the
            // stalling oracle.
            let ceiling = oracle.max(1.0).max(sfc);
            for (label, x) in
                [("lsq-120x80", cam), ("lsq-256x256", 1.0), ("sfc-mdt", sfc), ("pcax", pcax)]
            {
                if x < nospec * 0.95 - 0.005 || x > ceiling * 1.02 + 0.01 {
                    bracket_misses.push(format!("{tag}-far{lat}/{name}/{label}"));
                }
            }
            let far = parse_far_stats(&resp(w, base + 3).stats_text)
                .expect("far-tier cell carries far stats");
            gap_rows[0].push(cam_closed);
            gap_rows[1].push(sfc_closed);
            gap_rows[2].push(pcax_closed);
            norm_rows[0].push(cam);
            norm_rows[1].push(sfc);
            norm_rows[2].push(pcax);
            let suite_tok = if suite == Suite::Int { "int" } else { "fp" };
            rows.push(FarMemRow {
                workload: name.to_string(),
                suite: suite_tok.to_string(),
                machine: tag.to_string(),
                window,
                far_latency: lat,
                lsq_ipc,
                nospec_norm: nospec,
                cam_norm: cam,
                sfc_mdt_norm: sfc,
                pcax_norm: pcax,
                oracle_norm: oracle,
                cam_gap_closed: cam_closed,
                sfc_gap_closed: sfc_closed,
                pcax_gap_closed: pcax_closed,
                far_accesses: far.accesses,
                far_coalesced: far.coalesced,
                far_overflow: far.overflow,
                far_peak_inflight: far.peak_inflight as u64,
            });
            println!(
                "{:<11} {:>5} | {:>8.3} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>6.1} \
                 {:>6.1} {:>6.1} | {:>8} {:>5}",
                name, suite_tok, lsq_ipc, nospec, cam, sfc, pcax, oracle, cam_closed, sfc_closed,
                pcax_closed, far.accesses, far.peak_inflight
            );
        }
        println!("{rule}");
        // Arithmetic mean: gap-closed percentages are legitimately
        // negative on kernels where speculation loses, which a geometric
        // mean cannot average.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        println!(
            "{:<11} {:>5} | {:>8} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>6.1} {:>6.1} {:>6.1} |",
            "mean gap%", "", "", "", "", "", "", "", mean(&gap_rows[0]), mean(&gap_rows[1]),
            mean(&gap_rows[2])
        );
        let rets = (
            100.0 * geomean(&norm_rows[0]),
            100.0 * geomean(&norm_rows[1]),
            100.0 * geomean(&norm_rows[2]),
        );
        println!(
            "retention vs the 256x256 upper bound (geomean) — cam-120 {:.1}%  sfc/mdt {:.1}%  \
             pcax {:.1}%",
            rets.0, rets.1, rets.2
        );
        println!("{rule}");
        println!();
        if tag == "huge" {
            huge_rets.push(rets);
        }
    }

    let report = FarMemReport {
        artifact: spec.artifact.to_string(),
        scale,
        workers: server.workers(),
        cold_sims,
        warm_hits,
        warm_sims,
        rows,
    };
    if let Some(path) = csv_path {
        report.write_csv(&path).expect("write csv");
        println!("wrote {path}");
    }
    match report.write_default() {
        Ok(path) => println!("farmem report — {path}"),
        Err(e) => eprintln!("farmem report not written: {e}"),
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

    assert!(
        bracket_misses.is_empty(),
        "backends escaped the no-spec..oracle bracket on: {bracket_misses:?}"
    );
    // The scaling claim: on the kilo-entry-window huge class behind the
    // far tier, the address-indexed backends keep >=95% of the 256x256
    // upper bound's throughput at every latency, and at the deepest
    // latency the buildable 120x80 CAM drowns measurably below them (at
    // 200 cycles a 4096-entry window does not yet expose more far-miss
    // MLP than 120 load entries can hold — the collapse is a
    // latency-scaling effect, which is the point of the sweep). Only
    // meaningful at real run lengths — at tiny scale the whole program
    // fits inside the window and the ratios are warm-up noise, so tiny
    // runs (the tier-1 gate) check the bracket and the warm cache but
    // not the retentions.
    if scale != Scale::Tiny {
        for (&(tag, lat), &(cam, sfc, pcax)) in
            CELLS.iter().filter(|(t, _)| *t == "huge").zip(&huge_rets)
        {
            assert!(
                sfc >= 95.0 && pcax >= 95.0,
                "{tag}-far{lat}: address-indexed retention fell below 95% \
                 (sfc {sfc:.1}%, pcax {pcax:.1}%)"
            );
            if lat == CELLS.iter().map(|&(_, l)| l).max().unwrap_or(0) {
                assert!(
                    cam <= sfc - 5.0 && cam <= pcax - 5.0,
                    "{tag}-far{lat}: the 120x80 CAM's retention ({cam:.1}%) is not \
                     measurably below sfc ({sfc:.1}%) / pcax ({pcax:.1}%)"
                );
            }
        }
    }
    let (cam, sfc, pcax) = huge_rets.last().copied().expect("huge cells present");
    println!(
        "acceptance: every backend inside the no-spec..oracle bracket; huge-window retention \
         vs the 256x256 upper bound — cam-120 {cam:.1}% << sfc {sfc:.1}% / pcax {pcax:.1}%"
    );
}
