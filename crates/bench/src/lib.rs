//! Experiment harness: shared machinery for regenerating every table and
//! figure of the paper's evaluation (§3).
//!
//! Each `src/bin/*.rs` binary reproduces one artifact:
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4_config` | Figure 4 (simulator parameters) |
//! | `fig5_baseline` | Figure 5 (baseline 4-wide, ENF / NOT-ENF vs 48×32 LSQ) |
//! | `fig6_aggressive` | Figure 6 (aggressive 8-wide, LSQ sizes vs MDT/SFC) |
//! | `table_violations` | §3.1/§3.2 violation-rate claims |
//! | `table_enf_effect` | §3.2 ENF vs NOT-ENF on the aggressive machine |
//! | `table_assoc_sweep` | §3.2 bzip2/mcf set-conflict + associativity-16 study |
//! | `table_corruption` | §3.2 SFC corruption-rate study |
//! | `table_filter` | §4 MDT search-filter study |
//! | `table_filter_sweep` | filter sets/ways/counter-width knee (à la §5 sizing) |
//! | `table_hybrid` | §4 filtered-LSQ hybrid vs the backend bounds |
//! | `table_backend_bounds` | SFC/MDT inside the no-spec → oracle bracket |
//! | `table_pcax` | PC-indexed classification backend vs the backend bounds |
//! | `table_pcax_sweep` | PCAX table sets/ways/threshold knee (à la §5 sizing) |
//! | `table_power` | §5 activity/power proxy counts |
//! | `table_window_sweep` | §3.3 instruction-window scaling |
//! | `table_hostperf` | host throughput per backend × machine class, stats fingerprint gate |
//! | `table_litmus` | litmus outcomes per backend contained in the reference model |
//! | `calibrate` | IPC sanity check of the two backends |
//!
//! Two more bins live in `aim-serve` because they route their cells
//! through the job server's cache: `table_far_mem` (far-memory latency ×
//! window-size sweep) and `table_sampled` (sampled vs full-detail
//! convergence).
//!
//! Shared flags: `--scale tiny|small|full|huge` (default `full`) and
//! `--jobs N` (worker threads for the sweep; `0`/absent defers to the
//! `AIM_JOBS` environment variable, then to the host's parallelism). A
//! malformed flag prints one `error:` line and exits with status 2.
//!
//! Every binary routes its (workload × config) sweep through
//! [`run_matrix`], which fans independent simulations across OS threads
//! with deterministic result ordering, and emits a host-throughput
//! [`SweepReport`] (`BENCH_sweep.json`) alongside its human-readable
//! output. Every report, that one included, renders through the one
//! [`Report`] writer; the bins that write a table report also take
//! `--csv <path>` and write the same rows there.

use aim_isa::{Interpreter, Program, Trace};
use aim_pipeline::{Machine, SimConfig, SimStats};
use aim_workloads::{Scale, Suite, Workload};

mod cache_key;
mod farmem;
mod geometry_sweep;
mod hostperf;
mod hybrid;
mod litmus;
mod matrix;
mod pcax;
mod report;
mod sampled;
mod serve_report;
pub mod specs;
mod sweep;

pub use cache_key::{
    cache_key, cache_key_of_texts, canonical_config_text, program_text, CacheKey, KeyPrefix,
    CODE_VERSION,
};
pub use farmem::{FarMemReport, FarMemRow};
pub use geometry_sweep::{
    find_knee, grid_tiny_from_args, parse_grid_arg, FilterSweepReport, FilterSweepRow,
    GeometryGrid, Knee, KneePoint, PcaxSweepReport, PcaxSweepRow,
};
pub use hostperf::{
    fingerprint_stats, fingerprint_text, fingerprint_texts, stats_fingerprint,
    HostperfReport, HostperfRow,
};
pub use hybrid::{HybridReport, HybridRow};
pub use litmus::{LitmusReport, LitmusRow};
pub use matrix::{run_matrix, run_matrix_timed, Matrix};
pub use pcax::{PcaxReport, PcaxRow};
pub use report::{render_report, Report};
pub use sampled::{SampledReport, SampledRow};
pub use serve_report::{ServeReport, ServeRound};
pub use sweep::{SweepReport, SweepRow};

/// A workload with its golden trace precomputed (reused across configs).
pub struct Prepared {
    /// Benchmark name.
    pub name: &'static str,
    /// Suite membership.
    pub suite: Suite,
    /// The program.
    pub program: Program,
    /// The architectural trace.
    pub trace: Trace,
}

/// Builds and architecturally executes every kernel at `scale`.
///
/// # Panics
///
/// Panics if any kernel faults architecturally (a workload bug).
pub fn prepare_all(scale: Scale) -> Vec<Prepared> {
    aim_workloads::all(scale)
        .into_iter()
        .map(|w| prepare(w, scale))
        .collect()
}

/// Builds and architecturally executes one kernel. The trace budget
/// scales with the workload scale: kernels overshoot their nominal
/// target (control flow retires whole loop iterations), and at
/// `Scale::Huge` the longest-tailed kernels run past 5M retired
/// instructions.
///
/// # Panics
///
/// Panics if the kernel faults architecturally.
pub fn prepare(w: Workload, scale: Scale) -> Prepared {
    let trace = Interpreter::new(&w.program)
        .run((10 * scale.target_instrs()).max(5_000_000))
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
    assert!(trace.halted(), "{} exceeded the trace budget", w.name);
    Prepared {
        name: w.name,
        suite: w.suite,
        program: w.program,
        trace,
    }
}

/// Runs a prepared workload under `cfg`.
///
/// # Panics
///
/// Panics on validation or deadlock errors — the harness treats simulator
/// failures as fatal.
pub fn run(p: &Prepared, cfg: &SimConfig) -> SimStats {
    Machine::new(&p.program, &p.trace, cfg.clone()).run()
        .unwrap_or_else(|e| panic!("{} under {}: {e}", p.name, cfg.backend.name()))
}

/// Runs a prepared workload under `cfg` as the sole core of a
/// [`MultiMachine`](aim_pipeline::MultiMachine) and returns core 0's
/// statistics. The multi-core refactor's N=1 contract says this is
/// bit-identical (wall clock aside) to [`run`]; `table_hostperf --check`
/// replays the whole matrix through this path and compares fingerprints.
///
/// # Panics
///
/// Panics on validation or deadlock errors, as [`run`] does.
pub fn run_multi_n1(p: &Prepared, cfg: &SimConfig) -> SimStats {
    let multi = aim_pipeline::MultiMachine::new(&[(&p.program, &p.trace)], cfg.clone());
    let stats = multi
        .run(aim_pipeline::CoreSchedule::RoundRobin)
        .unwrap_or_else(|e| panic!("{} under {} (multi N=1): {e}", p.name, cfg.backend.name()));
    stats.per_core.into_iter().next().expect("one core ran")
}

/// The value following `flag` in an argument list: `Ok(None)` when the
/// flag is absent.
///
/// # Errors
///
/// Returns ``{flag} expects a value (e.g. {flag} {example})`` when the
/// flag is the last argument.
pub fn flag_value<'a>(
    args: &'a [String],
    flag: &str,
    example: &str,
) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => match args.get(i + 1) {
            Some(value) => Ok(Some(value)),
            None => Err(format!("{flag} expects a value (e.g. {flag} {example})")),
        },
        None => Ok(None),
    }
}

/// The parsed value, or — for a malformed command line — one `error:`
/// line on stderr and exit status 2 (no panic, no backtrace).
pub fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|message| {
        eprintln!("error: {message}");
        std::process::exit(2);
    })
}

/// Extracts `--scale tiny|small|full|huge` from an argument list (default
/// `full`).
///
/// # Errors
///
/// Returns a one-line message when `--scale` has no value or an unknown
/// one.
pub fn parse_scale_arg(args: &[String]) -> Result<Scale, String> {
    match flag_value(args, "--scale", "tiny")? {
        Some(token) => token.parse().map_err(|e| format!("--scale: {e}")),
        None => Ok(Scale::Full),
    }
}

/// Parses `--scale` from the command line (see [`parse_scale_arg`]); a
/// malformed flag exits through [`or_exit`].
pub fn scale_from_args() -> Scale {
    let args: Vec<String> = std::env::args().collect();
    or_exit(parse_scale_arg(&args))
}

/// Whether a `--flag` is present on the command line.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Resolves a requested worker-thread count: an explicit request (`> 0`)
/// wins, then a positive `AIM_JOBS` environment variable, then the host's
/// available parallelism (falling back to 1 if that is unknowable).
pub fn resolve_jobs(requested: usize) -> usize {
    resolve_jobs_with(requested, std::env::var("AIM_JOBS").ok().as_deref())
}

/// [`resolve_jobs`] with the `AIM_JOBS` environment variable's value passed
/// explicitly, so the fallback chain is unit-testable without mutating the
/// process environment. A malformed or non-positive `env_jobs` is ignored,
/// exactly as an unset variable is.
pub fn resolve_jobs_with(requested: usize, env_jobs: Option<&str>) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = env_jobs.and_then(|v| v.parse::<usize>().ok()) {
        if n > 0 {
            return n;
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Extracts the `--jobs N` request (before [`resolve_jobs`] resolution)
/// from an argument list. Absent means `0` (defer to `AIM_JOBS`, then
/// auto-detection).
///
/// # Errors
///
/// Returns a one-line, actionable message — never panics — when `--jobs`
/// is present without a value or with a non-integer value.
pub fn parse_jobs_arg(args: &[String]) -> Result<usize, String> {
    const EXAMPLE: &str = "4; 0 defers to AIM_JOBS, then auto-detection";
    match flag_value(args, "--jobs", EXAMPLE)? {
        Some(s) => s.parse().map_err(|_| {
            format!("--jobs expects a non-negative integer, got `{s}` (e.g. --jobs {EXAMPLE})")
        }),
        None => Ok(0),
    }
}

/// Parses `--jobs N` from the command line and resolves it via
/// [`resolve_jobs`] (so `--jobs 0`, `AIM_JOBS`, and auto-detection all
/// behave identically across the experiment binaries). A malformed
/// `--jobs` exits through [`or_exit`].
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    resolve_jobs(or_exit(parse_jobs_arg(&args)))
}

/// Parses `--csv <path>` from the command line, if present; a `--csv`
/// without a path exits through [`or_exit`].
pub fn csv_path_from_args() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    or_exit(flag_value(&args, "--csv", "out.csv")).map(str::to_string)
}

/// A minimal CSV emitter for the figure harnesses (numbers and plain names
/// only — no quoting needed).
#[derive(Debug, Default)]
pub struct CsvTable {
    lines: Vec<String>,
}

impl CsvTable {
    /// Starts a table with a header row.
    pub fn new(columns: &[&str]) -> CsvTable {
        CsvTable {
            lines: vec![columns.join(",")],
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: &[String]) {
        self.lines.push(cells.join(","));
    }

    /// Writes the table to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.lines.join("\n") + "\n")
    }
}

/// Percent of the no-spec → oracle IPC gap that `x` closes (`nospec`,
/// `x` and `oracle` on the same normalization). A gap of at most
/// `f64::EPSILON` counts as fully closed.
pub fn gap_closed(x: f64, nospec: f64, oracle: f64) -> f64 {
    let gap = oracle - nospec;
    if gap > f64::EPSILON {
        100.0 * (x - nospec) / gap
    } else {
        100.0
    }
}

/// Per-suite averages of `(suite, value)` pairs, using the geometric mean
/// (values are IPC ratios).
pub fn suite_means(rows: &[(Suite, f64)]) -> (f64, f64) {
    let ints: Vec<f64> = rows
        .iter()
        .filter(|(s, _)| *s == Suite::Int)
        .map(|(_, v)| *v)
        .collect();
    let fps: Vec<f64> = rows
        .iter()
        .filter(|(s, _)| *s == Suite::Fp)
        .map(|(_, v)| *v)
        .collect();
    (aim_types::geomean(&ints), aim_types::geomean(&fps))
}

/// Prints a horizontal rule sized to `width`.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_pipeline::MachineClass;
    use aim_predictor::EnforceMode;

    #[test]
    fn prepare_and_run_smoke() {
        let w = aim_workloads::by_name("crafty", Scale::Tiny).unwrap();
        let p = prepare(w, Scale::Tiny);
        let stats = run(&p, &SimConfig::machine(MachineClass::Baseline).mode(EnforceMode::All).build());
        assert!(stats.retired > 1_000);
    }

    #[test]
    fn suite_means_split() {
        let rows = vec![(Suite::Int, 1.0), (Suite::Int, 4.0), (Suite::Fp, 2.0)];
        let (int, fp) = suite_means(&rows);
        assert!((int - 2.0).abs() < 1e-12);
        assert!((fp - 2.0).abs() < 1e-12);
    }

    #[test]
    fn csv_table_round_trips_through_a_file() {
        let mut t = CsvTable::new(&["benchmark", "ipc"]);
        t.row(&["gzip".into(), "2.358".into()]);
        t.row(&["mcf".into(), "1.9".into()]);
        let path = std::env::temp_dir().join("aim_bench_csv_test.csv");
        t.write(path.to_str().unwrap()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "benchmark,ipc\ngzip,2.358\nmcf,1.9\n");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scale_and_flags_parse_from_plain_args() {
        // No CLI args in the test harness: defaults apply.
        assert_eq!(scale_from_args(), Scale::Full);
        assert!(!has_flag("--nonexistent"));
        assert_eq!(csv_path_from_args(), None);
    }

    #[test]
    fn jobs_flag_errors_are_one_actionable_line() {
        let argv = |words: &[&str]| words.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(parse_jobs_arg(&argv(&["bin", "--jobs", "4"])), Ok(4));
        assert_eq!(parse_jobs_arg(&argv(&["bin", "--scale", "tiny"])), Ok(0));
        let err = parse_jobs_arg(&argv(&["bin", "--jobs", "x"])).unwrap_err();
        assert!(err.contains("--jobs expects a non-negative integer, got `x`"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = parse_jobs_arg(&argv(&["bin", "--jobs"])).unwrap_err();
        assert!(err.contains("--jobs expects a value"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
    }

    #[test]
    fn scale_flag_errors_are_one_actionable_line() {
        let argv = |words: &[&str]| words.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_scale_arg(&argv(&["bin", "--scale", "tiny"])),
            Ok(Scale::Tiny)
        );
        assert_eq!(
            parse_scale_arg(&argv(&["bin", "--jobs", "2"])),
            Ok(Scale::Full)
        );
        let err = parse_scale_arg(&argv(&["bin", "--scale", "bogus"])).unwrap_err();
        assert!(err.contains("unknown scale `bogus`"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = parse_scale_arg(&argv(&["bin", "--scale"])).unwrap_err();
        assert!(err.contains("--scale expects a value"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
    }

    #[test]
    fn gap_closed_is_the_share_of_the_bracket() {
        assert!((gap_closed(0.9, 0.8, 1.0) - 50.0).abs() < 1e-9);
        assert!((gap_closed(0.7, 0.8, 1.0) + 50.0).abs() < 1e-9);
        assert_eq!(gap_closed(0.9, 1.0, 1.0), 100.0);
    }

    #[test]
    fn jobs_resolution_prefers_request_then_env_then_host() {
        assert_eq!(resolve_jobs_with(3, Some("8")), 3);
        assert_eq!(resolve_jobs_with(0, Some("8")), 8);
        // Malformed or non-positive AIM_JOBS falls through to the host.
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(resolve_jobs_with(0, Some("many")), host);
        assert_eq!(resolve_jobs_with(0, Some("0")), host);
        assert_eq!(resolve_jobs_with(0, None), host);
        assert!(resolve_jobs_with(0, None) >= 1);
    }

    #[test]
    fn prepare_all_covers_the_registry_in_order() {
        let all = prepare_all(Scale::Tiny);
        assert_eq!(all.len(), aim_workloads::names().len());
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert_eq!(names, aim_workloads::names());
    }
}
