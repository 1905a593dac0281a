//! Experiment harness: shared machinery for regenerating every table and
//! figure of the paper's evaluation (§3).
//!
//! One command, `aim-bench <artifact>|list`, runs every artifact. The
//! [`artifact`] module holds the table of artifacts (`aim-bench list`
//! prints it): each names the (workload × config) matrix it simulates
//! (a [`specs`] entry), a reduce step from the finished [`Matrix`] to the
//! rows it prints and writes, and an acceptance predicate. The matrix
//! runs through [`run_matrix`], which fans independent simulations across
//! OS threads with deterministic result ordering. The far-memory sweep
//! (`farmem`) is one of those matrices; the sampled-convergence gate
//! (`sampled`) and `litmus` bring their own run steps.
//!
//! Shared flags ([`FLAGS`]): `--scale tiny|small|full|huge` (default
//! `full`), `--jobs N` (worker threads for the sweep; `0`/absent defers to
//! the `AIM_JOBS` environment variable, then to the host's parallelism),
//! `--csv <path>`, `--grid tiny|full`, `--check` and `--schedules N`. An
//! unknown flag, a stray argument or a malformed value prints one `error:`
//! line and exits with status 2.
//!
//! Every report renders through the one [`Report`] writer; `--csv` writes
//! the same rows the table prints.

use aim_isa::{Interpreter, Program, Trace};
use aim_pipeline::{Machine, SimConfig, SimStats};
use aim_workloads::{Scale, Suite, Workload};

pub mod artifact;
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
    find_knee, FilterSweepReport, FilterSweepRow, GeometryGrid, Knee, KneePoint, PcaxSweepReport,
    PcaxSweepRow,
};
pub use hostperf::{
    fingerprint_stats, fingerprint_text, fingerprint_texts, stats_fingerprint, HostperfReport,
    HostperfRow,
};
pub use hybrid::{HybridReport, HybridRow};
pub use litmus::{LitmusReport, LitmusRow};
pub use matrix::{run_matrix, run_matrix_timed, Matrix};
pub use pcax::{PcaxReport, PcaxRow};
pub use report::{render_report, Report, ReportFile};
pub use sampled::{
    sampled_policy, SampledReport, SampledRow, SAMPLE_DETAIL_DIVISOR, SAMPLE_PERIODS,
};
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
    Machine::new(&p.program, &p.trace, cfg.clone())
        .run()
        .unwrap_or_else(|e| panic!("{} under {}: {e}", p.name, cfg.backend.name()))
}

/// Runs a prepared workload under `cfg` as the sole core of a
/// [`MultiMachine`](aim_pipeline::MultiMachine) and returns core 0's
/// statistics. The multi-core refactor's N=1 contract says this is
/// bit-identical (wall clock aside) to [`run`]; `aim-bench hostperf --check`
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

/// Every flag `aim-bench` takes.
pub const FLAGS: &[&str] = &[
    "--scale",
    "--jobs",
    "--csv",
    "--grid",
    "--check",
    "--schedules",
];

/// The shared command line, parsed once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    /// `--scale tiny|small|full|huge` (default `full`).
    pub scale: Scale,
    /// `--jobs N` as given: `0` (the default) defers to `AIM_JOBS`, then
    /// to the host (see [`resolve_jobs`]).
    pub jobs: usize,
    /// `--csv <path>`: also write the table's rows there.
    pub csv: Option<String>,
    /// `--grid tiny|full` (default `full`): the geometry sweeps' CI-sized
    /// 2×2 grid instead of the full study.
    pub grid_tiny: bool,
    /// `--check`: replay the matrix on one worker and require the same
    /// stats fingerprint, then run the artifact's own checks.
    pub check: bool,
    /// `--schedules N`: seeded litmus schedules per cell (absent defers to
    /// `AIM_LITMUS_SCHEDULES`, then 200).
    pub schedules: Option<u64>,
}

impl Default for Options {
    fn default() -> Options {
        Options {
            scale: Scale::Full,
            jobs: 0,
            csv: None,
            grid_tiny: false,
            check: false,
            schedules: None,
        }
    }
}

impl Options {
    /// Parses an argument list (program name excluded): the [`FLAGS`] and
    /// at most one bare argument, the artifact name, returned beside the
    /// options. `--check` is a switch; every other flag takes the next
    /// argument as its value.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for an unknown flag (`--scale=tiny`
    /// included), a second bare argument, a flag without its value, or a
    /// malformed value.
    pub fn parse(args: &[String]) -> Result<(Options, Option<String>), String> {
        let mut opts = Options::default();
        let mut bare = None;
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            let flag = arg.as_str();
            if !flag.starts_with('-') {
                if bare.is_some() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                bare = Some(arg.clone());
                continue;
            }
            if !FLAGS.contains(&flag) {
                return Err(format!("unknown flag `{arg}` (flags: {})", FLAGS.join(" ")));
            }
            if flag == "--check" {
                opts.check = true;
                continue;
            }
            let example = match flag {
                "--scale" | "--grid" => "tiny",
                "--jobs" => "4; 0 defers to AIM_JOBS, then auto-detection",
                "--csv" => "out.csv",
                _ => "8",
            };
            let value = args
                .next()
                .ok_or_else(|| format!("{flag} expects a value (e.g. {flag} {example})"))?;
            let count = || {
                value.parse::<u64>().map_err(|_| {
                    format!(
                        "{flag} expects a non-negative integer, got `{value}` (e.g. {flag} {example})"
                    )
                })
            };
            match flag {
                "--scale" => opts.scale = value.parse().map_err(|e| format!("--scale: {e}"))?,
                "--jobs" => opts.jobs = count()? as usize,
                "--csv" => opts.csv = Some(value.clone()),
                "--grid" => opts.grid_tiny = geometry_sweep::parse_grid(value)?,
                _ => opts.schedules = Some(count()?),
            }
        }
        Ok((opts, bare))
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

#[cfg(test)]
mod tests {
    use super::*;
    use aim_pipeline::MachineClass;
    use aim_predictor::EnforceMode;

    #[test]
    fn prepare_and_run_smoke() {
        let w = aim_workloads::by_name("crafty", Scale::Tiny).unwrap();
        let p = prepare(w, Scale::Tiny);
        let stats = run(
            &p,
            &SimConfig::machine(MachineClass::Baseline)
                .mode(EnforceMode::All)
                .build(),
        );
        assert!(stats.retired > 1_000);
    }

    #[test]
    fn suite_means_split() {
        let rows = vec![(Suite::Int, 1.0), (Suite::Int, 4.0), (Suite::Fp, 2.0)];
        let (int, fp) = suite_means(&rows);
        assert!((int - 2.0).abs() < 1e-12);
        assert!((fp - 2.0).abs() < 1e-12);
    }

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    fn parse(words: &[&str]) -> Result<Options, String> {
        Options::parse(&argv(words)).map(|(opts, _)| opts)
    }

    #[test]
    fn scale_and_flags_parse_from_plain_args() {
        assert_eq!(parse(&[]), Ok(Options::default()));
        assert_eq!(Options::default().scale, Scale::Full);
        let (opts, bare) = Options::parse(&argv(&[
            "pcax", "--scale", "tiny", "--csv", "x.csv", "--check", "--grid", "tiny",
        ]))
        .unwrap();
        assert_eq!(bare.as_deref(), Some("pcax"));
        assert_eq!(
            opts,
            Options {
                scale: Scale::Tiny,
                csv: Some("x.csv".to_string()),
                check: true,
                grid_tiny: true,
                ..Options::default()
            }
        );
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_rejected() {
        for (words, want) in [
            (&["--scale=tiny"][..], "unknown flag `--scale=tiny`"),
            (&["--jobz", "3"][..], "unknown flag `--jobz`"),
            (&["--hash"][..], "unknown flag `--hash`"),
            (&["fig5", "extra"][..], "unexpected argument `extra`"),
        ] {
            let err = parse(words).unwrap_err();
            assert!(err.contains(want), "{words:?}: {err}");
            assert!(!err.contains('\n'), "error must be one line: {err:?}");
        }
    }

    #[test]
    fn jobs_flag_errors_are_one_actionable_line() {
        assert_eq!(parse(&["--jobs", "4"]).map(|o| o.jobs), Ok(4));
        assert_eq!(parse(&["--scale", "tiny"]).map(|o| o.jobs), Ok(0));
        let err = parse(&["--jobs", "x"]).unwrap_err();
        assert!(
            err.contains("--jobs expects a non-negative integer, got `x`"),
            "{err}"
        );
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = parse(&["--jobs"]).unwrap_err();
        assert!(err.contains("--jobs expects a value"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
    }

    #[test]
    fn scale_flag_errors_are_one_actionable_line() {
        assert_eq!(
            parse(&["--scale", "tiny"]).map(|o| o.scale),
            Ok(Scale::Tiny)
        );
        assert_eq!(parse(&["--jobs", "2"]).map(|o| o.scale), Ok(Scale::Full));
        let err = parse(&["--scale", "bogus"]).unwrap_err();
        assert!(err.contains("unknown scale `bogus`"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = parse(&["--scale"]).unwrap_err();
        assert!(err.contains("--scale expects a value"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
    }

    #[test]
    fn schedules_flag_errors_are_one_actionable_line() {
        assert_eq!(
            parse(&["--schedules", "8"]).map(|o| o.schedules),
            Ok(Some(8))
        );
        assert_eq!(parse(&[]).map(|o| o.schedules), Ok(None));
        let err = parse(&["--schedules", "x"]).unwrap_err();
        assert!(
            err.contains("--schedules expects a non-negative integer, got `x`"),
            "{err}"
        );
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = parse(&["--schedules"]).unwrap_err();
        assert!(err.contains("--schedules expects a value"), "{err}");
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
