//! Command-line driver for the `aim-sim` simulator.
//!
//! The `aim-sim` binary runs any workload kernel under any machine
//! configuration and prints a statistics report:
//!
//! ```text
//! aim-sim list
//! aim-sim run gzip --machine baseline --backend sfc-mdt --mode enf
//! aim-sim run swim --machine aggressive --backend lsq --lsq 120x80 --scale full
//! aim-sim compare mcf --scale small
//! ```
//!
//! This crate exposes the argument parsing and report formatting as a
//! library so they can be unit-tested; `src/main.rs` is a thin wrapper.

use std::fmt;
use std::str::FromStr;

use aim_core::{CorruptionPolicy, MdtTagging};
use aim_pipeline::{SimConfig, SimStats};

pub use aim_pipeline::{BackendChoice, BackendConfig, ConfigSpec};
use aim_workloads::Scale;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// List the available kernels.
    List,
    /// Run one kernel under one configuration.
    Run(RunArgs),
    /// Run one kernel under every backend and print each report.
    Compare(RunArgs),
    /// Assemble and run a `.s` source file (the kernel field is the path).
    Asm(RunArgs),
    /// Run the multi-core memory-model litmus suite.
    Litmus(LitmusArgs),
    /// Run the job server (socket, stdio pipe, or the replay gate).
    Serve(ServeArgs),
    /// Submit one job to a serving socket.
    Submit(SubmitArgs),
    /// Print usage.
    Help,
}

/// Options for the `serve` command. Exactly one of `socket`, `stdio`, or
/// `replay` selects the mode.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Listen on this Unix-domain socket path.
    pub socket: Option<String>,
    /// Serve a single connection over stdin/stdout (subprocess pipe mode).
    pub stdio: bool,
    /// Replay the hostperf matrix cold/warm against the cache and print
    /// the `cache-consistent` verdict.
    pub replay: bool,
    /// Result-cache directory.
    pub cache: String,
    /// Simulation worker threads (0 = `AIM_JOBS`, then host parallelism).
    pub workers: usize,
    /// Replay workload scale.
    pub scale: Scale,
    /// Replay rounds (round 0 cold, the rest warm; minimum 2).
    pub rounds: usize,
    /// Concurrent replay client connections.
    pub clients: usize,
    /// Append a verify round recomputing every replay cell.
    pub verify: bool,
}

impl Default for ServeArgs {
    fn default() -> ServeArgs {
        ServeArgs {
            socket: None,
            stdio: false,
            replay: false,
            cache: ".aim-serve-cache".to_string(),
            workers: 0,
            scale: Scale::Tiny,
            rounds: 2,
            clients: 4,
            verify: false,
        }
    }
}

/// Options for the `submit` command.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitArgs {
    /// The serving socket to connect to.
    pub socket: String,
    /// Kernel name (empty when `shutdown` is set).
    pub kernel: String,
    /// The machine configuration, from the flags `run` takes too.
    pub config: ConfigSpec,
    /// Workload scale.
    pub scale: Scale,
    /// Ask the server to recompute and byte-compare the cached entry.
    pub verify: bool,
    /// Bypass the cache lookup (always simulate).
    pub no_cache: bool,
    /// Send a shutdown request instead of a job.
    pub shutdown: bool,
}

impl Default for SubmitArgs {
    fn default() -> SubmitArgs {
        SubmitArgs {
            socket: String::new(),
            kernel: String::new(),
            config: ConfigSpec::default(),
            scale: Scale::Tiny,
            verify: false,
            no_cache: false,
            shutdown: false,
        }
    }
}

/// Options for the `litmus` command.
#[derive(Debug, Clone, PartialEq)]
pub struct LitmusArgs {
    /// Run only the named test (`SB`, `SB+fwd`, `MP`, `MP+fwd`, `LB`,
    /// `IRIW`); `None` runs the whole suite.
    pub test: Option<String>,
    /// Run only this backend; `None` runs all six.
    pub backend: Option<BackendChoice>,
    /// Seeded random core schedules per (test, backend); round-robin always
    /// runs in addition.
    pub schedules: u64,
    /// Run the release-build integrity checks during every schedule.
    pub paranoid: bool,
}

impl Default for LitmusArgs {
    fn default() -> LitmusArgs {
        LitmusArgs {
            test: None,
            backend: None,
            schedules: 200,
            paranoid: false,
        }
    }
}

/// Options shared by `run`, `compare`, and `asm`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Kernel name (see `aim-sim list`).
    pub kernel: String,
    /// The machine configuration, from the flags `submit` takes too.
    pub config: ConfigSpec,
    /// Dynamic instruction budget.
    pub scale: Scale,
    /// Use the untagged MDT variant.
    pub untagged: bool,
    /// Use the flush-endpoint SFC variant.
    pub endpoints: bool,
    /// Enable the §4 MDT search filter.
    pub filter: bool,
    /// Print the last N pipeline events after the run.
    pub trace: usize,
    /// Render the last N retired instructions as pipeline timelines.
    pub pipeview: usize,
    /// Print host time per pipeline stage after the run.
    pub stage_times: bool,
    /// Worker threads for `compare` sweeps (0 = `AIM_JOBS`, then host
    /// parallelism).
    pub jobs: usize,
    /// Run the select oracle and store-census integrity checks even in
    /// release builds.
    pub paranoid: bool,
}

impl Default for RunArgs {
    fn default() -> RunArgs {
        RunArgs {
            kernel: String::new(),
            config: ConfigSpec::default(),
            scale: Scale::Small,
            untagged: false,
            endpoints: false,
            filter: false,
            trace: 0,
            pipeview: 0,
            stage_times: false,
            jobs: 0,
            paranoid: false,
        }
    }
}

/// Errors from argument parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// The usage string printed by `aim-sim help`.
pub const USAGE: &str = "\
aim-sim — the SFC/MDT memory-disambiguation simulator (MICRO-38 reproduction)

USAGE:
  aim-sim list                       list available kernels
  aim-sim run <kernel> [options]     simulate one kernel
  aim-sim compare <kernel> [options] simulate under all six backends
  aim-sim asm <file.s> [options]     assemble and simulate a source file
  aim-sim litmus [litmus options]    run the multi-core memory-model litmus suite
  aim-sim serve --replay|--socket PATH|--stdio [serve options]
                                     run the caching job server (or its replay gate)
  aim-sim submit <kernel>|--shutdown --socket PATH [submit options]
                                     send one job to a serving socket

CONFIG OPTIONS (run, compare, asm, submit):
  --machine baseline|aggressive|huge
                                  pipeline configuration      [baseline]
  --backend sfc-mdt|lsq|filtered|pcax|oracle|nospec
                                  memory-ordering machinery   [sfc-mdt]
  --mode enf|not-enf|total        predictor enforcement       [by machine class]
                                  (compare applies it to sfc-mdt and pcax only)
  --lsq LxS                       LSQ capacity, e.g. 120x80   [by machine class]
  --pcax SxW                      PCAX table geometry, e.g. 256x1   [1024x2]
  --pcax-act N                    PCAX no-alias acting threshold 1..=3  [2]
  --filt SxW                      filtered-LSQ filter geometry      [256x2]
  --filt-count N                  filter counter saturation point      [15]
  --far LATxMSHRSxBATCH           far-memory tier behind the L2, e.g. 400x64x8
  --sample WARMxDETAILxPERIODS    sampled simulation: warm up functionally, then
                                  simulate in detail, repeated, e.g. 20000x2000x10
  --scale tiny|small|full|huge    instruction budget  [small; tiny for submit]

RUN OPTIONS (run, compare, asm):
  --untagged                      untagged MDT variant (§2.2)
  --endpoints                     flush-endpoint SFC variant (§3.2)
  --filter                        MDT search filter (§4 future work)
  --trace N                       print the last N pipeline events
  --pipeview N                    draw stage timelines for the last N retirements
  --stage-times                   print host ns per cycle spent in each pipeline stage
                                  (sampled runs: warm ns per instruction and MIPS)
  --jobs N                        worker threads for compare sweeps [AIM_JOBS/auto]
  --paranoid                      run the release-build integrity checks every cycle

LITMUS OPTIONS:
  --test NAME                     one of SB, SB+fwd, MP, MP+fwd, LB, IRIW  [all]
  --backend TOKEN                 one backend                              [all]
  --schedules N                   seeded random core schedules per cell    [200]
  --paranoid                      as above

SERVE OPTIONS:
  --cache DIR                     result-cache directory     [.aim-serve-cache]
  --workers N                     simulation worker threads  [AIM_JOBS/auto]
  --scale tiny|small|full|huge    replay workload scale      [tiny]
  --rounds N                      replay rounds, cold + warm [2]
  --clients N                     replay client connections  [4]
  --verify                        append a replay verify round

SUBMIT OPTIONS (plus the config options):
  --verify                        recompute and byte-compare the cached entry
  --no-cache                      bypass the cache lookup (always simulate)
";

/// Parses a command line (without the program name).
///
/// # Errors
///
/// Returns [`ParseError`] for unknown commands, kernels left unspecified,
/// or malformed option values.
pub fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let mut it = args.iter();
    let cmd = match it.next().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => return Ok(Command::Help),
        Some("list") => return Ok(Command::List),
        Some("litmus") => return parse_litmus(it),
        Some("serve") => return parse_serve(it),
        Some("submit") => return parse_submit(it),
        Some(c @ ("run" | "compare" | "asm")) => c.to_string(),
        Some(other) => return Err(ParseError(format!("unknown command `{other}`"))),
    };

    let mut run = RunArgs {
        kernel: it
            .next()
            .ok_or_else(|| ParseError("missing kernel name".to_string()))?
            .clone(),
        ..RunArgs::default()
    };

    while let Some(flag) = it.next() {
        if config_flag(&mut run.config, flag, &mut it)? {
            continue;
        }
        let mut value = || value_of(flag, &mut it);
        match flag.as_str() {
            "--scale" => run.scale = value()?.parse().map_err(ParseError)?,
            "--untagged" => run.untagged = true,
            "--endpoints" => run.endpoints = true,
            "--filter" => run.filter = true,
            "--pipeview" => run.pipeview = number("pipeview length", &value()?)?,
            "--trace" => run.trace = number("trace length", &value()?)?,
            "--stage-times" => run.stage_times = true,
            "--jobs" => run.jobs = number("job count", &value()?)?,
            "--paranoid" => run.paranoid = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }
    run.config.validate().map_err(ParseError)?;

    Ok(match cmd.as_str() {
        "run" => Command::Run(run),
        "asm" => Command::Asm(run),
        _ => Command::Compare(run),
    })
}

/// The one parser of the machine-configuration flags `run`, `compare`,
/// `asm`, and `submit` share: a flag is `--` plus a [`ConfigSpec::FIELDS`]
/// name with `_` written `-` (`--pcax-act`), and its value is that field's
/// token. Applies `flag` (taking its value from `it`) and returns true, or
/// returns false for any other flag.
fn config_flag(
    config: &mut ConfigSpec,
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
) -> Result<bool, ParseError> {
    let name = flag.strip_prefix("--").map(|name| name.replace('-', "_"));
    let Some(field) = ConfigSpec::FIELDS
        .into_iter()
        .find(|f| name.as_deref() == Some(*f))
    else {
        return Ok(false);
    };
    config.set(field, &value_of(flag, it)?).map_err(ParseError)?;
    Ok(true)
}

/// The word after `flag` on the command line: its value.
fn value_of(flag: &str, it: &mut std::slice::Iter<'_, String>) -> Result<String, ParseError> {
    it.next()
        .cloned()
        .ok_or_else(|| ParseError(format!("{flag} needs a value")))
}

/// Parses a count, naming `what` when it is not a number.
fn number<T: FromStr>(what: &str, token: &str) -> Result<T, ParseError> {
    token
        .parse()
        .map_err(|_| ParseError(format!("bad {what} `{token}`")))
}

/// Parses the options of the `litmus` command.
fn parse_litmus(mut it: std::slice::Iter<'_, String>) -> Result<Command, ParseError> {
    let mut args = LitmusArgs::default();
    while let Some(flag) = it.next() {
        let mut value = || value_of(flag, &mut it);
        match flag.as_str() {
            "--test" => args.test = Some(value()?),
            "--backend" => {
                args.backend = Some(
                    value()?
                        .parse()
                        .map_err(|e: aim_pipeline::UnknownBackend| ParseError(e.to_string()))?,
                );
            }
            "--schedules" => args.schedules = number("schedule count", &value()?)?,
            "--paranoid" => args.paranoid = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }
    Ok(Command::Litmus(args))
}

/// Parses the options of the `serve` command.
fn parse_serve(mut it: std::slice::Iter<'_, String>) -> Result<Command, ParseError> {
    let mut args = ServeArgs::default();
    while let Some(flag) = it.next() {
        let mut value = || value_of(flag, &mut it);
        match flag.as_str() {
            "--socket" => args.socket = Some(value()?),
            "--stdio" => args.stdio = true,
            "--replay" => args.replay = true,
            "--cache" => args.cache = value()?,
            "--workers" => args.workers = number("worker count", &value()?)?,
            "--scale" => args.scale = value()?.parse().map_err(ParseError)?,
            "--rounds" => args.rounds = number("round count", &value()?)?,
            "--clients" => args.clients = number("client count", &value()?)?,
            "--verify" => args.verify = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }
    let modes = usize::from(args.socket.is_some()) + usize::from(args.stdio) + usize::from(args.replay);
    if modes != 1 {
        return Err(ParseError(
            "serve needs exactly one of --socket PATH, --stdio, or --replay".to_string(),
        ));
    }
    if args.replay && args.rounds < 2 {
        return Err(ParseError(format!(
            "--replay needs at least 2 rounds (one cold, one warm), got {}",
            args.rounds
        )));
    }
    Ok(Command::Serve(args))
}

/// Parses the options of the `submit` command.
fn parse_submit(mut it: std::slice::Iter<'_, String>) -> Result<Command, ParseError> {
    let mut args = SubmitArgs::default();
    // The kernel is the first word unless the request is a pure-flag form
    // (`submit --shutdown --socket …`).
    if let Some(first) = it.clone().next() {
        if !first.starts_with("--") {
            args.kernel = first.clone();
            it.next();
        }
    }
    while let Some(flag) = it.next() {
        if config_flag(&mut args.config, flag, &mut it)? {
            continue;
        }
        let mut value = || value_of(flag, &mut it);
        match flag.as_str() {
            "--socket" => args.socket = value()?,
            "--scale" => args.scale = value()?.parse().map_err(ParseError)?,
            "--verify" => args.verify = true,
            "--no-cache" => args.no_cache = true,
            "--shutdown" => args.shutdown = true,
            other => return Err(ParseError(format!("unknown option `{other}`"))),
        }
    }
    args.config.validate().map_err(ParseError)?;
    if args.socket.is_empty() {
        return Err(ParseError("submit needs --socket PATH".to_string()));
    }
    if args.kernel.is_empty() && !args.shutdown {
        return Err(ParseError("submit needs a kernel name (or --shutdown)".to_string()));
    }
    Ok(Command::Submit(args))
}

/// Builds the [`SimConfig`] a [`RunArgs`] describes: its [`ConfigSpec`]
/// plus the run-only structure variants and integrity checks. (`--trace`,
/// `--pipeview` and `--stage-times` are not configuration: they choose the
/// run's probes.)
pub fn build_config(args: &RunArgs) -> SimConfig {
    let mut cfg = args.config.to_config();
    if let BackendConfig::SfcMdt { sfc, mdt } = &mut cfg.backend {
        if args.untagged {
            mdt.tagging = MdtTagging::Untagged;
        }
        if args.endpoints {
            sfc.corruption = CorruptionPolicy::FlushEndpoints { capacity: 16 };
        }
    }
    cfg.mdt_filter = args.filter;
    cfg.paranoid = args.paranoid;
    cfg
}

/// One `compare` column: `args` under `backend`. `--mode` steers only the
/// SFC/MDT-family columns (PCAX wraps the SFC/MDT); every other column
/// keeps its builder-default mode.
pub fn compare_column(args: &RunArgs, backend: BackendChoice) -> RunArgs {
    let sfc_family = matches!(backend, BackendChoice::SfcMdt | BackendChoice::Pcax);
    RunArgs {
        config: ConfigSpec {
            backend,
            mode: args.config.mode.filter(|_| sfc_family),
            ..args.config
        },
        ..args.clone()
    }
}

/// Formats a full statistics report for one run.
pub fn report(name: &str, backend: &str, stats: &SimStats) -> String {
    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    line(format!("== {name} under {backend} =="));
    line(format!(
        "  retired {:>9} instructions in {:>9} cycles   IPC {:.3}",
        stats.retired,
        stats.cycles,
        stats.ipc()
    ));
    if let Some(s) = &stats.sampled {
        line(format!(
            "  sampled: {} detailed windows  {} detail / {} warm retired  ({:.2}% detail); \
             cycles and rates are extrapolated",
            s.periods_run,
            s.detail_retired,
            s.warm_retired,
            s.detail_fraction()
        ));
    }
    line(format!(
        "  loads {:>7}  stores {:>7}  forwarded {:>6} ({:.2}% of loads)",
        stats.retired_loads,
        stats.retired_stores,
        stats.loads_forwarded,
        aim_types::percent(stats.loads_forwarded, stats.retired_loads)
    ));
    line(format!(
        "  branches {:>6}  mispredicted {:>5} ({:.2}%)",
        stats.branches_retired,
        stats.branch_mispredicts,
        aim_types::percent(stats.branch_mispredicts, stats.branches_retired)
    ));
    line(format!(
        "  flushes: branch {:>5}  true {:>4}  anti {:>4}  output {:>4}",
        stats.flushes.branch,
        stats.flushes.true_dep,
        stats.flushes.anti_dep,
        stats.flushes.output_dep
    ));
    if let Some(sfc) = stats.backend.sfc() {
        line(format!(
            "  SFC: conflicts {:>5}  corrupt replays {:>5}  partial/full flushes {}/{}",
            stats.replays.store_sfc_conflicts,
            stats.replays.load_corrupt,
            sfc.partial_flushes,
            sfc.full_flushes
        ));
    }
    if stats.backend.mdt().is_some() {
        line(format!(
            "  MDT: load conflicts {:>5}  store conflicts {:>5}  head bypasses {:>4}",
            stats.replays.load_mdt_conflicts,
            stats.replays.store_mdt_conflicts,
            stats.head_bypasses
        ));
        if stats.mdt_filtered_loads > 0 {
            line(format!(
                "  MDT search filter: {:>6} load checks skipped",
                stats.mdt_filtered_loads
            ));
        }
    }
    if let Some(lsq) = stats.backend.lsq() {
        line(format!(
            "  LSQ: SQ searches {:>7}  LQ searches {:>7}  peak {}x{}  dispatch stalls {}",
            lsq.sq_searches,
            lsq.lq_searches,
            lsq.peak_lq,
            lsq.peak_sq,
            stats.dispatch_stalls.lq_full + stats.dispatch_stalls.sq_full
        ));
    }
    if let Some(f) = stats.backend.filtered() {
        line(format!(
            "  LSQ: SQ searches {:>7}  LQ searches {:>7}  peak {}x{}  dispatch stalls {}",
            f.lsq.sq_searches,
            f.lsq.lq_searches,
            f.lsq.peak_lq,
            f.lsq.peak_sq,
            stats.dispatch_stalls.lq_full + stats.dispatch_stalls.sq_full
        ));
        line(format!(
            "  filter: {:>7} loads skipped the CAM ({:.2}%)  false hits {:>5}  saturations {:>4}",
            f.filter.filtered_loads,
            aim_types::percent(
                f.filter.filtered_loads,
                f.filter.filtered_loads + f.filter.searched_loads
            ),
            f.filter.false_positive_hits,
            f.filter.saturation_fallbacks
        ));
    }
    if let Some(p) = stats.backend.pcax() {
        let pr = &p.pred;
        line(format!(
            "  pcax: no-alias {:>7}  forward {:>6}  unknown {:>7}  coverage {:.2}%  accuracy {:.2}%",
            pr.loads_no_alias,
            pr.loads_forward,
            pr.loads_unknown,
            100.0 * pr.coverage(),
            100.0 * pr.accuracy()
        ));
        line(format!(
            "  pcax: SFC probes skipped {:>7}  vetoes {:>5}  wait replays {:>6}  trainings {:>5}",
            pr.sfc_probes_skipped, pr.no_alias_vetoed, pr.forward_wait_replays, pr.violation_trainings
        ));
    }
    if let Some(o) = stats.backend.oracle() {
        line(format!(
            "  oracle: full forwards {:>7}  partial {:>5}  order waits {:>7}",
            o.full_forwards, o.partial_forwards, o.order_waits
        ));
    }
    if let Some(n) = stats.backend.nospec() {
        line(format!(
            "  no-spec: order waits {:>7}  peak in-flight stores {}",
            n.order_waits, n.peak_inflight_stores
        ));
    }
    let (l1i, l1d, l2) = stats.caches;
    line(format!(
        "  caches: L1I {:.1}%  L1D {:.1}%  L2 {:.1}% hit",
        l1i.hit_rate(),
        l1d.hit_rate(),
        l2.hit_rate()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_lsq::LsqConfig;
    use aim_pipeline::{FarSpec, FilterConfig, JobSpec, MachineClass, PcaxConfig, SampleSpec};
    use aim_predictor::EnforceMode;

    fn parse(words: &[&str]) -> Result<Command, ParseError> {
        let v: Vec<String> = words.iter().map(|s| s.to_string()).collect();
        parse_args(&v)
    }

    #[test]
    fn help_and_list() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&["list"]).unwrap(), Command::List);
    }

    #[test]
    fn run_defaults() {
        let Command::Run(args) = parse(&["run", "gzip"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.kernel, "gzip");
        assert_eq!(
            args.config,
            ConfigSpec::new(MachineClass::Baseline, BackendChoice::SfcMdt)
        );
        // No `--mode`: the builder's class default (ENF on the baseline).
        assert_eq!(args.config.mode, None);
        assert_eq!(build_config(&args).dep_predictor.mode, EnforceMode::All);
    }

    #[test]
    fn full_option_set() {
        let Command::Compare(args) = parse(&[
            "compare",
            "swim",
            "--machine",
            "aggressive",
            "--backend",
            "lsq",
            "--mode",
            "total",
            "--lsq",
            "120x80",
            "--scale",
            "full",
            "--untagged",
            "--endpoints",
        ])
        .unwrap() else {
            panic!("expected compare");
        };
        assert_eq!(args.config.machine, MachineClass::Aggressive);
        assert_eq!(args.config.backend, BackendChoice::Lsq);
        assert_eq!(args.config.mode, Some(EnforceMode::TotalOrder));
        assert_eq!(args.config.lsq, Some(LsqConfig::aggressive_120x80()));
        assert_eq!(args.scale, Scale::Full);
        assert!(args.untagged && args.endpoints);
    }

    #[test]
    fn huge_machine_and_far_tier_parse() {
        let Command::Run(args) =
            parse(&["run", "swim", "--machine", "huge", "--far", "400x64x8"]).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(args.config.machine, MachineClass::Huge);
        assert_eq!(args.config.far, Some(FarSpec::new(400, 64, 8)));
        let cfg = build_config(&args);
        assert_eq!(cfg.rob_entries, 4096);
        assert_eq!(cfg.hierarchy.far, Some(FarSpec::new(400, 64, 8)));
        assert!(parse(&["run", "x", "--machine", "colossal"])
            .unwrap_err()
            .0
            .contains("baseline|aggressive|huge"));
        assert!(parse(&["run", "x", "--far", "400x64"])
            .unwrap_err()
            .0
            .contains("LATENCYxMSHRSxBATCH"));
        assert!(parse(&["run", "x", "--far", "400x0x8"])
            .unwrap_err()
            .0
            .contains("nonzero"));
    }

    #[test]
    fn sample_policy_parses_and_builds() {
        let Command::Run(args) =
            parse(&["run", "swim", "--scale", "huge", "--sample", "20000x2000x10"]).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(args.scale, Scale::Huge);
        assert_eq!(args.config.sample, SampleSpec::new(20_000, 2_000, 10));
        let cfg = build_config(&args);
        assert_eq!(cfg.sample, SampleSpec::new(20_000, 2_000, 10));
        // Default stays off: byte-identical full-detail configuration.
        assert_eq!(build_config(&RunArgs::default()).sample, None);
        assert!(parse(&["run", "x", "--sample", "20000x2000"])
            .unwrap_err()
            .0
            .contains("WARMxDETAILxPERIODS"));
        assert!(parse(&["run", "x", "--sample", "20000x0x10"])
            .unwrap_err()
            .0
            .contains("nonzero"));

        let Command::Submit(args) = parse(&[
            "submit", "swim", "--socket", "/tmp/s.sock", "--sample", "4000x1000x8",
        ])
        .unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(args.config.sample, SampleSpec::new(4_000, 1_000, 8));
    }

    #[test]
    fn asm_command_parses() {
        let Command::Asm(args) = parse(&["asm", "prog.s", "--trace", "16"]).unwrap() else {
            panic!("expected asm");
        };
        assert_eq!(args.kernel, "prog.s");
        assert_eq!(args.trace, 16);
        assert!(parse(&["asm"]).unwrap_err().0.contains("missing kernel"));
        let Command::Run(args) = parse(&["run", "gzip", "--pipeview", "24"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.pipeview, 24);
        assert!(parse(&["run", "x", "--pipeview", "many"])
            .unwrap_err()
            .0
            .contains("bad pipeview length"));
        assert!(parse(&["run", "x", "--trace", "lots"])
            .unwrap_err()
            .0
            .contains("bad trace length"));
        let Command::Run(args) = parse(&["run", "mcf", "--stage-times"]).unwrap() else {
            panic!("expected run");
        };
        assert!(args.stage_times);
    }

    #[test]
    fn jobs_flag_parses() {
        let Command::Compare(args) = parse(&["compare", "mcf", "--jobs", "4"]).unwrap() else {
            panic!("expected compare");
        };
        assert_eq!(args.jobs, 4);
        assert_eq!(RunArgs::default().jobs, 0);
        assert!(parse(&["compare", "mcf", "--jobs", "many"])
            .unwrap_err()
            .0
            .contains("bad job count"));
    }

    #[test]
    fn litmus_command_parses() {
        assert_eq!(
            parse(&["litmus"]).unwrap(),
            Command::Litmus(LitmusArgs::default())
        );
        let Command::Litmus(args) = parse(&[
            "litmus",
            "--test",
            "SB+fwd",
            "--backend",
            "lsq",
            "--schedules",
            "32",
            "--paranoid",
        ])
        .unwrap() else {
            panic!("expected litmus");
        };
        assert_eq!(args.test.as_deref(), Some("SB+fwd"));
        assert_eq!(args.backend, Some(BackendChoice::Lsq));
        assert_eq!(args.schedules, 32);
        assert!(args.paranoid);
        assert!(parse(&["litmus", "--schedules", "lots"])
            .unwrap_err()
            .0
            .contains("bad schedule count"));
        assert!(parse(&["litmus", "--backend", "psychic"])
            .unwrap_err()
            .0
            .contains("unknown backend"));
        assert!(parse(&["litmus", "--bogus"])
            .unwrap_err()
            .0
            .contains("unknown option"));
    }

    #[test]
    fn serve_command_parses() {
        let Command::Serve(args) = parse(&[
            "serve", "--replay", "--scale", "tiny", "--rounds", "3", "--clients", "2",
            "--cache", "/tmp/c", "--workers", "8", "--verify",
        ])
        .unwrap() else {
            panic!("expected serve");
        };
        assert!(args.replay && !args.stdio && args.socket.is_none());
        assert_eq!((args.rounds, args.clients, args.workers), (3, 2, 8));
        assert_eq!(args.cache, "/tmp/c");
        assert_eq!(args.scale, Scale::Tiny);
        assert!(args.verify);

        let Command::Serve(args) = parse(&["serve", "--socket", "/tmp/s.sock"]).unwrap() else {
            panic!("expected serve");
        };
        assert_eq!(args.socket.as_deref(), Some("/tmp/s.sock"));

        // Exactly one mode; replay needs a warm round.
        assert!(parse(&["serve"]).unwrap_err().0.contains("exactly one"));
        assert!(parse(&["serve", "--stdio", "--replay"])
            .unwrap_err()
            .0
            .contains("exactly one"));
        assert!(parse(&["serve", "--replay", "--rounds", "1"])
            .unwrap_err()
            .0
            .contains("at least 2 rounds"));
        assert!(parse(&["serve", "--replay", "--workers", "many"])
            .unwrap_err()
            .0
            .contains("bad worker count"));
    }

    #[test]
    fn submit_command_parses() {
        let Command::Submit(args) = parse(&[
            "submit", "gzip", "--socket", "/tmp/s.sock", "--machine", "aggressive",
            "--backend", "lsq", "--lsq", "120x80", "--scale", "tiny", "--verify",
        ])
        .unwrap() else {
            panic!("expected submit");
        };
        assert_eq!(args.kernel, "gzip");
        assert!(args.verify && !args.no_cache);
        let spec = args.config;
        assert_eq!(spec.machine, MachineClass::Aggressive);
        assert_eq!(spec.backend, BackendChoice::Lsq);
        assert_eq!(spec.lsq, Some(LsqConfig::aggressive_120x80()));

        let Command::Submit(args) = parse(&[
            "submit", "swim", "--socket", "/tmp/s.sock", "--machine", "huge",
            "--backend", "pcax", "--pcax", "256x1", "--pcax-act", "3",
            "--filt", "512x4", "--filt-count", "31", "--far", "400x64x8",
        ])
        .unwrap() else {
            panic!("expected submit");
        };
        let spec = args.config;
        assert_eq!(spec.machine, MachineClass::Huge);
        assert_eq!(spec.pcax, Some((256, 1)));
        assert_eq!(spec.pcax_act, Some(3));
        assert_eq!(spec.filt, Some((512, 4)));
        assert_eq!(spec.filt_count, Some(31));
        assert_eq!(spec.far, Some(FarSpec::new(400, 64, 8)));

        let Command::Submit(args) =
            parse(&["submit", "--shutdown", "--socket", "/tmp/s.sock"]).unwrap()
        else {
            panic!("expected submit");
        };
        assert!(args.shutdown && args.kernel.is_empty());

        assert!(parse(&["submit", "gzip"]).unwrap_err().0.contains("--socket"));
        assert!(parse(&["submit", "--socket", "/tmp/s.sock"])
            .unwrap_err()
            .0
            .contains("kernel"));
        assert!(parse(&["submit", "gzip", "--socket", "/tmp/s", "--lsq", "0x0"])
            .unwrap_err()
            .0
            .contains("at least one entry"));
    }

    #[test]
    fn paranoid_flag_reaches_the_config() {
        let Command::Run(args) = parse(&["run", "gzip", "--paranoid"]).unwrap() else {
            panic!("expected run");
        };
        assert!(args.paranoid);
        assert!(build_config(&args).paranoid);
        assert!(!build_config(&RunArgs::default()).paranoid);
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(&["frobnicate"])
            .unwrap_err()
            .0
            .contains("unknown command"));
        assert!(parse(&["run"]).unwrap_err().0.contains("missing kernel"));
        assert!(parse(&["run", "x", "--lsq", "banana"])
            .unwrap_err()
            .0
            .contains("LxS"));
        assert!(parse(&["run", "x", "--mode"])
            .unwrap_err()
            .0
            .contains("needs a value"));
        assert!(parse(&["run", "x", "--bogus"])
            .unwrap_err()
            .0
            .contains("unknown option"));
    }

    #[test]
    fn build_config_respects_variants() {
        let mut args = RunArgs {
            kernel: "gzip".into(),
            untagged: true,
            endpoints: true,
            filter: true,
            ..RunArgs::default()
        };
        let cfg = build_config(&args);
        match cfg.backend {
            BackendConfig::SfcMdt { sfc, mdt } => {
                assert_eq!(mdt.tagging, MdtTagging::Untagged);
                assert!(matches!(
                    sfc.corruption,
                    CorruptionPolicy::FlushEndpoints { capacity: 16 }
                ));
                assert!(cfg.mdt_filter);
            }
            _ => panic!("expected SFC/MDT backend"),
        }
        args.config.backend = BackendChoice::Lsq;
        args.config.lsq = Some(LsqConfig {
            load_entries: 7,
            store_entries: 9,
        });
        match build_config(&args).backend {
            BackendConfig::Lsq(l) => {
                assert_eq!((l.load_entries, l.store_entries), (7, 9));
            }
            _ => panic!("expected LSQ backend"),
        }
    }

    #[test]
    fn filtered_backend_parses_and_builds() {
        let Command::Run(args) =
            parse(&["run", "gzip", "--backend", "filtered", "--lsq", "24x16"]).unwrap()
        else {
            panic!("expected run");
        };
        assert_eq!(args.config.backend, BackendChoice::Filtered);
        match build_config(&args).backend {
            BackendConfig::FilteredLsq { lsq, .. } => {
                assert_eq!((lsq.load_entries, lsq.store_entries), (24, 16));
            }
            other => panic!("expected filtered LSQ backend, got {other:?}"),
        }
        let mut aggr = args.clone();
        aggr.config.machine = MachineClass::Aggressive;
        assert!(matches!(
            build_config(&aggr).backend,
            BackendConfig::FilteredLsq { lsq, .. }
                if (lsq.load_entries, lsq.store_entries) == (24, 16)
        ));
        assert_eq!(BackendChoice::ALL.len(), 6);
    }

    #[test]
    fn pcax_backend_parses_and_builds() {
        let Command::Run(args) = parse(&["run", "gzip", "--backend", "pcax"]).unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.config.backend, BackendChoice::Pcax);
        match build_config(&args).backend {
            BackendConfig::Pcax { pcax, .. } => assert_eq!(pcax.table.sets, 1024),
            other => panic!("expected PCAX backend, got {other:?}"),
        }
        let mut aggr = args;
        aggr.config.machine = MachineClass::Aggressive;
        assert!(matches!(
            build_config(&aggr).backend,
            BackendConfig::Pcax { mdt, .. } if mdt.sets == 8192
        ));
    }

    #[test]
    fn pcax_geometry_knobs_parse_and_build() {
        let Command::Run(args) = parse(&[
            "run", "gzip", "--backend", "pcax", "--pcax", "64x1", "--pcax-act", "3",
        ])
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.config.pcax, Some((64, 1)));
        assert_eq!(args.config.pcax_act, Some(3));
        match build_config(&args).backend {
            BackendConfig::Pcax { pcax, .. } => {
                assert_eq!((pcax.table.sets, pcax.table.ways), (64, 1));
                assert_eq!(pcax.no_alias_act, 3);
                assert_eq!(pcax.forward_act, PcaxConfig::baseline().forward_act);
            }
            other => panic!("expected PCAX backend, got {other:?}"),
        }
        // One knob alone keeps the other at baseline.
        let Command::Run(solo) = parse(&["run", "gzip", "--backend", "pcax", "--pcax-act", "1"])
            .unwrap()
        else {
            panic!("expected run");
        };
        assert!(matches!(
            build_config(&solo).backend,
            BackendConfig::Pcax { pcax, .. }
                if pcax.table == PcaxConfig::baseline().table && pcax.no_alias_act == 1
        ));
        assert!(parse(&["run", "x", "--pcax", "64"])
            .unwrap_err()
            .0
            .contains("SETSxWAYS"));
        assert!(parse(&["run", "x", "--pcax-act", "often"])
            .unwrap_err()
            .0
            .contains("bad pcax threshold"));
    }

    #[test]
    fn filter_geometry_knobs_parse_and_build() {
        let Command::Run(args) = parse(&[
            "run", "gzip", "--backend", "filtered", "--filt", "16x1", "--filt-count", "3",
        ])
        .unwrap() else {
            panic!("expected run");
        };
        assert_eq!(args.config.filt, Some((16, 1)));
        assert_eq!(args.config.filt_count, Some(3));
        match build_config(&args).backend {
            BackendConfig::FilteredLsq { filter, .. } => {
                assert_eq!((filter.sets, filter.ways, filter.max_count), (16, 1, 3));
            }
            other => panic!("expected filtered LSQ backend, got {other:?}"),
        }
        // Without the knobs the builder default stays the baseline filter.
        let Command::Run(plain) = parse(&["run", "gzip", "--backend", "filtered"]).unwrap() else {
            panic!("expected run");
        };
        assert!(matches!(
            build_config(&plain).backend,
            BackendConfig::FilteredLsq { filter, .. } if filter == FilterConfig::baseline()
        ));
        assert!(parse(&["run", "x", "--filt-count", "lots"])
            .unwrap_err()
            .0
            .contains("bad filter count"));
    }

    #[test]
    fn bounds_backends_parse_and_build() {
        for (word, choice, expect) in [
            ("oracle", BackendChoice::Oracle, BackendConfig::Oracle),
            ("nospec", BackendChoice::NoSpec, BackendConfig::NoSpec),
        ] {
            let Command::Run(args) = parse(&["run", "gzip", "--backend", word]).unwrap() else {
                panic!("expected run");
            };
            assert_eq!(args.config.backend, choice);
            assert_eq!(build_config(&args).backend, expect);
            let mut aggr = args.clone();
            aggr.config.machine = MachineClass::Aggressive;
            assert_eq!(build_config(&aggr).backend, expect);
        }
        assert!(parse(&["run", "x", "--backend", "psychic"])
            .unwrap_err()
            .0
            .contains("unknown backend"));
    }

    /// The `--flag value` words that name `spec` (one per set field).
    fn flags_of(spec: &ConfigSpec) -> Vec<String> {
        spec.tokens()
            .into_iter()
            .flat_map(|(field, token)| [format!("--{}", field.replace('_', "-")), token])
            .collect()
    }

    fn run_and_submit(flags: &[String]) -> (RunArgs, SubmitArgs) {
        let words = |head: &[&str]| -> Vec<String> {
            head.iter()
                .map(|w| w.to_string())
                .chain(flags.iter().cloned())
                .collect()
        };
        let Ok(Command::Run(run)) = parse_args(&words(&["run", "gzip"])) else {
            panic!("run rejected {flags:?}");
        };
        let Ok(Command::Submit(submit)) = parse_args(&words(&["submit", "gzip", "--socket", "s"]))
        else {
            panic!("submit rejected {flags:?}");
        };
        (run, submit)
    }

    #[test]
    fn run_and_submit_name_every_cell_identically() {
        let cells = aim_bench::specs::hostperf_configs()
            .into_iter()
            .chain(aim_bench::specs::farmem_configs());
        let mut cases: Vec<(Vec<String>, Option<ConfigSpec>)> = cells
            .map(|(_, spec)| (flags_of(&spec), Some(spec)))
            .collect();
        // The two spellings whose defaults once differed between surfaces.
        for words in [
            ["--machine", "huge", "--backend", "lsq"].as_slice(),
            &["--machine", "aggressive"],
        ] {
            cases.push((words.iter().map(|w| w.to_string()).collect(), None));
        }
        for (flags, cell) in cases {
            let (run, submit) = run_and_submit(&flags);
            assert_eq!(run.config, submit.config, "{flags:?}");
            if let Some(cell) = cell {
                assert_eq!(run.config, cell, "{flags:?}");
            }
            assert_eq!(
                aim_bench::canonical_config_text(&build_config(&run)),
                aim_bench::canonical_config_text(&submit.config.to_config()),
                "{flags:?}"
            );
            let job = submit.config.job(&submit.kernel, submit.scale);
            assert_eq!(
                JobSpec::from_wire(&job.to_wire(false, false)),
                Ok(job),
                "{flags:?}"
            );
        }
        let (huge_lsq, _) = run_and_submit(&flags_of(&ConfigSpec::new(
            MachineClass::Huge,
            BackendChoice::Lsq,
        )));
        assert_eq!(
            build_config(&huge_lsq).backend,
            BackendConfig::Lsq(LsqConfig::aggressive_256x256())
        );
        let (aggr, _) = run_and_submit(&["--machine".to_string(), "aggressive".to_string()]);
        assert_eq!(
            build_config(&aggr).dep_predictor.mode,
            EnforceMode::TotalOrder
        );
    }

    #[test]
    fn values_a_backend_would_assert_on_are_rejected_at_decode() {
        for (field, value) in [
            ("pcax_act", "0"),
            ("pcax_act", "9"),
            ("pcax", "3x2"),
            ("pcax", "0x2"),
            ("pcax", "1024x0"),
            ("filt", "48x2"),
            ("filt", "256x0"),
            ("filt_count", "0"),
            ("lsq", "0x0"),
            ("lsq", "48x0"),
        ] {
            let named = |err: &str| {
                assert!(
                    err.contains(&format!("`{field}`")),
                    "{field}={value}: {err}"
                );
                assert!(!err.contains('\n'), "{field}={value}: {err}");
            };
            let flag = [format!("--{}", field.replace('_', "-")), value.to_string()];
            for head in [&["run", "gzip"][..], &["submit", "gzip", "--socket", "s"]] {
                let words: Vec<String> = head
                    .iter()
                    .map(|w| w.to_string())
                    .chain(flag.iter().cloned())
                    .collect();
                named(&parse_args(&words).unwrap_err().0);
            }
            let mut msg = ConfigSpec::default()
                .job("gzip", Scale::Tiny)
                .to_wire(false, false);
            match value.parse() {
                Ok(n) if !value.contains('x') => msg.put_u64(field, n),
                _ => msg.put_str(field, value),
            };
            named(&JobSpec::from_wire(&msg).unwrap_err());
        }
    }

    #[test]
    fn compare_steers_only_the_sfc_family_mode() {
        let Command::Compare(args) =
            parse(&["compare", "gzip", "--mode", "not-enf", "--lsq", "24x16"]).unwrap()
        else {
            panic!("expected compare");
        };
        for backend in BackendChoice::ALL {
            let column = compare_column(&args, backend);
            assert_eq!(column.config.backend, backend);
            assert_eq!(column.config.lsq, args.config.lsq);
            let steered = matches!(backend, BackendChoice::SfcMdt | BackendChoice::Pcax);
            assert_eq!(column.config.mode.is_some(), steered, "{backend}");
        }
    }

    #[test]
    fn report_mentions_key_sections() {
        let stats = SimStats {
            retired: 100,
            cycles: 50,
            ..SimStats::default()
        };
        let text = report("gzip", "sfc-mdt", &stats);
        assert!(text.contains("IPC 2.000"));
        assert!(text.contains("flushes:"));
        assert!(text.contains("caches:"));
    }
}
