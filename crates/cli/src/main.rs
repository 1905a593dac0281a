//! The `aim-sim` binary; see [`aim_cli`] for the command grammar.

use std::process::ExitCode;

use aim_bench::Report;
use aim_cli::{
    build_config, compare_column, parse_args, report, BackendChoice, Command, LitmusArgs, RunArgs,
    ServeArgs, SubmitArgs, USAGE,
};
use aim_pipeline::{pipeview, EventLog, Machine, Pipeview, SimError, DEFAULT_INSTR_BUDGET};

/// Simulates `program` and prints its report, then the last `--trace N`
/// events and the last `--pipeview N` retirement timelines of the same run.
fn run_program(name: &str, program: &aim_isa::Program, args: &RunArgs) -> Result<(), String> {
    let cfg = build_config(args);
    let trace = aim_isa::Interpreter::new(program)
        .run(DEFAULT_INSTR_BUDGET)
        .map_err(|e| SimError::Program(e.to_string()).to_string())?;
    let backend = cfg.backend.name();
    let machine = Machine::new(program, &trace, cfg);
    let mut probe = (EventLog::new(args.trace), Pipeview::new(args.pipeview));
    // Unobserved runs take the `()` probe, whose event sites compile away.
    let stats = if args.trace == 0 && args.pipeview == 0 {
        machine.run()
    } else {
        machine.run_with(&mut probe)
    };
    let stats = stats.map_err(|e| e.to_string())?;
    let (log, view) = probe;
    print!("{}", report(name, &backend, &stats));
    if args.trace > 0 {
        let lines = log.into_vec();
        println!("-- last {} pipeline events --", lines.len());
        for line in lines {
            println!("{line}");
        }
    }
    if args.pipeview > 0 {
        let records = view.into_vec();
        println!("-- last {} retirements --", records.len());
        print!("{}", pipeview::render(&records, 64));
    }
    Ok(())
}

fn run_one(args: &RunArgs) -> Result<(), String> {
    let workload = aim_workloads::by_name(&args.kernel, args.scale)
        .ok_or_else(|| format!("unknown kernel `{}` (try `aim-sim list`)", args.kernel))?;
    run_program(&args.kernel, &workload.program, args)
}

/// Runs the `compare` sweep as a 1×6 matrix on the shared sweep runner —
/// one column per backend, bounds first and last — so all six simulate
/// concurrently when `--jobs`/`AIM_JOBS` allow.
fn compare_parallel(args: &RunArgs) -> Result<(), String> {
    let workload = aim_workloads::by_name(&args.kernel, args.scale)
        .ok_or_else(|| format!("unknown kernel `{}` (try `aim-sim list`)", args.kernel))?;
    let prepared = vec![aim_bench::prepare(workload, args.scale)];
    let configs: Vec<(String, aim_pipeline::SimConfig)> = BackendChoice::ALL
        .iter()
        .map(|&backend| {
            let cfg = build_config(&compare_column(args, backend));
            (cfg.backend.name(), cfg)
        })
        .collect();
    let jobs = aim_bench::resolve_jobs(args.jobs);
    let matrix = aim_bench::run_matrix(&prepared, &configs, jobs);
    for (c, (name, _)) in configs.iter().enumerate() {
        print!("{}", report(&args.kernel, name, matrix.get(0, c)));
    }
    Ok(())
}

/// Runs the litmus suite: every observed outcome must be allowed by the
/// operational reference model, and the per-cell observed/allowed counts
/// are printed as a table.
fn run_litmus_suite(args: &LitmusArgs) -> Result<(), String> {
    let suite: Vec<_> = aim_isa::litmus_suite()
        .into_iter()
        .filter(|t| args.test.as_deref().is_none_or(|name| name == t.name))
        .collect();
    if suite.is_empty() {
        return Err(format!(
            "unknown litmus test `{}` (SB, SB+fwd, MP, MP+fwd, LB, IRIW)",
            args.test.as_deref().unwrap_or("")
        ));
    }
    let backends: Vec<BackendChoice> = match args.backend {
        Some(b) => vec![b],
        None => BackendChoice::ALL.to_vec(),
    };
    let mut disallowed = 0usize;
    for test in &suite {
        let allowed =
            aim_isa::allowed_outcomes(&test.programs, &test.observed, &aim_isa::RefLimits::default())
                .map_err(|e| format!("{}: reference model failed: {e}", test.name))?;
        println!(
            "{} — {} ({} cores, {} allowed outcomes)",
            test.name,
            test.description,
            test.programs.len(),
            allowed.len()
        );
        for &backend in &backends {
            let mut cfg = aim_pipeline::SimConfig::machine(aim_pipeline::MachineClass::Baseline)
                .backend(backend)
                .build();
            cfg.paranoid = args.paranoid;
            let mut seen = std::collections::BTreeSet::new();
            let mut contained = true;
            let mut schedules = vec![aim_pipeline::CoreSchedule::RoundRobin];
            schedules.extend((0..args.schedules).map(|i| aim_pipeline::CoreSchedule::Random {
                seed: 0xC0FE + 2 * i + 1,
            }));
            for schedule in schedules {
                let outcome = aim_pipeline::run_litmus(test, &cfg, schedule)
                    .map_err(|e| format!("{} on {}: {e}", test.name, backend.token()))?;
                contained &= allowed.contains(&outcome);
                seen.insert(outcome);
            }
            if !contained {
                disallowed += 1;
            }
            println!(
                "  {:<10} observed {}/{} outcomes — {}",
                backend.token(),
                seen.len(),
                allowed.len(),
                if contained { "contained" } else { "DISALLOWED" }
            );
        }
    }
    if disallowed > 0 {
        return Err(format!(
            "{disallowed} (test, backend) cell(s) produced reference-disallowed outcomes"
        ));
    }
    println!(
        "litmus: every observed outcome allowed ({} tests, {} backends, {} schedules each)",
        suite.len(),
        backends.len(),
        args.schedules + 1
    );
    Ok(())
}

/// Runs the `serve` command: the replay gate, the stdio pipe mode, or a
/// Unix-socket server.
fn run_serve(args: &ServeArgs) -> Result<(), String> {
    let workers = aim_bench::resolve_jobs(args.workers);
    let cache_dir = std::path::PathBuf::from(&args.cache);
    if args.replay {
        let outcome = aim_serve::run_replay(&aim_serve::ReplayOptions {
            scale: args.scale,
            workers,
            clients: args.clients.max(1),
            rounds: args.rounds,
            verify: args.verify,
            cache_dir,
        })?;
        let report = &outcome.report;
        for round in &report.rounds {
            println!(
                "  {:<8} {:>4} cells  {:>8.3}s  sims {:>4}  hits {:>4}",
                round.label, round.cells, round.wall_seconds, round.sims_run, round.cache_hits
            );
        }
        println!(
            "  workers {}  utilization {:.0}%  warm speedup {:.1}x  fingerprint {:#018x}",
            report.workers,
            100.0 * report.worker_utilization,
            report.warm_speedup,
            outcome.fingerprint
        );
        report
            .write_default()
            .map_err(|e| format!("writing the serve report: {e}"))?;
        if !outcome.consistent {
            for finding in &outcome.findings {
                eprintln!("  finding: {finding}");
            }
            return Err(format!(
                "serve: cache INCONSISTENT ({} finding(s))",
                outcome.findings.len()
            ));
        }
        println!(
            "serve: cache-consistent ({} cells x {} rounds{}, warm speedup {:.1}x)",
            report.rounds.first().map_or(0, |r| r.cells),
            args.rounds,
            if args.verify { " + verify" } else { "" },
            report.warm_speedup
        );
        return Ok(());
    }
    if args.stdio {
        let server = aim_serve::Server::new(&cache_dir, workers)
            .map_err(|e| format!("cache dir `{}`: {e}", args.cache))?;
        return aim_serve::serve_stdio(&server).map_err(|e| e.to_string());
    }
    serve_socket(args, workers, &cache_dir)
}

#[cfg(unix)]
fn serve_socket(
    args: &ServeArgs,
    workers: usize,
    cache_dir: &std::path::Path,
) -> Result<(), String> {
    let path = args.socket.as_deref().expect("parser guarantees a mode");
    let server = std::sync::Arc::new(
        aim_serve::Server::new(cache_dir, workers)
            .map_err(|e| format!("cache dir `{}`: {e}", args.cache))?,
    );
    println!("serving on {path} ({workers} workers, cache {})", args.cache);
    aim_serve::serve_unix(&server, std::path::Path::new(path)).map_err(|e| e.to_string())
}

#[cfg(not(unix))]
fn serve_socket(_: &ServeArgs, _: usize, _: &std::path::Path) -> Result<(), String> {
    Err("--socket needs Unix-domain sockets; use --stdio on this platform".to_string())
}

#[cfg(unix)]
fn run_submit(args: &SubmitArgs) -> Result<(), String> {
    use aim_types::wire::WireMsg;
    let path = std::path::PathBuf::from(&args.socket);
    let mut msgs = Vec::new();
    if !args.kernel.is_empty() {
        let spec = args.config.job(&args.kernel, args.scale);
        msgs.push(spec.to_wire(args.verify, args.no_cache));
    }
    if args.shutdown {
        let mut msg = WireMsg::new();
        msg.put_str("op", "shutdown");
        msgs.push(msg);
    }
    let replies = aim_serve::submit_unix(&path, &msgs)
        .map_err(|e| format!("socket `{}`: {e}", args.socket))?;
    let mut replies = replies.iter();
    if !args.kernel.is_empty() {
        let reply = replies.next().expect("one reply per request");
        let resp = aim_serve::JobResponse::from_wire(reply)?;
        println!(
            "{} {}: cycles {}  retired {}  fingerprint {:#018x}  [{}{}]",
            args.kernel,
            resp.key,
            resp.cycles,
            resp.retired,
            resp.fingerprint,
            resp.source.token(),
            resp.verify.map_or(String::new(), |v| format!(", verify: {}", v.token())),
        );
    }
    if args.shutdown {
        let reply = replies.next().expect("one reply per request");
        if reply.bool_field("ok") != Some(true) {
            return Err("server did not acknowledge the shutdown".to_string());
        }
        println!("server shutdown acknowledged");
    }
    Ok(())
}

#[cfg(not(unix))]
fn run_submit(_: &SubmitArgs) -> Result<(), String> {
    Err("submit needs Unix-domain sockets on this platform".to_string())
}

fn run_asm_file(args: &RunArgs) -> Result<(), String> {
    let source = std::fs::read_to_string(&args.kernel)
        .map_err(|e| format!("cannot read `{}`: {e}", args.kernel))?;
    let program = aim_isa::parse_program(&source).map_err(|e| format!("{}: {e}", args.kernel))?;
    run_program(&args.kernel, &program, args)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let result = match command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::List => {
            for name in aim_workloads::names() {
                println!("{name}");
            }
            Ok(())
        }
        Command::Run(args) => run_one(&args),
        Command::Asm(args) => run_asm_file(&args),
        Command::Litmus(args) => run_litmus_suite(&args),
        Command::Serve(args) => run_serve(&args),
        Command::Submit(args) => run_submit(&args),
        Command::Compare(args) => {
            if args.trace == 0 && args.pipeview == 0 {
                compare_parallel(&args)
            } else {
                // Event traces and pipeview records only surface through the
                // sequential single-run path.
                BackendChoice::ALL
                    .iter()
                    .try_for_each(|&backend| run_one(&compare_column(&args, backend)))
            }
        }
    };

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
