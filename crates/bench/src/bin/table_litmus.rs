//! Memory-model litmus containment table: for every litmus test × backend,
//! the outcomes the real multi-core machine produces across many seeded
//! random core schedules versus the outcomes the operational reference
//! model allows.
//!
//! Containment is the acceptance gate — a single disallowed outcome means
//! a store became visible to a sibling core before retirement (or own-store
//! forwarding broke) and the run rejects. The relaxed-reachability column
//! keeps the gate honest: at the default depth, store buffering must
//! actually show up, or the harness is only ever seeing the sequentially
//! consistent interleavings.
//!
//! Flags/env: `--schedules N` (seeded random schedules per cell; default
//! `AIM_LITMUS_SCHEDULES`, then 200); `AIM_LITMUS_JSON` overrides the
//! `BENCH_litmus.json` output path. `scripts/tier1.sh` runs this at a tiny
//! schedule count and greps the `litmus: ACCEPT` line.

use aim_bench::{flag_value, or_exit, rule, LitmusReport, Report};

/// `--schedules N` beats `env_schedules` (the `AIM_LITMUS_SCHEDULES`
/// value; malformed is ignored, as unset) beats the default 200.
fn parse_schedules_arg(args: &[String], env_schedules: Option<&str>) -> Result<u64, String> {
    match flag_value(args, "--schedules", "8")? {
        Some(v) => v.parse().map_err(|_| {
            format!("--schedules expects a non-negative integer, got `{v}` (e.g. --schedules 8)")
        }),
        None => Ok(env_schedules.and_then(|v| v.parse().ok()).unwrap_or(200)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let env = std::env::var("AIM_LITMUS_SCHEDULES").ok();
    let schedules = or_exit(parse_schedules_arg(&args, env.as_deref()));
    let report = LitmusReport::run(schedules);

    println!(
        "Litmus containment — {} seeded schedules (+ round-robin) per test × backend",
        schedules
    );
    rule(64);
    println!(
        "{:<8} {:<10} | {:>8} {:>9} | {:>9}",
        "test", "backend", "allowed", "observed", "contained"
    );
    rule(64);
    for row in &report.rows {
        println!(
            "{:<8} {:<10} | {:>8} {:>9} | {:>9}",
            row.test,
            row.backend,
            row.allowed_outcomes,
            row.observed_outcomes,
            if row.contained { "yes" } else { "NO" },
        );
    }
    rule(64);

    match report.write_default() {
        Ok(path) => println!(
            "litmus: {} cells in {:.2}s — {path}",
            report.rows.len(),
            report.wall_seconds
        ),
        Err(e) => eprintln!("litmus report not written: {e}"),
    }

    if !report.all_contained() {
        let bad: Vec<String> = report
            .rows
            .iter()
            .filter(|r| !r.contained)
            .map(|r| format!("{}/{}", r.test, r.backend))
            .collect();
        println!("litmus: REJECT — disallowed outcomes on {}", bad.join(", "));
        std::process::exit(1);
    }
    println!(
        "litmus: ACCEPT schedules={} cells={} relaxed_reachable={}",
        schedules,
        report.rows.len(),
        report.relaxed_reachable
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_flag_errors_are_one_actionable_line() {
        let argv = |words: &[&str]| words.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            parse_schedules_arg(&argv(&["bin", "--schedules", "8"]), Some("50")),
            Ok(8)
        );
        assert_eq!(parse_schedules_arg(&argv(&["bin"]), Some("50")), Ok(50));
        assert_eq!(parse_schedules_arg(&argv(&["bin"]), Some("many")), Ok(200));
        assert_eq!(parse_schedules_arg(&argv(&["bin"]), None), Ok(200));
        let err = parse_schedules_arg(&argv(&["bin", "--schedules", "x"]), None).unwrap_err();
        assert!(
            err.contains("--schedules expects a non-negative integer, got `x`"),
            "{err}"
        );
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
        let err = parse_schedules_arg(&argv(&["bin", "--schedules"]), None).unwrap_err();
        assert!(err.contains("--schedules expects a value"), "{err}");
        assert!(!err.contains('\n'), "error must be one line: {err:?}");
    }
}
