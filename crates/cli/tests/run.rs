//! `aim-sim run` output at the binary surface: the `--trace` and
//! `--pipeview` blocks, alone and together.
//!
//! The golden files were recorded from the event-string ring and
//! pipeline-viewer buffer the probes replaced; the output must stay
//! byte-identical.

use std::process::Command;

fn aim_sim(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_aim-sim"))
        .args(args.split_whitespace())
        .output()
        .expect("aim-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn trace_output_matches_the_recorded_golden() {
    assert_eq!(
        aim_sim("run gzip --scale tiny --trace 12"),
        include_str!("golden/run_gzip_tiny_trace12.txt")
    );
}

#[test]
fn pipeview_output_matches_the_recorded_golden() {
    assert_eq!(
        aim_sim("run gzip --scale tiny --pipeview 4"),
        include_str!("golden/run_gzip_tiny_pipeview4.txt")
    );
}

/// One run prints both blocks, events first; neither flag drops the other.
#[test]
fn trace_and_pipeview_print_both_blocks() {
    let out = aim_sim("run gzip --scale tiny --trace 3 --pipeview 2");
    let events = out.find("-- last 3 pipeline events --\n").expect("events");
    let view = out.find("-- last 2 retirements --\n").expect("pipeview");
    assert!(events < view, "{out}");
    let event_lines: Vec<&str> = out[events..view].lines().skip(1).collect();
    assert_eq!(event_lines.len(), 3);
    assert!(event_lines[2].ends_with("retire   #4716 pc=38 `halt`"));
    // A header line plus one lane per retirement.
    assert_eq!(out[view..].lines().count(), 1 + 1 + 2);
}
