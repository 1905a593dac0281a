//! The committed `BENCH_*.json` reports round-trip through the one report
//! writer byte for byte.
//!
//! Each header line (`"key": value,`) and each row line (`{...}`) is parsed
//! with the wire decoder, and the parsed messages are re-rendered through
//! [`render_report`]. This pins the writer on real values the synthetic
//! goldens in `schema.rs` lack: negative `err_pct`, ten-digit `*_wall_ns`,
//! hex fingerprints, booleans and the 76-row far-memory sweep.

use aim_bench::render_report;
use aim_types::wire::WireMsg;

/// Splits a report into its header message, list key and row messages.
fn parse_report(text: &str) -> (WireMsg, String, Vec<WireMsg>) {
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("{"), "a report opens with `{{`");
    let mut header = String::from("{");
    let list_key = loop {
        let line = lines.next().expect("a report has a list").trim();
        if let Some(key) = line.strip_suffix(": [") {
            break key.trim_matches('"').to_string();
        }
        if header.len() > 1 {
            header.push(',');
        }
        header.push_str(line.strip_suffix(',').expect("header lines end in `,`"));
    };
    header.push('}');
    let header = WireMsg::parse(&header).unwrap_or_else(|e| panic!("header: {e}"));
    let rows = lines
        .take_while(|line| *line != "  ]")
        .map(|line| {
            let line = line.trim();
            let line = line.strip_suffix(',').unwrap_or(line);
            WireMsg::parse(line).unwrap_or_else(|e| panic!("row `{line}`: {e}"))
        })
        .collect();
    (header, list_key, rows)
}

fn assert_round_trips(name: &str, text: &str, rows: usize) {
    let (header, list_key, parsed) = parse_report(text);
    assert_eq!(parsed.len(), rows, "{name}: row count");
    assert_eq!(
        render_report(&header, &list_key, &parsed),
        text,
        "{name} does not re-render byte for byte through the report writer"
    );
}

#[test]
fn committed_farmem_report_round_trips() {
    assert_round_trips(
        "BENCH_farmem.json",
        include_str!("../../../BENCH_farmem.json"),
        76,
    );
}

#[test]
fn committed_hostperf_report_round_trips() {
    let text = include_str!("../../../BENCH_hostperf.json");
    assert_round_trips("BENCH_hostperf.json", text, 12);
    let (header, _, _) = parse_report(text);
    assert!(header
        .str_field("stats_fingerprint")
        .is_some_and(|f| f.starts_with("0x")));
}

#[test]
fn committed_litmus_report_round_trips() {
    let text = include_str!("../../../BENCH_litmus.json");
    assert_round_trips("BENCH_litmus.json", text, 36);
    let (header, _, rows) = parse_report(text);
    assert_eq!(header.bool_field("relaxed_reachable"), Some(true));
    assert!(rows.iter().all(|r| r.bool_field("contained") == Some(true)));
}

#[test]
fn committed_sampled_report_round_trips() {
    let text = include_str!("../../../BENCH_sampled.json");
    assert_round_trips("BENCH_sampled.json", text, 20);
    let (_, _, rows) = parse_report(text);
    assert!(rows
        .iter()
        .any(|r| r.f64_field("err_pct").is_some_and(|e| e < 0.0)));
    assert!(rows.iter().any(|r| r
        .u64_field("full_wall_ns")
        .is_some_and(|ns| ns >= 1_000_000_000)));
}

#[test]
fn committed_serve_report_round_trips() {
    let text = include_str!("../../../BENCH_serve.json");
    let (_, list_key, rounds) = parse_report(text);
    assert_eq!(list_key, "rounds");
    assert_round_trips("BENCH_serve.json", text, rounds.len());
    assert!(rounds.len() >= 2, "a cold and at least one warm round");
}
