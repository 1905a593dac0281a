//! Golden tests for the two shipped probes on one tiny kernel.
//!
//! `vpr_route` at `Scale::Tiny` under the default configuration emits all
//! six event kinds. The expected figures below were recorded from the
//! event-string ring and pipeline-viewer buffer the probes replaced, so
//! they pin that [`EventLog`] lines and [`pipeview::render`] output stay
//! byte-identical to that earlier output.

use aim_isa::Interpreter;
use aim_pipeline::{pipeview, ConfigSpec, Event, EventLog, Machine, Pipeview, Probe, SampleSpec};
use aim_workloads::Scale;

/// Lines the full run logs, and their FNV-1a hash (each line
/// newline-terminated).
const EVENT_LINES: usize = 15_311;
const EVENT_FNV: u64 = 0xa599_07fe_bdb8_b6d2;

/// Per-kind event counts: dispatch, issue, replay, complete, recover,
/// retire.
const KIND_COUNTS: [usize; 6] = [3865, 3913, 160, 3730, 30, 3613];

fn fnv(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Counts events per kind, in [`KIND_COUNTS`] order.
#[derive(Default)]
struct Census([usize; 6]);

impl Probe for Census {
    fn event(&mut self, _cycle: u64, event: &Event<'_>) {
        let kind = match event {
            Event::Dispatch { .. } => 0,
            Event::Issue { .. } => 1,
            Event::Replay { .. } => 2,
            Event::Complete { .. } => 3,
            Event::Recover { .. } => 4,
            Event::Retire(_) => 5,
        };
        self.0[kind] += 1;
    }
}

#[test]
fn event_log_and_pipeview_match_the_recorded_output() {
    let w = aim_workloads::by_name("vpr_route", Scale::Tiny).unwrap();
    let cfg = ConfigSpec::default().to_config();
    let trace = Interpreter::new(&w.program).run(1_000_000).unwrap();
    let mut probe = (
        (EventLog::new(EVENT_LINES + 1), Pipeview::new(24)),
        Census::default(),
    );
    let stats = Machine::new(&w.program, &trace, cfg)
        .run_with(&mut probe)
        .unwrap();
    let ((log, view), census) = probe;

    assert_eq!(census.0, KIND_COUNTS);
    let lines = log.into_vec();
    assert_eq!(lines.len(), EVENT_LINES);
    assert_eq!(fnv(&lines), EVENT_FNV);
    let excerpt: Vec<&str> = include_str!("golden/vpr_route_tiny.events")
        .lines()
        .collect();
    assert_eq!(lines[959..1000], excerpt[..]);

    let records = view.into_vec();
    assert_eq!(records.len(), 24);
    assert_eq!(records.last().unwrap().retired, stats.cycles);
    assert_eq!(
        pipeview::render(&records, 64),
        include_str!("golden/vpr_route_tiny.pipeview")
    );
}

#[test]
fn event_log_keeps_the_newest_lines() {
    let w = aim_workloads::by_name("vpr_route", Scale::Tiny).unwrap();
    let cfg = ConfigSpec::default().to_config();
    let trace = Interpreter::new(&w.program).run(1_000_000).unwrap();
    let mut log = EventLog::new(3);
    Machine::new(&w.program, &trace, cfg)
        .run_with(&mut log)
        .unwrap();
    let lines = log.into_vec();
    assert_eq!(lines.len(), 3);
    assert!(
        lines[2].ends_with("retire   #3865 pc=36 `halt`"),
        "{lines:?}"
    );
}

/// Sampled runs step their detail windows through the same probed loop,
/// and observing them changes nothing.
#[test]
fn sampled_detail_windows_reach_the_probe() {
    let w = aim_workloads::by_name("vpr_route", Scale::Tiny).unwrap();
    let mut cfg = ConfigSpec::default().to_config();
    cfg.sample = SampleSpec::new(400, 150, 6);
    let trace = Interpreter::new(&w.program).run(1_000_000).unwrap();
    let plain = Machine::new(&w.program, &trace, cfg.clone()).run().unwrap();
    let mut census = Census::default();
    let probed = Machine::new(&w.program, &trace, cfg)
        .run_with(&mut census)
        .unwrap();
    assert_eq!(
        format!("{:?}", plain.with_zeroed_host()),
        format!("{:?}", probed.with_zeroed_host())
    );
    // Each detail window retires at least its measured stretch and ends
    // in one recovery that drains it.
    let sampled = probed.sampled.expect("sampled run");
    assert!(census.0[5] as u64 >= sampled.detail_retired);
    assert!(census.0[4] as u64 >= u64::from(sampled.periods_run));
}
