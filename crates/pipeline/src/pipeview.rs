//! Per-instruction pipeline timelines, in the spirit of gem5's O3 pipeline
//! viewer: every retired instruction carries the cycle it passed each stage,
//! and [`render`] draws them as aligned ASCII lanes.
//!
//! Collect them with the [`Pipeview`] probe:
//!
//! ```
//! use aim_isa::{Assembler, Interpreter, Reg};
//! use aim_pipeline::{pipeview, EventLog, Machine, MachineClass, Pipeview, SimConfig};
//!
//! let mut asm = Assembler::new();
//! asm.movi(Reg::new(2), 0x100);
//! asm.label("loop");
//! asm.sd(Reg::new(2), Reg::new(2), 0);
//! asm.ld(Reg::new(3), Reg::new(2), 0);
//! asm.subi(Reg::new(2), Reg::new(2), 8);
//! asm.bne(Reg::new(2), Reg::ZERO, "loop");
//! asm.halt();
//! let program = asm.assemble().unwrap();
//! let trace = Interpreter::new(&program).run(1000).unwrap();
//!
//! // Event lines and stage timelines of the same run, through a pair probe.
//! let mut probe = (EventLog::new(8), Pipeview::new(64));
//! let cfg = SimConfig::machine(MachineClass::Baseline).build();
//! Machine::new(&program, &trace, cfg).run_with(&mut probe).unwrap();
//! let (log, view) = probe;
//! assert!(log.into_vec().last().unwrap().ends_with("`halt`"));
//! println!("{}", pipeview::render(&view.into_vec(), 60));
//! ```

use std::fmt::Write as _;

use crate::probe::{Event, Probe, Ring};

/// One retired instruction's passage through the pipeline.
///
/// All cycle stamps are absolute machine cycles; they are monotonically
/// non-decreasing in the order dispatched → issued → completed → retired.
/// An instruction that replayed keeps the stamps of its *final* (successful)
/// pass, with [`replayed`](PipeRecord::replayed) set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipeRecord {
    /// Dispatch sequence number.
    pub seq: u64,
    /// Program counter (instruction index).
    pub pc: u64,
    /// Disassembled instruction text.
    pub instr: String,
    /// Cycle the instruction entered the ROB.
    pub dispatched: u64,
    /// Cycle the (final) execution pass began.
    pub issued: u64,
    /// Cycle the result was broadcast.
    pub completed: u64,
    /// Cycle the instruction retired.
    pub retired: u64,
    /// The memory unit dropped at least one execution pass (§2.4 replay).
    pub replayed: bool,
    /// Executed via the ROB-head bypass (§2.2).
    pub bypassed: bool,
}

/// The newest retirements as stage timelines.
pub type Pipeview = Ring<PipeRecord>;

impl Probe for Pipeview {
    fn event(&mut self, cycle: u64, event: &Event<'_>) {
        let Event::Retire(e) = *event else { return };
        self.push(|| PipeRecord {
            seq: e.seq.0,
            pc: e.pc,
            instr: e.instr.to_string(),
            dispatched: e.dispatched_cycle,
            issued: e.issued_cycle,
            completed: e.completed_cycle,
            retired: cycle,
            replayed: e.replayed,
            bypassed: e.bypassed,
        });
    }
}

/// Renders records as aligned ASCII timelines, `width` columns across.
///
/// Stage markers: `D` dispatch, `I` issue, `C` complete, `R` retire; `=`
/// fills issue→complete (execution) and `.` fills the other in-flight
/// spans. When two stages land in the same column the later marker wins.
/// Replayed instructions are flagged `r`, head-bypassed ones `b`.
///
/// Returns an empty string for an empty slice.
#[must_use]
pub fn render(records: &[PipeRecord], width: usize) -> String {
    let Some(first) = records.iter().map(|r| r.dispatched).min() else {
        return String::new();
    };
    let last = records.iter().map(|r| r.retired).max().expect("non-empty");
    let width = width.max(16);
    let span = last.saturating_sub(first).max(1) as f64;
    let scale = |cycle: u64| -> usize {
        let frac = cycle.saturating_sub(first) as f64 / span;
        ((frac * (width - 1) as f64).round() as usize).min(width - 1)
    };
    // Tolerate out-of-order stamps (a hand-built record, not the machine's
    // contract) by normalizing each span's endpoints.
    let ordered = |a: usize, b: usize| if a <= b { a..=b } else { b..=a };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "cycles {first}..{last} ({} instructions; D dispatch, I issue, C complete, R retire)",
        records.len()
    );
    for r in records {
        let mut lane = vec![b' '; width];
        lane[ordered(scale(r.dispatched), scale(r.retired))].fill(b'.');
        lane[ordered(scale(r.issued), scale(r.completed))].fill(b'=');
        lane[scale(r.dispatched)] = b'D';
        lane[scale(r.issued)] = b'I';
        lane[scale(r.completed)] = b'C';
        lane[scale(r.retired)] = b'R';
        let flags = match (r.replayed, r.bypassed) {
            (true, true) => "rb",
            (true, false) => "r ",
            (false, true) => " b",
            (false, false) => "  ",
        };
        let _ = writeln!(
            out,
            "{:>6} pc={:<5} {:<28} {} |{}|",
            r.seq,
            r.pc,
            truncate(&r.instr, 28),
            flags,
            String::from_utf8(lane).expect("ascii lane"),
        );
    }
    out
}

fn truncate(s: &str, max: usize) -> &str {
    match s.char_indices().nth(max) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, d: u64, i: u64, c: u64, r: u64) -> PipeRecord {
        PipeRecord {
            seq,
            pc: seq,
            instr: format!("op{seq}"),
            dispatched: d,
            issued: i,
            completed: c,
            retired: r,
            replayed: false,
            bypassed: false,
        }
    }

    #[test]
    fn empty_input_renders_empty() {
        assert_eq!(render(&[], 60), "");
    }

    #[test]
    fn markers_appear_in_stage_order() {
        let out = render(&[rec(1, 0, 10, 20, 30)], 40);
        let lane = out.lines().nth(1).unwrap();
        let (d, i) = (lane.find('D').unwrap(), lane.find('I').unwrap());
        let (c, r) = (lane.find('C').unwrap(), lane.find('R').unwrap());
        assert!(d < i && i < c && c < r, "{lane}");
    }

    #[test]
    fn coincident_stages_keep_the_later_marker() {
        // All four stages in one cycle: R must win the column.
        let out = render(&[rec(1, 5, 5, 5, 5)], 40);
        let lane = out.lines().nth(1).unwrap();
        assert!(lane.contains('R') && !lane.contains('D'));
    }

    #[test]
    fn lanes_share_one_time_axis() {
        let out = render(&[rec(1, 0, 1, 2, 3), rec(2, 97, 98, 99, 100)], 50);
        let lane = |n: usize| {
            let line = out.lines().nth(n).unwrap();
            let bar = line.find('|').unwrap();
            &line[bar + 1..line.len() - 1]
        };
        // The early instruction's lane sits entirely left of the late one's:
        // its retire column precedes the late instruction's first mark.
        let first_r = lane(1).find('R').unwrap();
        let second_start = lane(2).find(|c: char| c != ' ').unwrap();
        assert!(first_r < second_start, "{out}");
    }

    #[test]
    fn replay_and_bypass_flags_render() {
        let mut r = rec(1, 0, 1, 2, 3);
        r.replayed = true;
        r.bypassed = true;
        assert!(render(&[r], 40).lines().nth(1).unwrap().contains("rb"));
    }

    #[test]
    fn long_disassembly_is_truncated() {
        let mut r = rec(1, 0, 1, 2, 3);
        r.instr = "x".repeat(100);
        let lane = render(&[r], 40);
        assert!(lane.lines().nth(1).unwrap().len() < 120);
    }
}
