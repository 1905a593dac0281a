//! The `sampled` artifact's tuned policy and its machine-readable report
//! (`BENCH_sampled.json`).
//!
//! `aim-bench sampled` is the differential convergence gate for sampled
//! simulation: every committed kernel runs the huge/far-memory
//! configuration twice — full detail and under the tuned tiled sampling
//! policy ([`sampled_policy`]) — and the report records, per kernel, the
//! extrapolated IPC against the full-detail truth, the detail coverage the
//! policy bought the error with, and the measured wall-clock of both runs.
//! This module renders that sweep in a stable JSON schema
//! (`aim-sampled-report/v2`) so the acceptance checks (every kernel inside
//! the convergence tolerance; the sampled sweep ≥10× faster wall-clock at
//! `Scale::Huge`) can be asserted by scripts, not eyeballs.
//!
//! It renders through the shared [`Report`] writer;
//! `tests/golden/sampled.golden.json` pins its layout.

use crate::Report;
use aim_types::wire::WireMsg;
use aim_types::SampleSpec;
use aim_workloads::Scale;

/// Detailed windows the tuned policy spreads across the trace. Prime, so
/// the stratified schedule cannot phase-lock onto power-of-two loop
/// structure.
pub const SAMPLE_PERIODS: u32 = 11;

/// Detail share of each period: one instruction simulated cycle-accurately
/// per `SAMPLE_DETAIL_DIVISOR` fast-forwarded.
pub const SAMPLE_DETAIL_DIVISOR: u64 = 32;

/// The tuned sampled-simulation policy for a kernel whose architectural
/// trace retires `trace_len` instructions: [`SAMPLE_PERIODS`] periods
/// tiling the whole trace, each spending 1/[`SAMPLE_DETAIL_DIVISOR`] of
/// its span in the detailed machine. Tiling the *measured* length (rather
/// than the scale's nominal target) keeps long-tailed kernels from
/// extrapolating their final millions of instructions from a schedule
/// that ended early. On the huge/far-memory configuration this policy
/// holds every committed kernel within ±7% of full-detail IPC (see
/// `EXPERIMENTS.md` T-SAMPLE). Its wall-clock speedup falls short of the
/// 10× floor: `aim-bench sampled --scale huge --jobs 1` measured 8.1×
/// (13.7 s full detail, 1.7 s sampled) on a shared 2-vCPU Intel Xeon,
/// because the warm engine, not the detailed machine, dominates a sampled
/// run (ROADMAP item 2).
pub fn sampled_policy(trace_len: u64) -> SampleSpec {
    let period = (trace_len / u64::from(SAMPLE_PERIODS)).max(8);
    let detail = (period / SAMPLE_DETAIL_DIVISOR).max(4);
    SampleSpec::new(period - detail, detail, SAMPLE_PERIODS)
        .expect("tiled policy has nonzero phases")
}

/// One kernel of the sampled-convergence sweep: the full-detail truth,
/// the sampled estimate, and the cost of each.
#[derive(Debug, Clone)]
pub struct SampledRow {
    /// Workload name.
    pub workload: String,
    /// Suite membership (`int` or `fp`).
    pub suite: String,
    /// Dynamic instructions the kernel retires (the length the policy
    /// tiles).
    pub trace_len: u64,
    /// Warm-up instructions per period of the policy.
    pub warm_insts: u64,
    /// Detailed instructions per period of the policy.
    pub detail_insts: u64,
    /// Periods the policy schedules.
    pub periods: u32,
    /// Full-detail IPC (the truth the estimate is judged against).
    pub full_ipc: f64,
    /// Extrapolated IPC of the sampled run.
    pub sampled_ipc: f64,
    /// Signed relative IPC error of the estimate, percent.
    pub err_pct: f64,
    /// Detailed windows the sampled run completed.
    pub periods_run: u32,
    /// Percent of retired instructions simulated cycle-accurately.
    pub detail_pct: f64,
    /// Wall-clock of the full-detail run, nanoseconds.
    pub full_wall_ns: u64,
    /// Wall-clock of the sampled run, nanoseconds.
    pub sampled_wall_ns: u64,
    /// Per-kernel wall-clock speedup (`full_wall_ns / sampled_wall_ns`).
    pub speedup: f64,
}

/// The full sampled-convergence sweep: the shared machine configuration,
/// the aggregate acceptance numbers, and one row per kernel.
#[derive(Debug, Clone)]
pub struct SampledReport {
    /// The study's report name (`table_sampled`).
    pub artifact: String,
    /// Workload scale the sweep ran at.
    pub scale: Scale,
    /// The driver's `--jobs` count, resolved.
    pub workers: usize,
    /// Machine-class tag of the shared configuration (`huge`).
    pub machine: String,
    /// ROB entries of that machine class.
    pub window: u64,
    /// Far-tier latency in cycles.
    pub far_latency: u64,
    /// Largest-magnitude signed IPC error across the rows, percent.
    pub worst_err_pct: f64,
    /// Aggregate wall-clock speedup (total full wall / total sampled
    /// wall).
    pub speedup: f64,
    /// Per-kernel rows, registry order.
    pub rows: Vec<SampledRow>,
}

impl Report for SampledReport {
    const SCHEMA: &'static str = "aim-sampled-report/v2";
    const FILE: &'static str = "BENCH_sampled.json";
    type Row = SampledRow;

    fn header(&self, h: &mut WireMsg) {
        h.put_str("artifact", &self.artifact)
            .put_str("scale", self.scale.token())
            .put_u64("workers", self.workers as u64)
            .put_str("machine", &self.machine)
            .put_u64("window", self.window)
            .put_u64("far_latency", self.far_latency)
            .put_f64("worst_err_pct", self.worst_err_pct)
            .put_f64("speedup", self.speedup);
    }

    fn rows(&self) -> &[SampledRow] {
        &self.rows
    }

    fn row(r: &SampledRow, m: &mut WireMsg) {
        m.put_str("workload", &r.workload)
            .put_str("suite", &r.suite)
            .put_u64("trace_len", r.trace_len)
            .put_u64("warm_insts", r.warm_insts)
            .put_u64("detail_insts", r.detail_insts)
            .put_u64("periods", r.periods.into())
            .put_f64("full_ipc", r.full_ipc)
            .put_f64("sampled_ipc", r.sampled_ipc)
            .put_f64("err_pct", r.err_pct)
            .put_u64("periods_run", r.periods_run.into())
            .put_f64("detail_pct", r.detail_pct)
            .put_u64("full_wall_ns", r.full_wall_ns)
            .put_u64("sampled_wall_ns", r.sampled_wall_ns)
            .put_f64("speedup", r.speedup);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_tiles_the_trace_with_sparse_detail() {
        for len in [9u64, 1_000, 123_457, 2_000_000, 5_455_377] {
            let spec = sampled_policy(len);
            assert_eq!(spec.periods, SAMPLE_PERIODS);
            // The schedule spans the whole trace (within one period of
            // rounding), so no long tail is left to one-sided
            // extrapolation.
            let span = spec.period_insts() * u64::from(spec.periods);
            assert!(span <= len.max(8 * u64::from(SAMPLE_PERIODS)));
            assert!(span + spec.period_insts() * u64::from(SAMPLE_PERIODS) >= len);
            // Detail stays a sparse slice of each period.
            assert!(spec.detail_insts >= 4);
            assert!(
                spec.detail_insts <= (spec.period_insts() / SAMPLE_DETAIL_DIVISOR).max(4),
                "detail {} of period {} at len {len}",
                spec.detail_insts,
                spec.period_insts()
            );
        }
    }

    #[test]
    fn sampled_json_renders_schema_and_balances() {
        let report = SampledReport {
            artifact: "table_sampled".to_string(),
            scale: Scale::Huge,
            workers: 8,
            machine: "huge".to_string(),
            window: 4096,
            far_latency: 800,
            worst_err_pct: -6.57,
            speedup: 11.2,
            rows: vec![SampledRow {
                workload: "gzip".to_string(),
                suite: "int".to_string(),
                trace_len: 2_363_615,
                warm_insts: 208_112,
                detail_insts: 6_714,
                periods: 11,
                full_ipc: 7.0583,
                sampled_ipc: 7.1134,
                err_pct: 0.78,
                periods_run: 11,
                detail_pct: 3.1,
                full_wall_ns: 2_400_000_000,
                sampled_wall_ns: 210_000_000,
                speedup: 11.4,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"aim-sampled-report/v2\""));
        assert!(json.contains("\"window\": 4096"));
        assert!(json.contains("\"periods_run\": 11"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
