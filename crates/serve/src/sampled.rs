//! The `table_sampled` sampling policy and the sampled-stats decoder.
//!
//! Unlike the other experiment matrices, the sampled sweep cannot be a
//! static configuration list: the tuned policy *tiles* each kernel's
//! dynamic instruction count, so the [`SampleSpec`] differs per kernel and
//! is computed from the architectural trace length by [`sampled_policy`].
//! The `table_sampled` binary binds the per-kernel spec into the wire
//! `JobSpec`, which keeps the cells content-addressed — a sampled cell and
//! its full-detail twin hash to different cache keys, and any client
//! naming the same policy (the CLI's `submit --sample …`) shares the
//! entry.
//!
//! As with the far tier, the server replies with the canonical statistics
//! text rather than a struct, so the sampled-coverage counters are decoded
//! from the byte-stable `Debug` rendering by [`parse_sampled_stats`].

use aim_pipeline::SampledStats;
use aim_types::SampleSpec;

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
/// `EXPERIMENTS.md` T-SAMPLE). Its wall-clock speedup is host-dependent:
/// measured runs range from 6.3× to 14.8× against the 10× floor, because
/// the full-detail times vary between runs (T-SAMPLE footnote; ROADMAP
/// item 2).
pub fn sampled_policy(trace_len: u64) -> SampleSpec {
    let period = (trace_len / u64::from(SAMPLE_PERIODS)).max(8);
    let detail = (period / SAMPLE_DETAIL_DIVISOR).max(4);
    SampleSpec::new(period - detail, detail, SAMPLE_PERIODS)
        .expect("tiled policy has nonzero phases")
}

/// Decodes the sampled-coverage counters from a canonical statistics text
/// (the byte-stable `Debug` rendering cached entries store). Returns
/// `None` when the run was not sampled or the text does not carry a
/// well-formed `sampled: Some(SampledStats { … })` field.
pub fn parse_sampled_stats(stats_text: &str) -> Option<SampledStats> {
    const OPEN: &str = "sampled: Some(SampledStats { ";
    let start = stats_text.find(OPEN)?;
    let body = &stats_text[start + OPEN.len()..];
    let body = &body[..body.find(" })")?];
    let mut stats = SampledStats::default();
    for field in body.split(", ") {
        let (key, value) = field.split_once(": ")?;
        match key {
            "periods_run" => stats.periods_run = value.parse().ok()?,
            "warm_retired" => stats.warm_retired = value.parse().ok()?,
            "detail_retired" => stats.detail_retired = value.parse().ok()?,
            "detail_cycles" => stats.detail_cycles = value.parse().ok()?,
            _ => return None,
        }
    }
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_pipeline::ConfigSpec;
    use aim_pipeline::{BackendChoice, MachineClass};
    use aim_workloads::Scale;

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
    fn sampled_stats_round_trip_through_the_canonical_text() {
        // Pin the decoder against the real rendering: run one sampled cell
        // and parse its canonical statistics text back.
        let workload = aim_workloads::by_name("gzip", Scale::Tiny).unwrap();
        let prepared = aim_bench::prepare(workload, Scale::Tiny);
        let spec = ConfigSpec {
            sample: Some(sampled_policy(prepared.trace.len() as u64)),
            ..ConfigSpec::new(MachineClass::Baseline, BackendChoice::SfcMdt)
        };
        let stats = aim_bench::run(&prepared, &spec.to_config());
        let text = format!("{:?}", stats.with_zeroed_host());
        assert_eq!(
            parse_sampled_stats(&text),
            stats.sampled,
            "decoder diverges from Debug"
        );
        let sampled = stats.sampled.expect("sampled run records coverage");
        assert!(sampled.periods_run > 0);
        assert!(sampled.warm_retired > 0);
    }

    #[test]
    fn sampled_decoder_rejects_unsampled_and_malformed_texts() {
        assert_eq!(parse_sampled_stats("SimStats { cycles: 12 }"), None);
        assert_eq!(parse_sampled_stats("sampled: None"), None);
        assert_eq!(
            parse_sampled_stats("sampled: Some(SampledStats { periods_run: x })"),
            None
        );
        let text = "sampled: Some(SampledStats { periods_run: 11, warm_retired: 900, \
                    detail_retired: 100, detail_cycles: 40 })";
        assert_eq!(
            parse_sampled_stats(text),
            Some(SampledStats {
                periods_run: 11,
                warm_retired: 900,
                detail_retired: 100,
                detail_cycles: 40,
            })
        );
    }
}
