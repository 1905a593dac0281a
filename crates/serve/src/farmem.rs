//! The far-tier stats decoder behind the `table_far_mem` binary.
//!
//! The far-memory sweep is routed through the job server rather than
//! `aim_bench::run_matrix`: its cells
//! ([`farmem_configs`](aim_bench::specs::farmem_configs)) are submitted
//! over framed connections ([`run_cells`](crate::run_cells)), so the matrix
//! is content-addressed — a warm rerun, or any other client naming the
//! same cell (the CLI's `submit --machine huge --far …`), is answered from
//! the shared cache without simulating.
//!
//! The server replies with the canonical statistics text, not a
//! [`SimStats`](aim_pipeline::SimStats) struct, so the far-tier counters
//! the report needs are decoded from that text by [`parse_far_stats`] —
//! the format is the byte-stable `Debug` rendering the cache's
//! fingerprints already pin.

use aim_pipeline::FarStats;

/// Decodes the far-tier counters from a canonical statistics text (the
/// byte-stable `Debug` rendering cached entries store). Returns `None`
/// when the run had no far tier or the text does not carry a well-formed
/// `far: Some(FarStats { … })` field.
pub fn parse_far_stats(stats_text: &str) -> Option<FarStats> {
    const OPEN: &str = "far: Some(FarStats { ";
    let start = stats_text.find(OPEN)?;
    let body = &stats_text[start + OPEN.len()..];
    let body = &body[..body.find(" })")?];
    let mut stats = FarStats::default();
    for field in body.split(", ") {
        let (key, value) = field.split_once(": ")?;
        match key {
            "accesses" => stats.accesses = value.parse().ok()?,
            "coalesced" => stats.coalesced = value.parse().ok()?,
            "busy" => stats.busy = value.parse().ok()?,
            "overflow" => stats.overflow = value.parse().ok()?,
            "peak_inflight" => stats.peak_inflight = value.parse().ok()?,
            _ => return None,
        }
    }
    Some(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_bench::specs::farmem_configs;
    use aim_workloads::Scale;

    #[test]
    fn far_stats_round_trip_through_the_canonical_text() {
        // Pin the decoder against the real rendering, not a hand-written
        // imitation: simulate one far-tier cell and parse its canonical
        // statistics text back.
        let (_, spec) = &farmem_configs()[3]; // aggr-far200-sfc-mdt
        let workload = aim_workloads::by_name("gzip", Scale::Tiny).unwrap();
        let prepared = aim_bench::prepare(workload, Scale::Tiny);
        let stats = aim_bench::run(&prepared, &spec.to_config());
        let text = format!("{:?}", stats.with_zeroed_host());
        assert_eq!(parse_far_stats(&text), stats.far, "decoder diverges from Debug");
        assert!(stats.far.expect("far tier configured").accesses > 0);
    }

    #[test]
    fn far_stats_decoder_rejects_farless_and_malformed_texts() {
        assert_eq!(parse_far_stats("SimStats { cycles: 12 }"), None);
        assert_eq!(parse_far_stats("far: Some(FarStats { accesses: x })"), None);
        let text = "far: Some(FarStats { accesses: 3, coalesced: 1, busy: 0, \
                    overflow: 2, peak_inflight: 4 })";
        assert_eq!(
            parse_far_stats(text),
            Some(FarStats { accesses: 3, coalesced: 1, busy: 0, overflow: 2, peak_inflight: 4 })
        );
    }
}
