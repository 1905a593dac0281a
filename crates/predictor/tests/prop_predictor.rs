//! Property tests: producer-set training and tag-chain invariants.

use aim_predictor::{
    DepTag, EnforceMode, PredictorConfig, ProducerSetPredictor, TagScoreboard, ViolationKind,
};
use proptest::prelude::*;

fn pcs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..64, 0u64..64), 1..40)
        .prop_map(|v| v.into_iter().filter(|(p, c)| p != c).collect())
}

/// Pairs over *disjoint* pcs, so each pc belongs to exactly one producer
/// set and the pairwise-linking property is exact.
fn disjoint_pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    (1usize..20).prop_map(|n| (0..n as u64).map(|i| (2 * i, 2 * i + 1)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After training violations over disjoint pc pairs, every trained
    /// consumer dispatched right after its producer consumes that
    /// producer's tag. (Overlapping pairs merge sets, where the exact tag
    /// depends on dispatch interleaving — see `total_order_forms_a_chain`.)
    #[test]
    fn trained_pairs_are_linked(pairs in disjoint_pairs()) {
        let mut pred = ProducerSetPredictor::new(EnforceMode::All);
        let mut tags = TagScoreboard::new();
        for &(p, c) in &pairs {
            pred.record_violation(p, c, ViolationKind::True);
        }
        for &(p, c) in &pairs {
            let produced = pred.on_dispatch(p, &mut tags).produces;
            prop_assert!(produced.is_some(), "trained producer {p} must produce");
            let consumed = pred.on_dispatch(c, &mut tags).consumes;
            // The consumer must wait on *some* tag at least as new as the
            // producer's (another member may have produced in between; here
            // nothing dispatched in between, so it is exactly it).
            prop_assert_eq!(consumed, produced, "consumer {} after producer {}", c, p);
        }
    }

    /// The LFPT always hands out the most recently dispatched producer's tag.
    #[test]
    fn consumer_sees_most_recent_producer(repeats in 1usize..20) {
        let mut pred = ProducerSetPredictor::new(EnforceMode::All);
        let mut tags = TagScoreboard::new();
        pred.record_violation(1, 2, ViolationKind::Output);
        let mut last = None;
        for _ in 0..repeats {
            last = pred.on_dispatch(1, &mut tags).produces;
        }
        prop_assert_eq!(pred.on_dispatch(2, &mut tags).consumes, last);
    }

    /// Model check of the scoreboard's dense window: tag numbers are
    /// strictly increasing, a tag reads ready exactly once marked (or if
    /// never allocated), and the window holds exactly the tags from the
    /// oldest pending one to the newest, so a long run of producers that
    /// complete never grows it.
    #[test]
    fn tag_scoreboard_matches_model(ops in proptest::collection::vec((any::<bool>(), 0usize..64), 1..300)) {
        let mut sb = TagScoreboard::new();
        let mut model: Vec<bool> = Vec::new(); // model[t] = ready
        for &(alloc, pick) in &ops {
            if alloc || model.is_empty() {
                let t = sb.alloc();
                prop_assert_eq!(t, DepTag(model.len() as u64));
                model.push(false);
            } else {
                let t = pick % model.len();
                let was_pending = !model[t];
                prop_assert_eq!(sb.mark_ready(DepTag(t as u64)).is_some(), was_pending);
                model[t] = true;
            }
            for (t, &ready) in model.iter().enumerate() {
                prop_assert_eq!(sb.is_ready(DepTag(t as u64)), ready, "tag {}", t);
            }
            prop_assert!(sb.is_ready(DepTag(model.len() as u64)), "unallocated reads ready");
            let window = model
                .iter()
                .position(|&r| !r)
                .map_or(0, |oldest| model.len() - oldest);
            prop_assert_eq!(sb.tracked(), window);
        }
    }

    /// NOT-ENF never constrains instructions after anti/output violations,
    /// regardless of the training sequence.
    #[test]
    fn true_only_ignores_anti_output(pairs in pcs()) {
        let mut pred = ProducerSetPredictor::new(EnforceMode::TrueOnly);
        let mut tags = TagScoreboard::new();
        for &(p, c) in &pairs {
            pred.record_violation(p, c, ViolationKind::Anti);
            pred.record_violation(p, c, ViolationKind::Output);
        }
        for &(p, c) in &pairs {
            prop_assert_eq!(pred.on_dispatch(p, &mut tags).produces, None);
            prop_assert_eq!(pred.on_dispatch(c, &mut tags).consumes, None);
        }
        prop_assert_eq!(pred.stats().arcs_inserted, 0);
        prop_assert_eq!(pred.stats().arcs_filtered as usize, 2 * pairs.len());
    }

    /// Under total ordering, a dispatch sequence of any members of one
    /// producer set forms a single chain: each dispatch consumes the tag the
    /// previous one produced.
    #[test]
    fn total_order_forms_a_chain(members in proptest::collection::vec(0u64..4, 2..30)) {
        let mut pred = ProducerSetPredictor::new(EnforceMode::TotalOrder);
        let mut tags = TagScoreboard::new();
        // Put pcs 0..4 into one set via chained violations.
        for w in [0u64, 1, 2, 3].windows(2) {
            pred.record_violation(w[0], w[1], ViolationKind::Output);
        }
        let mut prev_tag = None;
        let mut first = true;
        for &m in &members {
            let hints = pred.on_dispatch(m, &mut tags);
            prop_assert!(hints.produces.is_some(), "member {m} must produce");
            if !first {
                prop_assert_eq!(hints.consumes, prev_tag, "member {} breaks the chain", m);
            }
            first = false;
            prev_tag = hints.produces;
        }
    }

    /// With a clear interval, training is forgotten after exactly that many
    /// dispatches, never before.
    #[test]
    fn clearing_happens_on_schedule(interval in 2u64..50) {
        let mut cfg = PredictorConfig::figure4(EnforceMode::All);
        cfg.clear_interval = interval;
        let mut pred = ProducerSetPredictor::with_config(cfg);
        let mut tags = TagScoreboard::new();
        pred.record_violation(1, 2, ViolationKind::True);
        for i in 0..interval - 1 {
            let hints = pred.on_dispatch(1, &mut tags);
            prop_assert!(hints.produces.is_some(), "cleared early at dispatch {i}");
        }
        // The next dispatch crosses the interval: tables cleared first.
        let hints = pred.on_dispatch(1, &mut tags);
        prop_assert!(hints.produces.is_none(), "not cleared at the interval");
        prop_assert_eq!(pred.stats().clears, 1);
    }
}
