//! The producer-set memory dependence predictor (paper §2.1).

use aim_types::ViolationKind;

use crate::pc_table::PcTable;
use crate::tags::{DepTag, TagScoreboard};

/// Which predicted dependences the predictor enforces.
///
/// The paper evaluates three policies:
///
/// * [`TrueOnly`](EnforceMode::TrueOnly) — the **NOT-ENF** configuration:
///   "the dependence predictor inserts a dependence arc between a pair of
///   instructions only when the MDT detects a true dependence violation"
///   (§3.1). Also the natural mode for the LSQ backend, which only ever
///   reports true violations.
/// * [`All`](EnforceMode::All) — the **ENF** configuration: arcs are inserted
///   for true, anti, *and* output violations.
/// * [`TotalOrder`](EnforceMode::TotalOrder) — the aggressive-processor ENF
///   variant: "we alter the dependence predictor to enforce a total ordering
///   upon loads and stores in the same producer set ... by treating any load
///   or store involved in a dependence violation as both a producer and a
///   consumer" (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnforceMode {
    /// Insert arcs only on true dependence violations (NOT-ENF).
    TrueOnly,
    /// Insert arcs on all violation kinds (ENF).
    All,
    /// ENF plus total ordering within each producer set (aggressive ENF).
    TotalOrder,
}

aim_types::keyword_tokens!(EnforceMode, "mode", {
    All => "enf",
    TrueOnly => "not-enf",
    TotalOrder => "total",
});

/// Geometry of the predictor's tables (Figure 4: "16K-entry PT and CT,
/// 4K producer id's, 512-entry LFPT").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Entries in the PC-indexed producer and consumer tables.
    pub table_entries: usize,
    /// Number of distinct producer-set ids before reuse.
    pub max_sets: u32,
    /// Entries in the last-fetched producer table.
    pub lfpt_entries: usize,
    /// Enforcement policy.
    pub mode: EnforceMode,
    /// Cyclic-clearing interval, in dispatched memory operations (0 = never).
    ///
    /// Store-set-family predictors periodically clear their tables so that
    /// stale dependences do not constrain code forever (Chrysos & Emer's
    /// store-set paper uses cyclic clearance for exactly this reason): a producer set
    /// formed by a one-time violation on hot code would otherwise serialize
    /// that code for the rest of the run.
    pub clear_interval: u64,
}

impl PredictorConfig {
    /// The paper's Figure 4 geometry with the given enforcement mode.
    pub fn figure4(mode: EnforceMode) -> PredictorConfig {
        PredictorConfig {
            table_entries: 16 * 1024,
            max_sets: 4096,
            lfpt_entries: 512,
            mode,
            clear_interval: 8192,
        }
    }
}

/// Tags handed to a dispatching load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DepHints {
    /// Tag this instruction must wait on before issuing, if any.
    pub consumes: Option<DepTag>,
    /// Tag this instruction produces (marked ready when it completes), if any.
    pub produces: Option<DepTag>,
}

/// Training / effectiveness counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Violations reported to the predictor (after mode filtering).
    pub arcs_inserted: u64,
    /// Violations ignored because of the enforcement mode.
    pub arcs_filtered: u64,
    /// Dispatches that produced a tag.
    pub producers_dispatched: u64,
    /// Dispatches that consumed a tag.
    pub consumers_dispatched: u64,
    /// Producer-set merges.
    pub merges: u64,
    /// Cyclic table clearings performed.
    pub clears: u64,
}

/// The producer-set predictor: producer table (PT), consumer table (CT) and
/// last-fetched producer table (LFPT).
///
/// "When the MDT notifies the producer-set predictor of a dependence
/// violation, the predictor inserts a dependence between the earlier
/// instruction (the producer) and the later instruction (the consumer) by
/// placing the two instructions in the same producer set. ... Rules for
/// merging producer sets are identical to the rules for merging store sets"
/// (§2.1).
///
/// # Examples
///
/// ```
/// use aim_predictor::{EnforceMode, ProducerSetPredictor, TagScoreboard, ViolationKind};
///
/// let mut pred = ProducerSetPredictor::new(EnforceMode::TrueOnly);
/// let mut tags = TagScoreboard::new();
/// // NOT-ENF ignores anti and output violations entirely.
/// pred.record_violation(4, 8, ViolationKind::Output);
/// assert_eq!(pred.on_dispatch(4, &mut tags).produces, None);
/// ```
#[derive(Debug, Clone)]
pub struct ProducerSetPredictor {
    config: PredictorConfig,
    /// Producer table: untagged direct-mapped [`PcTable`] over
    /// `table_entries` PCs (Figure 4's shape).
    pt: PcTable<u32>,
    /// Consumer table, same shape as the PT.
    ct: PcTable<u32>,
    /// Last-fetched producer table, indexed by producer-set id.
    lfpt: PcTable<DepTag>,
    next_set: u32,
    dispatches_since_clear: u64,
    stats: PredictorStats,
}

impl ProducerSetPredictor {
    /// Creates a predictor with the paper's Figure 4 geometry.
    pub fn new(mode: EnforceMode) -> ProducerSetPredictor {
        ProducerSetPredictor::with_config(PredictorConfig::figure4(mode))
    }

    /// Creates a predictor with explicit geometry.
    ///
    /// # Panics
    ///
    /// Panics if `table_entries` or `lfpt_entries` is not a nonzero power of
    /// two.
    pub fn with_config(config: PredictorConfig) -> ProducerSetPredictor {
        assert!(config.table_entries.is_power_of_two() && config.table_entries > 0);
        assert!(config.lfpt_entries.is_power_of_two() && config.lfpt_entries > 0);
        assert!(config.max_sets > 0);
        ProducerSetPredictor {
            config,
            pt: PcTable::direct(config.table_entries),
            ct: PcTable::direct(config.table_entries),
            lfpt: PcTable::direct(config.lfpt_entries),
            next_set: 0,
            dispatches_since_clear: 0,
            stats: PredictorStats::default(),
        }
    }

    /// The configured geometry and mode.
    pub fn config(&self) -> PredictorConfig {
        self.config
    }

    /// Training counters.
    pub fn stats(&self) -> PredictorStats {
        self.stats
    }

    /// Looks up the dispatching load/store at `pc` and assigns dependence
    /// tags: the CT is read first (consuming the set's last-fetched
    /// producer's tag), then the PT makes this instruction the set's new
    /// last-fetched producer.
    pub fn on_dispatch<L: Default>(&mut self, pc: u64, tags: &mut TagScoreboard<L>) -> DepHints {
        if self.config.clear_interval > 0 {
            self.dispatches_since_clear += 1;
            if self.dispatches_since_clear >= self.config.clear_interval {
                self.dispatches_since_clear = 0;
                self.pt.clear();
                self.ct.clear();
                self.lfpt.clear();
                self.stats.clears += 1;
            }
        }
        let mut hints = DepHints::default();

        if let Some(&set) = self.ct.get(pc) {
            if let Some(&tag) = self.lfpt.get(u64::from(set)) {
                hints.consumes = Some(tag);
                self.stats.consumers_dispatched += 1;
            }
        }
        if let Some(&set) = self.pt.get(pc) {
            let tag = tags.alloc();
            self.lfpt.insert(u64::from(set), tag);
            hints.produces = Some(tag);
            self.stats.producers_dispatched += 1;
        }
        hints
    }

    fn alloc_set(&mut self) -> u32 {
        let s = self.next_set;
        self.next_set = (self.next_set + 1) % self.config.max_sets;
        s
    }

    /// Trains on a violation between the instruction at `producer_pc`
    /// (earlier in program order) and `consumer_pc` (later), subject to the
    /// enforcement mode.
    pub fn record_violation(&mut self, producer_pc: u64, consumer_pc: u64, kind: ViolationKind) {
        let enforce = match self.config.mode {
            EnforceMode::TrueOnly => kind == ViolationKind::True,
            EnforceMode::All | EnforceMode::TotalOrder => true,
        };
        if !enforce {
            self.stats.arcs_filtered += 1;
            return;
        }
        self.stats.arcs_inserted += 1;

        // Store-set merging rules: join the existing set if exactly one side
        // has one; merge to the smaller id if both do; allocate otherwise.
        let set = match (self.pt.get(producer_pc).copied(), self.ct.get(consumer_pc).copied()) {
            (Some(a), Some(b)) => {
                if a != b {
                    self.stats.merges += 1;
                }
                a.min(b)
            }
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => self.alloc_set(),
        };
        self.pt.insert(producer_pc, set);
        self.ct.insert(consumer_pc, set);

        if self.config.mode == EnforceMode::TotalOrder {
            // Both instructions become producer *and* consumer, serializing
            // the whole set (§3.2).
            self.ct.insert(producer_pc, set);
            self.pt.insert(consumer_pc, set);
        }
    }

    /// Clears all training state (used between benchmark runs).
    pub fn reset(&mut self) {
        self.pt.clear();
        self.ct.clear();
        self.lfpt.clear();
        self.next_set = 0;
        self.dispatches_since_clear = 0;
        self.stats = PredictorStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predictor(mode: EnforceMode) -> (ProducerSetPredictor, TagScoreboard) {
        (ProducerSetPredictor::new(mode), TagScoreboard::new())
    }

    #[test]
    fn untrained_dispatch_has_no_hints() {
        let (mut p, mut tags) = predictor(EnforceMode::All);
        assert_eq!(p.on_dispatch(0x10, &mut tags), DepHints::default());
    }

    #[test]
    fn true_violation_links_producer_to_consumer() {
        let (mut p, mut tags) = predictor(EnforceMode::All);
        p.record_violation(0x10, 0x20, ViolationKind::True);
        let store = p.on_dispatch(0x10, &mut tags);
        let load = p.on_dispatch(0x20, &mut tags);
        assert!(store.produces.is_some());
        assert_eq!(load.consumes, store.produces);
        assert_eq!(load.produces, None);
    }

    #[test]
    fn consumer_waits_on_most_recent_producer() {
        let (mut p, mut tags) = predictor(EnforceMode::All);
        p.record_violation(0x10, 0x20, ViolationKind::True);
        let first = p.on_dispatch(0x10, &mut tags);
        let second = p.on_dispatch(0x10, &mut tags); // same static store again
        assert_ne!(first.produces, second.produces);
        let load = p.on_dispatch(0x20, &mut tags);
        // "predicted consumers of a producer set become dependent on that
        // set's most recently fetched producer" (§2.1).
        assert_eq!(load.consumes, second.produces);
    }

    #[test]
    fn not_enf_filters_anti_and_output() {
        let (mut p, mut tags) = predictor(EnforceMode::TrueOnly);
        p.record_violation(0x10, 0x20, ViolationKind::Anti);
        p.record_violation(0x10, 0x20, ViolationKind::Output);
        assert_eq!(p.on_dispatch(0x10, &mut tags), DepHints::default());
        assert_eq!(p.stats().arcs_filtered, 2);
        p.record_violation(0x10, 0x20, ViolationKind::True);
        assert!(p.on_dispatch(0x10, &mut tags).produces.is_some());
    }

    #[test]
    fn enf_inserts_all_kinds() {
        let (mut p, mut tags) = predictor(EnforceMode::All);
        p.record_violation(0x30, 0x40, ViolationKind::Output);
        assert!(p.on_dispatch(0x30, &mut tags).produces.is_some());
        assert!(p.on_dispatch(0x40, &mut tags).consumes.is_some());
        assert_eq!(p.stats().arcs_inserted, 1);
    }

    #[test]
    fn plain_enf_does_not_serialize_producers() {
        let (mut p, mut tags) = predictor(EnforceMode::All);
        p.record_violation(0x10, 0x20, ViolationKind::True);
        // The producer itself consumes nothing in plain ENF mode.
        let store = p.on_dispatch(0x10, &mut tags);
        assert_eq!(store.consumes, None);
    }

    #[test]
    fn total_order_makes_members_both_roles() {
        let (mut p, mut tags) = predictor(EnforceMode::TotalOrder);
        p.record_violation(0x10, 0x20, ViolationKind::Anti);
        let first = p.on_dispatch(0x10, &mut tags);
        assert!(first.produces.is_some());
        // Second dispatch of the same pc consumes the first's tag: total order.
        let second = p.on_dispatch(0x10, &mut tags);
        assert_eq!(second.consumes, first.produces);
        let third = p.on_dispatch(0x20, &mut tags);
        assert_eq!(third.consumes, second.produces);
        assert!(third.produces.is_some());
    }

    #[test]
    fn merging_prefers_smaller_set_id() {
        let (mut p, mut tags) = predictor(EnforceMode::All);
        p.record_violation(0x10, 0x20, ViolationKind::True); // set 0
        p.record_violation(0x30, 0x40, ViolationKind::True); // set 1
                                                             // Now link producer 0x30 (set 1) to consumer 0x20 (set 0): merge to 0.
        p.record_violation(0x30, 0x20, ViolationKind::True);
        assert_eq!(p.stats().merges, 1);
        let a = p.on_dispatch(0x30, &mut tags); // producer of merged set 0
        let b = p.on_dispatch(0x20, &mut tags);
        assert_eq!(b.consumes, a.produces);
    }

    #[test]
    fn reset_clears_training() {
        let (mut p, mut tags) = predictor(EnforceMode::All);
        p.record_violation(0x10, 0x20, ViolationKind::True);
        p.reset();
        assert_eq!(p.on_dispatch(0x10, &mut tags), DepHints::default());
        assert_eq!(p.stats().arcs_inserted, 0);
    }

    #[test]
    fn cyclic_clearing_forgets_training() {
        let mut cfg = PredictorConfig::figure4(EnforceMode::All);
        cfg.clear_interval = 4;
        let mut p = ProducerSetPredictor::with_config(cfg);
        let mut tags = TagScoreboard::new();
        p.record_violation(0x10, 0x20, ViolationKind::True);
        assert!(p.on_dispatch(0x10, &mut tags).produces.is_some());
        for _ in 0..4 {
            p.on_dispatch(0x999, &mut tags); // unrelated dispatches
        }
        assert_eq!(p.stats().clears, 1);
        assert_eq!(p.on_dispatch(0x10, &mut tags), DepHints::default());
    }

    #[test]
    fn zero_interval_never_clears() {
        let mut cfg = PredictorConfig::figure4(EnforceMode::All);
        cfg.clear_interval = 0;
        let mut p = ProducerSetPredictor::with_config(cfg);
        let mut tags = TagScoreboard::new();
        p.record_violation(0x10, 0x20, ViolationKind::True);
        for _ in 0..10_000 {
            p.on_dispatch(0x999, &mut tags);
        }
        assert_eq!(p.stats().clears, 0);
        assert!(p.on_dispatch(0x10, &mut tags).produces.is_some());
    }

    #[test]
    fn set_ids_wrap_at_max() {
        let mut cfg = PredictorConfig::figure4(EnforceMode::All);
        cfg.max_sets = 2;
        let mut p = ProducerSetPredictor::with_config(cfg);
        for i in 0..5 {
            p.record_violation(0x100 + 2 * i, 0x101 + 2 * i, ViolationKind::True);
        }
        // No panic, ids reused; training still effective for latest pair.
        let mut tags = TagScoreboard::new();
        assert!(p.on_dispatch(0x108, &mut tags).produces.is_some());
    }
}
