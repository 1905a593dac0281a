//! PCAX-style PC-indexed classification over the SFC/MDT backend.
//!
//! PAPERS.md's PCAX observes that a load's *PC* is a strong predictor of its
//! data-address behavior. Applied to disambiguation: most static loads
//! either never alias an in-flight store or always receive their data from
//! the same static store. This backend keeps a tagged, set-associative
//! [`PcTable`] over load PCs (the producer-set PT/CT machinery, generalized
//! behind the shared [`TableGeometry`]) and classifies every load at
//! dispatch:
//!
//! * **no-alias** — issue freely and *skip the SFC probe*: the load reads
//!   committed memory directly. Safety is not taken on faith: at execute,
//!   after a clean MDT check, the backend probes the MDT read-only
//!   ([`aim_core::Mdt::executed_older_store`]) for an older executed
//!   in-flight store to the load's granule. A hit **vetoes** the skip (the
//!   load would silently read stale memory, and no later MDT check would
//!   ever catch it) and falls back to the normal SFC probe. Late-executing
//!   older stores are caught by the MDT's ordinary true-dependence check,
//!   exactly as for unknown loads.
//! * **predicted-forward** — the load expects its value from a known static
//!   store: while a dispatched-but-unexecuted older store with the
//!   predicted PC is in flight, the load replays
//!   ([`ReplayCause::OrderWait`]) instead of speculating past it; once the
//!   producer has executed, the load takes the normal forwarding path.
//! * **unknown** — the full SFC + MDT path of [`AimBackend`].
//!
//! Every prediction is verified: MDT-detected violations (and vetoes) train
//! the table — a true-dependence violation installs a forward prediction
//! for the violating load's PC, a clean unpredicted retire strengthens
//! no-alias confidence, and mispredictions decay it.

use std::collections::VecDeque;

use aim_core::TableGeometry;
use aim_mem::MainMemory;
use aim_predictor::PcTable;
use aim_types::{MemAccess, SeqNum, ViolationKind};

use crate::aim::{AimBackend, AimStats};
use crate::{
    BackendStats, DispatchStall, LoadOutcome, LoadRequest, MemBackend, MemKind, ReplayCause,
    StoreOutcome, StoreRequest,
};

/// Saturation ceiling for prediction confidence counters.
pub const MAX_CONF: u8 = 3;
/// Confidence installed by a true-dependence violation.
const FORWARD_INSTALL: u8 = 2;

/// Geometry and confidence thresholds of the PCAX classification table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcaxConfig {
    /// Shape of the tagged PC-indexed table.
    pub table: TableGeometry,
    /// A no-alias entry must reach this confidence before loads skip the
    /// SFC probe (1..=[`MAX_CONF`]; higher is more conservative).
    pub no_alias_act: u8,
    /// A forward entry acts from this confidence on (violations install at
    /// 2; 1..=[`MAX_CONF`]).
    pub forward_act: u8,
}

impl PcaxConfig {
    /// Default geometry and thresholds: 1024 sets × 2 ways — 2K static
    /// loads tracked, a fraction of the producer-set predictor's 16K-entry
    /// PT/CT — acting on no-alias confidence 2 and forward confidence 1.
    pub fn baseline() -> PcaxConfig {
        PcaxConfig {
            table: TableGeometry {
                sets: 1024,
                ways: 2,
                hash: aim_core::SetHash::LowBits,
            },
            no_alias_act: 2,
            forward_act: 1,
        }
    }

    /// The baseline thresholds over a different table shape — the form
    /// every geometry sweep point takes.
    pub fn with_table(table: TableGeometry) -> PcaxConfig {
        PcaxConfig {
            table,
            ..PcaxConfig::baseline()
        }
    }

    /// Checks the table shape and thresholds are well-formed (thresholds
    /// in 1..=[`MAX_CONF`]: a zero threshold would act on evicted entries,
    /// one above the ceiling would never act).
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the malformed field.
    pub fn check(&self) -> Result<(), String> {
        self.table.check("pcax table")?;
        for (name, t) in [
            ("no_alias_act", self.no_alias_act),
            ("forward_act", self.forward_act),
        ] {
            if !(1..=MAX_CONF).contains(&t) {
                return Err(format!("pcax {name} must be in 1..={MAX_CONF}, got {t}"));
            }
        }
        Ok(())
    }

    /// Panics unless [`PcaxConfig::check`] passes.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

/// Prediction/training counters for the PCAX backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PcaxPredStats {
    /// Loads classified no-alias at dispatch.
    pub loads_no_alias: u64,
    /// Loads classified predicted-forward at dispatch.
    pub loads_forward: u64,
    /// Loads classified unknown at dispatch (full SFC+MDT path).
    pub loads_unknown: u64,
    /// No-alias loads that retired clean without a veto.
    pub no_alias_correct: u64,
    /// No-alias skips vetoed by the MDT's executed-older-store probe.
    pub no_alias_vetoed: u64,
    /// Predicted no-alias loads caught in an ordering violation.
    pub no_alias_violated: u64,
    /// Predicted-forward loads that retired with their value forwarded.
    pub forward_hits: u64,
    /// Predicted-forward loads that retired without forwarding.
    pub forward_misses: u64,
    /// OrderWait replays spent waiting for a predicted producer store.
    pub forward_wait_replays: u64,
    /// SFC probes skipped by acted-on no-alias predictions.
    pub sfc_probes_skipped: u64,
    /// Table installs from MDT true-dependence violations.
    pub violation_trainings: u64,
}

impl PcaxPredStats {
    /// Loads classified at dispatch.
    pub fn classified(&self) -> u64 {
        self.loads_no_alias + self.loads_forward + self.loads_unknown
    }

    /// Fraction of classified loads carrying an acted-on prediction.
    pub fn coverage(&self) -> f64 {
        let c = self.classified();
        if c == 0 {
            return 0.0;
        }
        (self.loads_no_alias + self.loads_forward) as f64 / c as f64
    }

    /// Fraction of resolved predictions that were correct (clean no-alias
    /// retires + forward hits over all resolved predictions).
    pub fn accuracy(&self) -> f64 {
        let correct = self.no_alias_correct + self.forward_hits;
        let resolved =
            correct + self.no_alias_vetoed + self.no_alias_violated + self.forward_misses;
        if resolved == 0 {
            return 0.0;
        }
        correct as f64 / resolved as f64
    }
}

/// Counters for the PCAX backend: the wrapped SFC/MDT machinery plus the
/// prediction table's own.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PcaxStats {
    /// The wrapped SFC/MDT/StoreFIFO counters.
    pub aim: AimStats,
    /// Classification and training counters.
    pub pred: PcaxPredStats,
}

/// One classification-table entry per static load.
#[derive(Debug, Clone, Copy)]
enum PredEntry {
    /// This load never aliases an in-flight store.
    NoAlias {
        /// Saturating confidence (acts at [`PcaxConfig::no_alias_act`]).
        conf: u8,
    },
    /// This load receives its value from the store at `store_pc`.
    Forward {
        /// The predicted producer store's PC.
        store_pc: u64,
        /// Saturating confidence (acts at [`PcaxConfig::forward_act`]).
        conf: u8,
    },
}

/// How a dispatched load was classified (the acted-on prediction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PredClass {
    NoAlias,
    Forward(u64),
    Unknown,
}

/// A dispatched, unretired load and its in-flight prediction outcome.
#[derive(Debug, Clone, Copy)]
struct InflightLoad {
    seq: SeqNum,
    pc: u64,
    class: PredClass,
    /// The MDT probe vetoed a no-alias skip at least once.
    vetoed: bool,
    /// The load's (latest) execution was fully forwarded.
    forwarded: bool,
}

/// A dispatched, unretired store (for the predicted-forward wait test).
#[derive(Debug, Clone, Copy)]
struct InflightStore {
    seq: SeqNum,
    pc: u64,
    executed: bool,
}

/// [`AimBackend`] plus the PC-indexed classification table: no-alias loads
/// skip the SFC probe (MDT-verified), predicted-forward loads wait for
/// their producer, unknown loads take the full paper path.
pub struct PcaxBackend {
    inner: AimBackend,
    config: PcaxConfig,
    table: PcTable<PredEntry>,
    /// Dispatched, unretired loads in program order.
    loads: VecDeque<InflightLoad>,
    /// Dispatched, unretired stores in program order.
    stores: VecDeque<InflightStore>,
    stats: PcaxPredStats,
}

impl PcaxBackend {
    /// Wraps a constructed [`AimBackend`] with a classification table of the
    /// given geometry and thresholds.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`PcaxConfig::validate`].
    pub fn new(inner: AimBackend, config: PcaxConfig) -> PcaxBackend {
        config.validate();
        PcaxBackend {
            inner,
            config,
            table: PcTable::tagged(config.table),
            loads: VecDeque::new(),
            stores: VecDeque::new(),
            stats: PcaxPredStats::default(),
        }
    }

    fn classify(&mut self, pc: u64) -> PredClass {
        match self.table.get(pc) {
            Some(PredEntry::NoAlias { conf }) if *conf >= self.config.no_alias_act => {
                self.stats.loads_no_alias += 1;
                PredClass::NoAlias
            }
            Some(PredEntry::Forward { store_pc, conf }) if *conf >= self.config.forward_act => {
                self.stats.loads_forward += 1;
                PredClass::Forward(*store_pc)
            }
            _ => {
                self.stats.loads_unknown += 1;
                PredClass::Unknown
            }
        }
    }

    fn weaken_no_alias(&mut self, pc: u64) {
        if let Some(PredEntry::NoAlias { conf }) = self.table.get_mut(pc) {
            *conf = conf.saturating_sub(1);
        }
    }

    /// Finalizes one load's prediction at retirement (training).
    fn train_on_retire(&mut self, rec: InflightLoad) {
        match rec.class {
            PredClass::NoAlias => {
                if rec.vetoed {
                    self.stats.no_alias_vetoed += 1;
                    self.weaken_no_alias(rec.pc);
                } else {
                    self.stats.no_alias_correct += 1;
                    if let Some(PredEntry::NoAlias { conf }) = self.table.get_mut(rec.pc) {
                        *conf = (*conf + 1).min(MAX_CONF);
                    }
                }
            }
            PredClass::Forward(_) => {
                if rec.forwarded {
                    self.stats.forward_hits += 1;
                    if let Some(PredEntry::Forward { conf, .. }) = self.table.get_mut(rec.pc) {
                        *conf = (*conf + 1).min(MAX_CONF);
                    }
                } else {
                    self.stats.forward_misses += 1;
                    if let Some(PredEntry::Forward { conf, .. }) = self.table.get_mut(rec.pc) {
                        *conf = conf.saturating_sub(1);
                        if *conf == 0 {
                            self.table.remove(rec.pc);
                        }
                    }
                }
            }
            PredClass::Unknown => {
                // A clean, unforwarded retire is evidence of no-alias; one
                // more makes the prediction act. Forwarded unknowns learn
                // nothing here — forward predictions come from violations,
                // which carry the producer's PC.
                if !rec.forwarded {
                    match self.table.get_mut(rec.pc) {
                        Some(PredEntry::NoAlias { conf }) => *conf = (*conf + 1).min(MAX_CONF),
                        Some(PredEntry::Forward { .. }) => {}
                        None => self.table.insert(rec.pc, PredEntry::NoAlias { conf: 1 }),
                    }
                }
            }
        }
    }

    fn record_mut(&mut self, seq: SeqNum) -> &mut InflightLoad {
        self.loads
            .iter_mut()
            .find(|r| r.seq == seq)
            .expect("load executed without dispatch")
    }
}

impl MemBackend for PcaxBackend {
    fn can_dispatch(&self, kind: MemKind) -> Result<(), DispatchStall> {
        self.inner.can_dispatch(kind)
    }

    fn dispatch(&mut self, kind: MemKind, seq: SeqNum, pc: u64, hint: Option<MemAccess>) {
        self.inner.dispatch(kind, seq, pc, hint);
        match kind {
            MemKind::Load => {
                let class = self.classify(pc);
                self.loads.push_back(InflightLoad {
                    seq,
                    pc,
                    class,
                    vetoed: false,
                    forwarded: false,
                });
            }
            MemKind::Store => self.stores.push_back(InflightStore {
                seq,
                pc,
                executed: false,
            }),
        }
    }

    fn load_execute(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome {
        let class = self.record_mut(req.seq).class;
        match class {
            PredClass::Forward(store_pc) => {
                // Hold the load while its predicted producer is dispatched
                // but unexecuted: replaying is cheaper than the guaranteed
                // violation flush. Progress is assured — older stores always
                // execute eventually (head-of-ROB bypass at worst).
                if self
                    .stores
                    .iter()
                    .any(|s| s.pc == store_pc && s.seq < req.seq && !s.executed)
                {
                    self.stats.forward_wait_replays += 1;
                    return LoadOutcome::Replay(ReplayCause::OrderWait);
                }
                let out = self.inner.load_execute(req, mem);
                if let LoadOutcome::Done { forwarded, .. } = out {
                    self.record_mut(req.seq).forwarded = forwarded;
                }
                out
            }
            PredClass::NoAlias if !req.filtered => {
                // The MDT check always runs: it records the load so a
                // late-executing older store still raises the true-dependence
                // violation, and it catches anti violations here.
                match self
                    .inner
                    .mdt
                    .on_load_execute(req.seq, req.pc, req.access, req.floor)
                {
                    Err(_) => LoadOutcome::Replay(ReplayCause::MdtConflict),
                    Ok(Some(v)) => {
                        self.stats.no_alias_violated += 1;
                        self.weaken_no_alias(req.pc);
                        LoadOutcome::Anti(v)
                    }
                    Ok(None) => {
                        if self
                            .inner
                            .mdt
                            .executed_older_store(req.seq, req.access, req.floor)
                        {
                            // Veto: an older executed store's data is live in
                            // the SFC; skipping the probe would read stale
                            // memory undetected. Fall back to the full probe.
                            self.record_mut(req.seq).vetoed = true;
                            let out = self.inner.sfc_probe(req, mem);
                            if let LoadOutcome::Done { forwarded, .. } = out {
                                self.record_mut(req.seq).forwarded = forwarded;
                            }
                            out
                        } else {
                            self.stats.sfc_probes_skipped += 1;
                            LoadOutcome::Done {
                                value: mem.read(req.access),
                                forwarded: false,
                            }
                        }
                    }
                }
            }
            _ => {
                // Unknown — and filtered no-alias loads, where the §4 filter
                // already proved the skip: the full AimBackend path.
                let out = self.inner.load_execute(req, mem);
                if let LoadOutcome::Done { forwarded, .. } = out {
                    self.record_mut(req.seq).forwarded = forwarded;
                }
                out
            }
        }
    }

    fn store_execute(&mut self, req: &StoreRequest, mem: &MainMemory) -> StoreOutcome {
        let out = self.inner.store_execute(req, mem);
        if let StoreOutcome::Done { violations, .. } = &out {
            let tracked = self
                .stores
                .iter_mut()
                .find(|s| s.seq == req.seq)
                .expect("store executed without dispatch");
            tracked.executed = true;
            // Verification: a true-dependence violation means the load at
            // consumer_pc speculated past this store — install a forward
            // prediction so its next dynamic instance waits instead.
            for v in violations {
                if v.kind != ViolationKind::True {
                    continue;
                }
                self.stats.violation_trainings += 1;
                if let Some(rec) = self.loads.iter().rev().find(|r| r.pc == v.consumer_pc) {
                    if rec.class == PredClass::NoAlias {
                        self.stats.no_alias_violated += 1;
                    }
                }
                self.table.insert(
                    v.consumer_pc,
                    PredEntry::Forward {
                        store_pc: req.pc,
                        conf: FORWARD_INSTALL,
                    },
                );
            }
        }
        out
    }

    fn retire_load(&mut self, seq: SeqNum, access: MemAccess) {
        let rec = self.loads.pop_front().expect("load retire on empty pcax");
        assert_eq!(rec.seq, seq, "load retirement out of order");
        self.train_on_retire(rec);
        self.inner.retire_load(seq, access);
    }

    fn retire_store(&mut self, seq: SeqNum, access: MemAccess) {
        let t = self.stores.pop_front().expect("store retire on empty pcax");
        assert_eq!(t.seq, seq, "store retirement out of order");
        self.inner.retire_store(seq, access);
    }

    fn squash_after(
        &mut self,
        survivor: SeqNum,
        youngest: SeqNum,
        surviving_executed_store: &dyn Fn() -> bool,
    ) {
        while matches!(self.loads.back(), Some(r) if r.seq > survivor) {
            self.loads.pop_back();
        }
        while matches!(self.stores.back(), Some(s) if s.seq > survivor) {
            self.stores.pop_back();
        }
        self.inner
            .squash_after(survivor, youngest, surviving_executed_store);
    }

    fn flush(&mut self) {
        self.loads.clear();
        self.stores.clear();
        self.inner.flush();
    }

    fn stats_into(&self, out: &mut BackendStats) {
        let mut aim = BackendStats::default();
        self.inner.stats_into(&mut aim);
        let aim = match aim {
            BackendStats::Aim(a) => a,
            other => unreachable!("AimBackend reports aim stats, got {}", other.family()),
        };
        *out = BackendStats::Pcax(PcaxStats {
            aim,
            pred: self.stats,
        });
    }

    fn free_event_count(&self) -> u64 {
        self.inner.free_event_count()
    }

    fn uses_stall_bits(&self) -> bool {
        // OrderWait replays are not structural conflicts: a sleeping load
        // would never be woken by an entry free. Replays retry instead.
        false
    }

    fn violation_extra_penalty(&self) -> u64 {
        self.inner.violation_extra_penalty()
    }

    fn supports_load_filter(&self) -> bool {
        true
    }

    fn supports_head_bypass(&self) -> bool {
        true
    }

    fn mark_corrupt(&mut self, access: MemAccess) {
        self.inner.mark_corrupt(access);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_core::{Mdt, MdtConfig, PartialMatchPolicy, Sfc, SfcConfig};
    use aim_types::{AccessSize, Addr};

    fn backend() -> PcaxBackend {
        PcaxBackend::new(
            AimBackend::new(
                Sfc::new(SfcConfig::baseline()),
                Mdt::new(MdtConfig::baseline()),
                0,
                PartialMatchPolicy::Combine,
                1,
                1,
            ),
            PcaxConfig::baseline(),
        )
    }

    fn d(addr: u64) -> MemAccess {
        MemAccess::new(Addr(addr), AccessSize::Double).unwrap()
    }

    fn load_req(seq: u64, pc: u64, access: MemAccess) -> LoadRequest {
        LoadRequest {
            seq: SeqNum(seq),
            pc,
            access,
            floor: SeqNum(1),
            filtered: false,
        }
    }

    fn store_req(seq: u64, pc: u64, access: MemAccess, value: u64) -> StoreRequest {
        StoreRequest {
            seq: SeqNum(seq),
            pc,
            access,
            value,
            floor: SeqNum(1),
            bypass: false,
        }
    }

    fn stats(b: &PcaxBackend) -> PcaxStats {
        let mut out = BackendStats::default();
        b.stats_into(&mut out);
        match out {
            BackendStats::Pcax(s) => s,
            other => panic!("wrong stats family: {}", other.family()),
        }
    }

    /// Retire a clean load at `pc` twice so its no-alias entry reaches the
    /// acting confidence.
    fn train_no_alias(b: &mut PcaxBackend, pc: u64, mut seq: u64) -> u64 {
        let mem = MainMemory::new();
        for _ in 0..2 {
            b.dispatch(MemKind::Load, SeqNum(seq), pc, None);
            b.load_execute(&load_req(seq, pc, d(0x900)), &mem);
            b.retire_load(SeqNum(seq), d(0x900));
            seq += 1;
        }
        seq
    }

    #[test]
    fn untrained_loads_take_the_unknown_path() {
        let mut b = backend();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Load, SeqNum(1), 0x10, None);
        let out = b.load_execute(&load_req(1, 0x10, d(0x100)), &mem);
        assert!(matches!(
            out,
            LoadOutcome::Done {
                forwarded: false,
                ..
            }
        ));
        let s = stats(&b).pred;
        assert_eq!(s.loads_unknown, 1);
        assert_eq!(s.sfc_probes_skipped, 0);
    }

    #[test]
    fn trained_no_alias_skips_the_sfc_probe() {
        let mut b = backend();
        let mem = MainMemory::new();
        let seq = train_no_alias(&mut b, 0x10, 1);
        b.dispatch(MemKind::Load, SeqNum(seq), 0x10, None);
        let out = b.load_execute(&load_req(seq, 0x10, d(0x900)), &mem);
        assert!(matches!(
            out,
            LoadOutcome::Done {
                forwarded: false,
                ..
            }
        ));
        let s = stats(&b).pred;
        assert_eq!(s.loads_no_alias, 1);
        assert_eq!(s.sfc_probes_skipped, 1);
        // The skip still recorded the load in the MDT (late stores must
        // find it).
        assert_eq!(stats(&b).aim.mdt.load_checks, 3);
    }

    #[test]
    fn executed_older_store_vetoes_the_skip_and_forwards() {
        let mut b = backend();
        let mem = MainMemory::new();
        let seq = train_no_alias(&mut b, 0x10, 1);
        // An older store executes to the very address the load reads.
        b.dispatch(MemKind::Store, SeqNum(seq), 0x50, None);
        b.dispatch(MemKind::Load, SeqNum(seq + 1), 0x10, None);
        b.store_execute(&store_req(seq, 0x50, d(0x900), 0xBEEF), &mem);
        let out = b.load_execute(&load_req(seq + 1, 0x10, d(0x900)), &mem);
        // Without the veto this would read 0 from memory — stale, and no
        // MDT check would ever catch it.
        assert!(matches!(
            out,
            LoadOutcome::Done {
                value: 0xBEEF,
                forwarded: true
            }
        ));
        b.retire_load(SeqNum(seq + 1), d(0x900));
        let s = stats(&b).pred;
        assert_eq!(s.no_alias_vetoed, 1);
        assert_eq!(s.sfc_probes_skipped, 0);
    }

    #[test]
    fn true_violation_installs_a_forward_prediction_that_waits() {
        let mut b = backend();
        let mem = MainMemory::new();
        // Round 1: load 2 (pc 0x20) speculates past store 1 (pc 0x50).
        b.dispatch(MemKind::Store, SeqNum(1), 0x50, None);
        b.dispatch(MemKind::Load, SeqNum(2), 0x20, None);
        b.load_execute(&load_req(2, 0x20, d(0x100)), &mem);
        let StoreOutcome::Done { violations, .. } =
            b.store_execute(&store_req(1, 0x50, d(0x100), 7), &mem)
        else {
            panic!("store replayed");
        };
        assert_eq!(violations.len(), 1);
        assert_eq!(stats(&b).pred.violation_trainings, 1);
        // Recovery squashes the load; the store survives.
        b.squash_after(SeqNum(1), SeqNum(2), &|| true);
        b.flush();
        // Round 2: the trained load now waits for the unexecuted producer...
        b.dispatch(MemKind::Store, SeqNum(11), 0x50, None);
        b.dispatch(MemKind::Load, SeqNum(12), 0x20, None);
        let out = b.load_execute(&load_req(12, 0x20, d(0x100)), &mem);
        assert!(matches!(out, LoadOutcome::Replay(ReplayCause::OrderWait)));
        // ...and forwards from it once it has executed.
        b.store_execute(&store_req(11, 0x50, d(0x100), 9), &mem);
        let out = b.load_execute(&load_req(12, 0x20, d(0x100)), &mem);
        assert!(matches!(
            out,
            LoadOutcome::Done {
                value: 9,
                forwarded: true
            }
        ));
        b.retire_load(SeqNum(12), d(0x100));
        let s = stats(&b).pred;
        assert_eq!(s.forward_wait_replays, 1);
        assert_eq!(s.forward_hits, 1);
    }

    #[test]
    fn forward_misses_decay_and_evict_the_prediction() {
        let mut b = backend();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0x50, None);
        b.dispatch(MemKind::Load, SeqNum(2), 0x20, None);
        b.load_execute(&load_req(2, 0x20, d(0x100)), &mem);
        b.store_execute(&store_req(1, 0x50, d(0x100), 7), &mem);
        b.flush();
        // Two dynamic instances with no producer in flight retire without
        // forwarding: confidence 2 → 1 → 0 (entry evicted).
        let mut seq = 10;
        for _ in 0..2 {
            b.dispatch(MemKind::Load, SeqNum(seq), 0x20, None);
            b.load_execute(&load_req(seq, 0x20, d(0x300)), &mem);
            b.retire_load(SeqNum(seq), d(0x300));
            seq += 1;
        }
        assert_eq!(stats(&b).pred.forward_misses, 2);
        // The next instance is unknown again (1 unknown in round 1, plus
        // this one).
        b.dispatch(MemKind::Load, SeqNum(seq), 0x20, None);
        assert_eq!(stats(&b).pred.loads_unknown, 2);
    }

    #[test]
    fn anti_violation_on_predicted_load_weakens_the_entry() {
        let mut b = backend();
        let mem = MainMemory::new();
        let seq = train_no_alias(&mut b, 0x10, 1);
        // A younger store executes first, then the predicted load: anti.
        b.dispatch(MemKind::Load, SeqNum(seq), 0x10, None);
        b.dispatch(MemKind::Store, SeqNum(seq + 1), 0x50, None);
        b.store_execute(&store_req(seq + 1, 0x50, d(0x900), 7), &mem);
        let out = b.load_execute(&load_req(seq, 0x10, d(0x900)), &mem);
        assert!(matches!(out, LoadOutcome::Anti(_)));
        assert_eq!(stats(&b).pred.no_alias_violated, 1);
        // Confidence dropped below the acting threshold: next instance is
        // unknown (2 unknowns during training, plus this one).
        b.flush();
        b.dispatch(MemKind::Load, SeqNum(50), 0x10, None);
        assert_eq!(stats(&b).pred.loads_unknown, 3);
    }

    #[test]
    fn squash_drops_inflight_records() {
        let mut b = backend();
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0x50, None);
        b.dispatch(MemKind::Load, SeqNum(2), 0x20, None);
        b.squash_after(SeqNum(1), SeqNum(2), &|| false);
        // The squashed load gets no retire call; the store still retires.
        b.store_execute(&store_req(1, 0x50, d(0x100), 7), &mem);
        b.retire_store(SeqNum(1), d(0x100));
        assert!(b.loads.is_empty() && b.stores.is_empty());
    }

    #[test]
    fn raising_the_acting_threshold_delays_the_skip() {
        // With no_alias_act = 3, two clean retires (confidence 2) are no
        // longer enough: the third instance still takes the unknown path,
        // and only the fourth acts.
        let mut b = PcaxBackend::new(
            backend().inner,
            PcaxConfig {
                no_alias_act: 3,
                ..PcaxConfig::baseline()
            },
        );
        let mem = MainMemory::new();
        let mut seq = train_no_alias(&mut b, 0x10, 1);
        b.dispatch(MemKind::Load, SeqNum(seq), 0x10, None);
        b.load_execute(&load_req(seq, 0x10, d(0x900)), &mem);
        b.retire_load(SeqNum(seq), d(0x900));
        seq += 1;
        assert_eq!(stats(&b).pred.loads_no_alias, 0);
        b.dispatch(MemKind::Load, SeqNum(seq), 0x10, None);
        assert_eq!(stats(&b).pred.loads_no_alias, 1);
    }

    #[test]
    fn raising_the_forward_threshold_ignores_fresh_installs() {
        // Violations install forward entries at confidence 2; with
        // forward_act = 3 the next dynamic instance does not wait.
        let mut b = PcaxBackend::new(
            backend().inner,
            PcaxConfig {
                forward_act: 3,
                ..PcaxConfig::baseline()
            },
        );
        let mem = MainMemory::new();
        b.dispatch(MemKind::Store, SeqNum(1), 0x50, None);
        b.dispatch(MemKind::Load, SeqNum(2), 0x20, None);
        b.load_execute(&load_req(2, 0x20, d(0x100)), &mem);
        b.store_execute(&store_req(1, 0x50, d(0x100), 7), &mem);
        b.squash_after(SeqNum(1), SeqNum(2), &|| true);
        b.flush();
        b.dispatch(MemKind::Store, SeqNum(11), 0x50, None);
        b.dispatch(MemKind::Load, SeqNum(12), 0x20, None);
        let out = b.load_execute(&load_req(12, 0x20, d(0x100)), &mem);
        assert!(!matches!(out, LoadOutcome::Replay(ReplayCause::OrderWait)));
        assert_eq!(stats(&b).pred.loads_forward, 0);
    }

    #[test]
    #[should_panic(expected = "pcax no_alias_act must be in 1..=3")]
    fn zero_acting_threshold_is_rejected() {
        PcaxConfig {
            no_alias_act: 0,
            ..PcaxConfig::baseline()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "pcax forward_act must be in 1..=3")]
    fn oversized_forward_threshold_is_rejected() {
        PcaxBackend::new(
            backend().inner,
            PcaxConfig {
                forward_act: MAX_CONF + 1,
                ..PcaxConfig::baseline()
            },
        );
    }

    #[test]
    fn with_table_keeps_baseline_thresholds() {
        let g = TableGeometry {
            sets: 16,
            ways: 1,
            hash: aim_core::SetHash::LowBits,
        };
        let c = PcaxConfig::with_table(g);
        assert_eq!(c.table, g);
        assert_eq!(c.no_alias_act, PcaxConfig::baseline().no_alias_act);
        assert_eq!(c.forward_act, PcaxConfig::baseline().forward_act);
    }

    #[test]
    fn coverage_and_accuracy_summarize_the_counters() {
        let s = PcaxPredStats {
            loads_no_alias: 6,
            loads_forward: 2,
            loads_unknown: 2,
            no_alias_correct: 5,
            no_alias_vetoed: 1,
            forward_hits: 2,
            ..PcaxPredStats::default()
        };
        assert!((s.coverage() - 0.8).abs() < 1e-12);
        assert!((s.accuracy() - 7.0 / 8.0).abs() < 1e-12);
        assert_eq!(PcaxPredStats::default().coverage(), 0.0);
        assert_eq!(PcaxPredStats::default().accuracy(), 0.0);
    }
}
