//! Pluggable memory-ordering backends for the pipeline.
//!
//! The paper's central claim is that the address-indexed SFC/MDT/StoreFIFO
//! trio is a *drop-in replacement* for the CAM-based load/store queue. This
//! crate makes that literal: every memory-ordering scheme implements the
//! [`MemBackend`] trait, and the pipeline drives whichever one
//! [`build`] hands it — without knowing which it got.
//!
//! Six backends ship today:
//!
//! * [`LsqBackend`] — the idealized CAM-based load/store queue of §3
//!   (wrapping [`aim_lsq::Lsq`]);
//! * [`FilteredLsqBackend`] — the same queue behind an address-indexed
//!   store-presence filter: loads the filter proves alias-free skip the CAM
//!   search entirely;
//! * [`AimBackend`] — the paper's store forwarding cache + memory
//!   disambiguation table + store FIFO (wrapping [`aim_core::Sfc`],
//!   [`aim_core::Mdt`] and [`aim_mem::StoreFifo`]);
//! * [`PcaxBackend`] — the SFC/MDT trio behind a PC-indexed classification
//!   table: predicted no-alias loads skip the SFC probe (MDT-verified),
//!   predicted-forward loads wait for their producer store, and unknown
//!   loads take the full path;
//! * [`OracleBackend`] — perfect disambiguation: a load waits for exactly
//!   the older stores that overlap it (addresses known in advance), so no
//!   ordering violation ever occurs. The *upper* performance bound.
//! * [`NoSpecBackend`] — no speculation at all: a load waits until every
//!   older store has retired. The *lower* performance bound.
//!
//! The bounds backends bracket Figure 5/6-style results: any real
//! disambiguation scheme should land between `nospec` and `oracle`.
//!
//! The call contract the pipeline honors (and new backends may rely on) is
//! documented on [`MemBackend`]; `DESIGN.md` § "Backend contract" walks
//! through it with the per-cycle stage ordering, and the [`conformance`]
//! module turns that contract into a reusable scripted-trace test harness
//! every backend (current and future) must pass.
//!
//! # Examples
//!
//! ```
//! use aim_backend::{build, BackendConfig, BackendParams, MemKind};
//! use aim_types::SeqNum;
//!
//! let params = BackendParams::new(BackendConfig::Oracle);
//! let mut backend = build(&params);
//! assert!(backend.can_dispatch(MemKind::Store).is_ok());
//! backend.dispatch(MemKind::Store, SeqNum(1), 0x40, None);
//! ```

use aim_core::{Mdt, Sfc};
use aim_mem::MainMemory;
use aim_types::{MemAccess, SeqNum};

mod aim;
mod choice;
pub mod conformance;
mod filtered;
mod lsq;
mod nospec;
mod oracle;
mod pcax;

pub use crate::aim::{AimBackend, AimStats};
pub use crate::choice::{BackendChoice, UnknownBackend};
pub use crate::filtered::{
    FilterConfig, FilterSlot, FilterStats, FilteredLsqBackend, FilteredStats, StoreFilter,
};
pub use crate::lsq::LsqBackend;
pub use crate::nospec::{NoSpecBackend, NoSpecStats};
pub use crate::oracle::{OracleBackend, OracleStats};
pub use crate::pcax::{PcaxBackend, PcaxConfig, PcaxPredStats, PcaxStats, MAX_CONF};

// The violation, policy and geometry types backends speak are defined next
// to the structures that raise them; re-exported so the pipeline needs only
// this crate to configure and talk to a backend.
pub use aim_core::{
    CorruptionPolicy, MdtConfig, MdtStats, MdtTagging, PartialMatchPolicy, SetHash, SfcConfig,
    SfcStats, TableGeometry, TrueDepRecovery, Violation,
};
pub use aim_lsq::{LsqConfig, LsqStats};

/// Which kind of memory instruction an operation concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// A load.
    Load,
    /// A store.
    Store,
}

/// Why a backend refused to accept a memory instruction at dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchStall {
    /// The load queue is full (LSQ backend).
    LoadQueueFull,
    /// The store queue is full (LSQ backend).
    StoreQueueFull,
    /// The bounded store FIFO is full (SFC/MDT backend with
    /// a configured FIFO capacity).
    StoreFifoFull,
}

/// Why a backend dropped a memory instruction at execute, forcing the
/// scheduler to replay it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayCause {
    /// MDT set conflict: no entry could be allocated (§2.2).
    MdtConflict,
    /// SFC set conflict on a store write (§2.3).
    SfcConflict,
    /// The SFC found a requested byte marked corrupt (§2.3).
    Corrupt,
    /// Partial SFC match under [`PartialMatchPolicy::Replay`].
    Partial,
    /// The load must wait for an older store to execute or retire
    /// (oracle / no-speculation backends).
    OrderWait,
}

/// A load presented to [`MemBackend::load_execute`].
#[derive(Debug, Clone, Copy)]
pub struct LoadRequest {
    /// The load's sequence number.
    pub seq: SeqNum,
    /// The load's PC (for violation reporting).
    pub pc: u64,
    /// Address and size.
    pub access: MemAccess,
    /// Oldest in-flight sequence number (retirement floor).
    pub floor: SeqNum,
    /// The pipeline's §4 search filter proved no disambiguation check is
    /// needed; a backend that [`MemBackend::supports_load_filter`] may skip
    /// its disambiguation structure (the forwarding lookup still runs).
    pub filtered: bool,
}

/// A store presented to [`MemBackend::store_execute`].
#[derive(Debug, Clone, Copy)]
pub struct StoreRequest {
    /// The store's sequence number.
    pub seq: SeqNum,
    /// The store's PC (for violation reporting).
    pub pc: u64,
    /// Address and size.
    pub access: MemAccess,
    /// The store data (zero-extended).
    pub value: u64,
    /// Oldest in-flight sequence number (retirement floor).
    pub floor: SeqNum,
    /// §2.2 head-of-ROB bypass: the pipeline will commit this store to
    /// memory directly; the backend skips its forwarding structure but still
    /// performs any ordering check that remains necessary. Only set when
    /// [`MemBackend::supports_head_bypass`] is true.
    pub bypass: bool,
}

/// What a load got back from the backend.
#[derive(Debug, Clone)]
pub enum LoadOutcome {
    /// The load obtained a value.
    Done {
        /// The (zero-extended) loaded value.
        value: u64,
        /// Every requested byte came from an in-flight store — the access
        /// bypasses the cache hierarchy's miss path.
        forwarded: bool,
    },
    /// The load was dropped; the scheduler must replay it.
    Replay(ReplayCause),
    /// The load executed *after* a younger store to the same address wrote
    /// the forwarding structure — an anti dependence violation (§2.4). The
    /// load itself is squashed; recovery applies at its completion event.
    Anti(Violation),
}

/// What a store got back from the backend.
#[derive(Debug, Clone)]
pub enum StoreOutcome {
    /// The store's data was accepted.
    Done {
        /// Execute latency charged by the backend (e.g. the +1 cycle SFC
        /// tag check of §3).
        latency: u64,
        /// Ordering violations this store's late execution exposed, for the
        /// pipeline to recover from at the store's completion event.
        violations: Vec<Violation>,
    },
    /// The store was dropped; the scheduler must replay it.
    Replay(ReplayCause),
}

/// Per-backend statistics, tagged by backend family so reports never carry
/// another backend's (meaningless) counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum BackendStats {
    /// No backend stats recorded yet (pre-finalization).
    #[default]
    None,
    /// Idealized load/store queue counters.
    Lsq(LsqStats),
    /// Filtered-LSQ counters (CAM activity plus the store-presence filter).
    Filtered(FilteredStats),
    /// SFC/MDT/StoreFIFO counters.
    Aim(AimStats),
    /// PCAX counters (the wrapped SFC/MDT machinery plus the prediction
    /// table's own).
    Pcax(PcaxStats),
    /// Oracle-backend counters.
    Oracle(OracleStats),
    /// No-speculation-backend counters.
    NoSpec(NoSpecStats),
}

impl BackendStats {
    /// Short tag naming the backend family ("lsq", "filtered", "aim",
    /// "pcax", "oracle", "nospec", or "none").
    pub fn family(&self) -> &'static str {
        match self {
            BackendStats::None => "none",
            BackendStats::Lsq(_) => "lsq",
            BackendStats::Filtered(_) => "filtered",
            BackendStats::Aim(_) => "aim",
            BackendStats::Pcax(_) => "pcax",
            BackendStats::Oracle(_) => "oracle",
            BackendStats::NoSpec(_) => "nospec",
        }
    }

    /// LSQ counters, when the LSQ backend ran.
    pub fn lsq(&self) -> Option<&LsqStats> {
        match self {
            BackendStats::Lsq(s) => Some(s),
            _ => None,
        }
    }

    /// Filtered-LSQ counters, when the filtered backend ran.
    pub fn filtered(&self) -> Option<&FilteredStats> {
        match self {
            BackendStats::Filtered(s) => Some(s),
            _ => None,
        }
    }

    /// SFC/MDT/StoreFIFO counters, when the AIM backend ran.
    pub fn aim(&self) -> Option<&AimStats> {
        match self {
            BackendStats::Aim(s) => Some(s),
            _ => None,
        }
    }

    /// PCAX counters, when the PCAX backend ran.
    pub fn pcax(&self) -> Option<&PcaxStats> {
        match self {
            BackendStats::Pcax(s) => Some(s),
            _ => None,
        }
    }

    /// SFC counters, for either backend carrying an SFC (AIM or PCAX).
    pub fn sfc(&self) -> Option<&SfcStats> {
        match self {
            BackendStats::Aim(a) => Some(&a.sfc),
            BackendStats::Pcax(p) => Some(&p.aim.sfc),
            _ => None,
        }
    }

    /// MDT counters, for either backend carrying an MDT (AIM or PCAX).
    pub fn mdt(&self) -> Option<&MdtStats> {
        match self {
            BackendStats::Aim(a) => Some(&a.mdt),
            BackendStats::Pcax(p) => Some(&p.aim.mdt),
            _ => None,
        }
    }

    /// Oracle counters, when the oracle backend ran.
    pub fn oracle(&self) -> Option<&OracleStats> {
        match self {
            BackendStats::Oracle(s) => Some(s),
            _ => None,
        }
    }

    /// No-speculation counters, when that backend ran.
    pub fn nospec(&self) -> Option<&NoSpecStats> {
        match self {
            BackendStats::NoSpec(s) => Some(s),
            _ => None,
        }
    }
}

/// Which memory-ordering machinery the pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendConfig {
    /// The idealized load/store queue baseline.
    Lsq(LsqConfig),
    /// The load/store queue behind an address-indexed store-presence filter.
    FilteredLsq {
        /// Queue capacities.
        lsq: LsqConfig,
        /// Filter geometry.
        filter: FilterConfig,
    },
    /// The paper's store forwarding cache + memory disambiguation table.
    SfcMdt {
        /// SFC geometry.
        sfc: SfcConfig,
        /// MDT geometry and true-dependence recovery policy.
        mdt: MdtConfig,
    },
    /// The SFC/MDT machinery behind a PC-indexed classification table.
    Pcax {
        /// SFC geometry.
        sfc: SfcConfig,
        /// MDT geometry and true-dependence recovery policy.
        mdt: MdtConfig,
        /// Classification-table geometry.
        pcax: PcaxConfig,
    },
    /// Perfect disambiguation (upper performance bound).
    Oracle,
    /// No speculation: loads wait for all older stores to retire (lower
    /// performance bound).
    NoSpec,
}

impl BackendConfig {
    /// Short human-readable name for reports.
    pub fn name(&self) -> String {
        match self {
            BackendConfig::Lsq(c) => format!("lsq{}x{}", c.load_entries, c.store_entries),
            BackendConfig::FilteredLsq { lsq, filter } => format!(
                "flsq{}x{}/filt{}x{}",
                lsq.load_entries, lsq.store_entries, filter.sets, filter.ways
            ),
            BackendConfig::SfcMdt { sfc, mdt } => {
                format!("sfc{}x{}/mdt{}x{}", sfc.sets, sfc.ways, mdt.sets, mdt.ways)
            }
            BackendConfig::Pcax { sfc, mdt, pcax } => format!(
                "pcax{}x{}/sfc{}x{}/mdt{}x{}",
                pcax.table.sets, pcax.table.ways, sfc.sets, sfc.ways, mdt.sets, mdt.ways
            ),
            BackendConfig::Oracle => "oracle".to_string(),
            BackendConfig::NoSpec => "nospec".to_string(),
        }
    }
}

/// Everything [`build`] needs to instantiate a backend: the family choice
/// plus the machine-level knobs that tune backend behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackendParams {
    /// Which backend family to build.
    pub config: BackendConfig,
    /// Store FIFO capacity for the SFC/MDT backend (0 = unbounded).
    pub store_fifo_entries: usize,
    /// Partial-SFC-match handling (combine with cache, or replay).
    pub partial_match_policy: PartialMatchPolicy,
    /// Extra store latency modeling the SFC tag check (§3).
    pub sfc_store_extra_latency: u64,
    /// Extra flush penalty on MDT-detected violations (§3).
    pub mdt_violation_extra_penalty: u64,
}

impl BackendParams {
    /// Parameters with the paper's Figure 4 defaults for everything but the
    /// family choice.
    pub fn new(config: BackendConfig) -> BackendParams {
        BackendParams {
            config,
            store_fifo_entries: 0,
            partial_match_policy: PartialMatchPolicy::Combine,
            sfc_store_extra_latency: 1,
            mdt_violation_extra_penalty: 1,
        }
    }
}

/// Instantiates the backend described by `params`.
pub fn build(params: &BackendParams) -> Box<dyn MemBackend + Send> {
    match params.config {
        BackendConfig::Lsq(c) => Box::new(LsqBackend::new(aim_lsq::Lsq::new(c))),
        BackendConfig::FilteredLsq { lsq, filter } => {
            Box::new(FilteredLsqBackend::new(aim_lsq::Lsq::new(lsq), filter))
        }
        BackendConfig::SfcMdt { sfc, mdt } => Box::new(AimBackend::new(
            Sfc::new(sfc),
            Mdt::new(mdt),
            params.store_fifo_entries,
            params.partial_match_policy,
            params.sfc_store_extra_latency,
            params.mdt_violation_extra_penalty,
        )),
        BackendConfig::Pcax { sfc, mdt, pcax } => Box::new(PcaxBackend::new(
            AimBackend::new(
                Sfc::new(sfc),
                Mdt::new(mdt),
                params.store_fifo_entries,
                params.partial_match_policy,
                params.sfc_store_extra_latency,
                params.mdt_violation_extra_penalty,
            ),
            pcax,
        )),
        BackendConfig::Oracle => Box::new(OracleBackend::new()),
        BackendConfig::NoSpec => Box::new(NoSpecBackend::new()),
    }
}

/// A memory-ordering backend: the structure(s) that disambiguate in-flight
/// loads and stores and forward store data to loads.
///
/// # Call contract
///
/// The pipeline calls the methods in a fixed per-cycle order (retire →
/// complete → issue → dispatch → fetch), which implies, per instruction:
///
/// 1. [`can_dispatch`](MemBackend::can_dispatch) then — if `Ok` —
///    [`dispatch`](MemBackend::dispatch), in program order;
/// 2. zero or more [`load_execute`](MemBackend::load_execute) /
///    [`store_execute`](MemBackend::store_execute) calls, in any order
///    across instructions; every `Replay` outcome is followed by another
///    `*_execute` call for the same instruction (unless it is squashed
///    first);
/// 3. exactly one [`retire_load`](MemBackend::retire_load) /
///    [`retire_store`](MemBackend::retire_store) per surviving instruction,
///    in program order. The pipeline commits a retiring store's bytes to
///    [`MainMemory`] *before* calling `retire_store`.
///
/// [`squash_after`](MemBackend::squash_after) may arrive between any two of
/// these; the backend must drop all state for sequence numbers greater than
/// the survivor. Squashed instructions get no retire call and may never see
/// a (re-)execute call.
///
/// Sampled mode adds one more pattern: between detail windows (after a
/// [`flush`](MemBackend::flush)) the functional warm engine commits each
/// memory instruction itself and reports it through
/// [`warm`](MemBackend::warm) alone — no dispatch, execute or retire.
///
/// Sub-word accesses carry their byte mask inside [`MemAccess`]; backends
/// must forward and disambiguate at byte granularity (a 1-byte store
/// overlapping an 8-byte load is a forwarding source for exactly that byte).
///
/// # No cross-core state
///
/// A backend instance serves exactly one core. All of its disambiguation
/// state (SFC lines, MDT timestamps, queue entries, FIFO slots, PC
/// predictions) is keyed by the owning core's in-flight accesses and
/// sequence numbers only; committed memory is consulted exclusively through
/// the `&MainMemory` handed to the `*_execute` calls. In a multi-core
/// machine, memory a sibling core commits to may change *values* a load
/// reads, but must never change the backend's ordering behaviour:
/// violations, replays and stats depend only on this core's access stream.
/// The conformance harness enforces this with
/// [`conformance::run_script_with_interference`] — an adversarial sibling
/// mutating shared memory (at addresses aliasing the same table sets) must
/// leave every run observable except the final memory image bit-identical.
pub trait MemBackend {
    /// Whether a memory instruction of `kind` can be accepted this cycle.
    /// An `Err` stalls dispatch (in order: nothing younger dispatches
    /// either).
    fn can_dispatch(&self, kind: MemKind) -> Result<(), DispatchStall>;

    /// Accepts a memory instruction into the backend, in program order.
    /// `store_addr_hint` is only provided for stores, and only when
    /// [`wants_dispatch_hint`](MemBackend::wants_dispatch_hint) is true
    /// (the oracle's advance address knowledge); `None` means the address
    /// is unknowable (wrong-path instruction).
    fn dispatch(&mut self, kind: MemKind, seq: SeqNum, pc: u64, store_addr_hint: Option<MemAccess>);

    /// A load executes: disambiguate and obtain a value (forwarded from an
    /// in-flight store, read from `mem`, or merged byte-wise).
    fn load_execute(&mut self, req: &LoadRequest, mem: &MainMemory) -> LoadOutcome;

    /// A store executes: record its address and data, and report any
    /// ordering violations its (late) execution exposed.
    fn store_execute(&mut self, req: &StoreRequest, mem: &MainMemory) -> StoreOutcome;

    /// A load retires (in program order).
    fn retire_load(&mut self, seq: SeqNum, access: MemAccess);

    /// A store retires (in program order). The pipeline has already
    /// committed its bytes to memory.
    fn retire_store(&mut self, seq: SeqNum, access: MemAccess);

    /// A pipeline flush squashes every instruction with `seq > survivor`.
    /// `youngest` is the youngest sequence number ever dispatched;
    /// `surviving_executed_store` lazily reports whether any *surviving*
    /// store has executed but not retired (the §2.3 partial-vs-full SFC
    /// flush distinction) — backends that don't need it never pay for the
    /// scan.
    fn squash_after(
        &mut self,
        survivor: SeqNum,
        youngest: SeqNum,
        surviving_executed_store: &dyn Fn() -> bool,
    );

    /// Drops *all* in-flight state (a full pipeline flush).
    fn flush(&mut self);

    /// Writes this backend's counters into `out` (called once, at the end
    /// of simulation).
    fn stats_into(&self, out: &mut BackendStats);

    /// Cumulative count of entry frees/reclaims — the event stream that
    /// clears §2.4.3 stall bits. Backends without stall-bit semantics
    /// return 0.
    fn free_event_count(&self) -> u64 {
        0
    }

    /// Whether replayed instructions should sleep until
    /// [`free_event_count`](MemBackend::free_event_count) advances
    /// (§2.4.3). Must be false for backends whose replays are not caused by
    /// structural conflicts, or replayed loads would sleep forever.
    fn uses_stall_bits(&self) -> bool {
        false
    }

    /// Extra flush penalty on ordering violations this backend detects
    /// (the MDT tag-check cycle of §3).
    fn violation_extra_penalty(&self) -> u64 {
        0
    }

    /// Whether the §4 MDT search filter applies to this backend's loads.
    fn supports_load_filter(&self) -> bool {
        false
    }

    /// Whether the §2.2 head-of-ROB bypass applies: a replayed instruction
    /// at the head may skip the backend (loads read committed memory
    /// directly; stores set [`StoreRequest::bypass`]).
    fn supports_head_bypass(&self) -> bool {
        false
    }

    /// Whether [`dispatch`](MemBackend::dispatch) should receive advance
    /// store addresses (oracle only).
    fn wants_dispatch_hint(&self) -> bool {
        false
    }

    /// §2.4.2 corrupt-marking recovery: poison the forwarding entry for
    /// `access` instead of flushing. No-op for backends without a
    /// forwarding cache.
    fn mark_corrupt(&mut self, _access: MemAccess) {}

    /// Sampled mode's functional warm engine retired the memory instruction
    /// at `pc` in program order, without dispatching it (a store's bytes
    /// are already committed). Warm stretches drain before every detail
    /// window, so in-flight structures (SFC, MDT, queues, filters) have
    /// nothing to learn from them; only state that outlives a window — a
    /// PC-indexed prediction table — should train here. Bumps no counters:
    /// backend statistics describe the detailed windows. No-op by default.
    fn warm(&mut self, _kind: MemKind, _pc: u64, _access: MemAccess) {}
}

/// Resolves the value `access` would read given a program-ordered iterator
/// of *executed* older stores (each `(access, value)`), falling back to
/// committed memory — the byte-wise age-prioritized merge every forwarding
/// backend performs. `stores` must yield oldest-first; the youngest
/// overlapping store wins each byte. Returns the value and how many bytes
/// were forwarded.
pub fn resolve_bytes(
    access: MemAccess,
    stores: impl Iterator<Item = (MemAccess, u64)> + Clone,
    mem: &MainMemory,
) -> (u64, u32) {
    let word = access.word_addr();
    let mut value = mem.read(access);
    let mut forwarded = 0u32;
    for (k, byte_idx) in access.mask().iter_bytes().enumerate() {
        let byte_addr = word.0 + byte_idx as u64;
        let mut byte: Option<u8> = None;
        // Oldest-first iteration with "last writer wins" == youngest wins.
        for (sacc, svalue) in stores.clone() {
            if sacc.word_addr() == word && sacc.mask().contains_byte(byte_idx) {
                let off = byte_addr - sacc.addr().0;
                byte = Some((svalue >> (8 * off)) as u8);
            }
        }
        if let Some(b) = byte {
            forwarded += 1;
            value = aim_types::overlay_byte(value, k, b);
        }
    }
    (value, forwarded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_types::{AccessSize, Addr};

    #[test]
    fn backend_names() {
        assert_eq!(
            BackendConfig::Lsq(LsqConfig::baseline_48x32()).name(),
            "lsq48x32"
        );
        assert_eq!(
            BackendConfig::FilteredLsq {
                lsq: LsqConfig::baseline_48x32(),
                filter: FilterConfig::baseline(),
            }
            .name(),
            "flsq48x32/filt256x2"
        );
        let b = BackendConfig::SfcMdt {
            sfc: SfcConfig::baseline(),
            mdt: MdtConfig::baseline(),
        };
        assert_eq!(b.name(), "sfc128x2/mdt4096x2");
        let p = BackendConfig::Pcax {
            sfc: SfcConfig::baseline(),
            mdt: MdtConfig::baseline(),
            pcax: PcaxConfig::baseline(),
        };
        assert_eq!(p.name(), "pcax1024x2/sfc128x2/mdt4096x2");
        assert_eq!(BackendConfig::Oracle.name(), "oracle");
        assert_eq!(BackendConfig::NoSpec.name(), "nospec");
    }

    #[test]
    fn build_constructs_every_family() {
        for config in [
            BackendConfig::Lsq(LsqConfig::baseline_48x32()),
            BackendConfig::FilteredLsq {
                lsq: LsqConfig::baseline_48x32(),
                filter: FilterConfig::baseline(),
            },
            BackendConfig::SfcMdt {
                sfc: SfcConfig::baseline(),
                mdt: MdtConfig::baseline(),
            },
            BackendConfig::Pcax {
                sfc: SfcConfig::baseline(),
                mdt: MdtConfig::baseline(),
                pcax: PcaxConfig::baseline(),
            },
            BackendConfig::Oracle,
            BackendConfig::NoSpec,
        ] {
            let backend = build(&BackendParams::new(config));
            let mut stats = BackendStats::default();
            backend.stats_into(&mut stats);
            assert_ne!(stats, BackendStats::None, "{}", config.name());
        }
    }

    #[test]
    fn stats_accessors_are_family_exclusive() {
        let s = BackendStats::Lsq(LsqStats::default());
        assert!(s.lsq().is_some());
        assert!(s.aim().is_none() && s.sfc().is_none() && s.mdt().is_none());
        assert!(s.oracle().is_none() && s.nospec().is_none());
        assert!(s.filtered().is_none() && s.pcax().is_none());
        assert_eq!(s.family(), "lsq");
        let f = BackendStats::Filtered(FilteredStats::default());
        assert!(f.filtered().is_some() && f.lsq().is_none());
        assert_eq!(f.family(), "filtered");
        // sfc()/mdt() cover both SFC-carrying families; aim() stays
        // exclusive to the plain AIM backend.
        let p = BackendStats::Pcax(PcaxStats::default());
        assert!(p.pcax().is_some() && p.aim().is_none());
        assert!(p.sfc().is_some() && p.mdt().is_some());
        assert_eq!(p.family(), "pcax");
        let a = BackendStats::Aim(AimStats::default());
        assert!(a.sfc().is_some() && a.mdt().is_some() && a.pcax().is_none());
        assert_eq!(BackendStats::default().family(), "none");
    }

    #[test]
    fn resolve_bytes_youngest_store_wins_and_merges_memory() {
        let mut mem = MainMemory::new();
        let double = MemAccess::new(Addr(0x100), AccessSize::Double).unwrap();
        mem.write(double, 0x8877_6655_4433_2211);
        let word = MemAccess::new(Addr(0x100), AccessSize::Word).unwrap();
        let stores = [(word, 0x1111_1111u64), (word, 0xEEEE_FFFFu64)];
        let (value, forwarded) = resolve_bytes(double, stores.iter().copied(), &mem);
        assert_eq!(value, 0x8877_6655_EEEE_FFFF);
        assert_eq!(forwarded, 4);
    }
}
