//! Simulator configuration: the paper's Figure 4 in code.

use std::fmt;

use aim_backend::{
    BackendParams, FilterConfig, LsqConfig, MdtConfig, PartialMatchPolicy, PcaxConfig, SfcConfig,
};
use aim_mem::{HierarchyConfig, MemSpec};
use aim_predictor::{EnforceMode, PredictorConfig};
use aim_types::SampleSpec;

pub use aim_backend::{BackendChoice, BackendConfig};

/// Recovery policy for output dependence violations (paper §2.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputDepRecovery {
    /// Conservatively flush all instructions subsequent to the completing
    /// (earlier) store.
    #[default]
    Flush,
    /// "The memory subsystem could simply mark the corresponding SFC entry as
    /// corrupt, and optionally alert the memory dependence predictor" — no
    /// pipeline flush.
    MarkCorrupt,
}

/// Full machine configuration. [`SimConfig::baseline`] and
/// [`SimConfig::aggressive`] reproduce the two columns of Figure 4;
/// [`SimConfig::machine`] starts a [`MachineBuilder`] that picks the
/// class-appropriate geometry for any [`BackendChoice`].
#[derive(Clone)]
pub struct SimConfig {
    /// Instructions fetched, dispatched and retired per cycle.
    pub width: usize,
    /// Maximum branches fetched per cycle (1 baseline, 8 aggressive).
    pub max_branches_per_cycle: usize,
    /// Issue bandwidth (identical fully pipelined function units).
    pub issue_width: usize,
    /// Reorder-buffer entries (= scheduling window; Figure 4 sizes them
    /// identically).
    pub rob_entries: usize,
    /// Physical registers (must exceed `rob_entries + 32`).
    pub phys_regs: usize,
    /// Branch misprediction penalty in cycles (Figure 4: 8).
    pub mispredict_penalty: u64,
    /// Extra penalty on MDT-detected violations, modeling the MDT tag check
    /// ("we increase the penalty for memory ordering violations by one cycle
    /// with the MDT", §3).
    pub mdt_violation_extra_penalty: u64,
    /// Extra store latency modeling the SFC tag check ("we increase the
    /// latency of store instructions by one cycle for all experiments with
    /// the SFC", §3).
    pub sfc_store_extra_latency: u64,
    /// Single-cycle integer-op latency.
    pub alu_latency: u64,
    /// Multiplier latency.
    pub mul_latency: u64,
    /// Address-generation latency for loads and stores.
    pub agu_latency: u64,
    /// Memory-system spec: cache geometry, the latency ladder, and the
    /// optional far-memory tier (the canonical [`MemSpec`]; the field keeps
    /// its pre-`MemSpec` name, which the content-addressed cache key's
    /// canonical `Debug` text depends on).
    pub hierarchy: HierarchyConfig,
    /// Which memory-ordering backend the machine instantiates (see
    /// [`aim_backend::build`]).
    pub backend: BackendConfig,
    /// Producer-set predictor geometry and enforcement mode.
    pub dep_predictor: PredictorConfig,
    /// Gshare size (2-bit counters; Figure 4: 4096 = 8 Kbit).
    pub gshare_counters: usize,
    /// Gshare global-history bits.
    pub gshare_history_bits: u32,
    /// Fraction of correct-path mispredicts repaired by the oracle
    /// (Figure 4: 0.8).
    pub oracle_fix_probability: f64,
    /// RNG seed for the oracle (deterministic runs).
    pub seed: u64,
    /// Partial-match handling in the SFC.
    pub partial_match_policy: PartialMatchPolicy,
    /// Output-dependence recovery policy.
    pub output_dep_recovery: OutputDepRecovery,
    /// Whether replayed instructions sleep until an SFC/MDT entry is freed
    /// (the stall-bit heuristic of §2.4.3). Only applies to backends that
    /// emit free events (see
    /// [`MemBackend::uses_stall_bits`](aim_backend::MemBackend::uses_stall_bits)).
    pub stall_bits: bool,
    /// Store FIFO capacity for the SFC/MDT backend (0 = unbounded; the paper
    /// does not size its FIFO, and the reorder buffer bounds it anyway).
    pub store_fifo_entries: usize,
    /// §4 extension: filter MDT accesses for loads that provably cannot
    /// conflict. "Search filtering has been proposed as a technique for
    /// decreasing the LSQ's dynamic power consumption ... search filtering
    /// could dramatically decrease the pressure on the MDT, thereby offering
    /// higher performance from a much smaller MDT." A load skips the MDT
    /// entirely when (a) no in-flight store is still unexecuted — so no
    /// later-executing older store could need the load's record — and (b) a
    /// counting filter over executed-unretired store granules shows no
    /// possible alias — so no anti-dependence check is needed. Off by
    /// default (the paper's evaluated design has no filter).
    pub mdt_filter: bool,
    /// Run the wakeup-list and store-census integrity checks even in
    /// release builds (they always run under `debug_assertions`). Wired to
    /// the `--paranoid` CLI flag; off by default because the censuses are
    /// O(window) per cycle.
    pub paranoid: bool,
    /// Validate every retirement against the golden interpreter trace
    /// (value, address, and path checks). On by default — this is the
    /// simulator's core correctness oracle. Multi-core litmus runs turn it
    /// off: sibling cores legitimately change the values loads observe, so
    /// an isolated per-core trace cannot predict them.
    pub validate_retirement: bool,
    /// Stop after this many retired instructions (0 = trace length).
    pub max_instrs: u64,
    /// Sampled fast-forward execution: when set, the machine alternates
    /// functional warm-up stretches with detailed cycle-accurate windows
    /// under this policy and extrapolates whole-run timing statistics from
    /// the detailed windows (see [`crate::sample`]). `None` (the default)
    /// simulates every instruction cycle-accurately.
    pub sample: Option<SampleSpec>,
}

/// **Compatibility contract** (the content-addressed serve cache keys the
/// canonical `Debug` text of the config): a config without a sampling
/// policy renders byte-identically to the pre-sampling derived output — the
/// `sample` field is printed only when populated, in which case the run
/// measures different (extrapolated) statistics and a new cache key is
/// correct. Mirrors the [`MemSpec`] `far` and `SimStats` treatment.
impl fmt::Debug for SimConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("SimConfig");
        d.field("width", &self.width)
            .field("max_branches_per_cycle", &self.max_branches_per_cycle)
            .field("issue_width", &self.issue_width)
            .field("rob_entries", &self.rob_entries)
            .field("phys_regs", &self.phys_regs)
            .field("mispredict_penalty", &self.mispredict_penalty)
            .field(
                "mdt_violation_extra_penalty",
                &self.mdt_violation_extra_penalty,
            )
            .field("sfc_store_extra_latency", &self.sfc_store_extra_latency)
            .field("alu_latency", &self.alu_latency)
            .field("mul_latency", &self.mul_latency)
            .field("agu_latency", &self.agu_latency)
            .field("hierarchy", &self.hierarchy)
            .field("backend", &self.backend)
            .field("dep_predictor", &self.dep_predictor)
            .field("gshare_counters", &self.gshare_counters)
            .field("gshare_history_bits", &self.gshare_history_bits)
            .field("oracle_fix_probability", &self.oracle_fix_probability)
            .field("seed", &self.seed)
            .field("partial_match_policy", &self.partial_match_policy)
            .field("output_dep_recovery", &self.output_dep_recovery)
            .field("stall_bits", &self.stall_bits)
            .field("store_fifo_entries", &self.store_fifo_entries)
            .field("mdt_filter", &self.mdt_filter)
            .field("paranoid", &self.paranoid)
            .field("validate_retirement", &self.validate_retirement)
            .field("max_instrs", &self.max_instrs);
        if self.sample.is_some() {
            d.field("sample", &self.sample);
        }
        d.finish()
    }
}

impl SimConfig {
    /// The paper's baseline 4-wide superscalar (Figure 4, left column).
    pub fn baseline(backend: BackendConfig) -> SimConfig {
        SimConfig {
            width: 4,
            max_branches_per_cycle: 1,
            issue_width: 4,
            rob_entries: 128,
            phys_regs: 128 + 64,
            mispredict_penalty: 8,
            mdt_violation_extra_penalty: 1,
            sfc_store_extra_latency: 1,
            alu_latency: 1,
            mul_latency: 3,
            agu_latency: 1,
            hierarchy: HierarchyConfig::default(),
            backend,
            dep_predictor: PredictorConfig::figure4(EnforceMode::All),
            gshare_counters: 4096,
            gshare_history_bits: 12,
            oracle_fix_probability: 0.8,
            seed: 0xA1A1,
            partial_match_policy: PartialMatchPolicy::Combine,
            output_dep_recovery: OutputDepRecovery::Flush,
            stall_bits: true,
            store_fifo_entries: 0,
            mdt_filter: false,
            paranoid: false,
            validate_retirement: true,
            max_instrs: 0,
            sample: None,
        }
    }

    /// The paper's aggressive 8-wide superscalar (Figure 4, right column).
    pub fn aggressive(backend: BackendConfig) -> SimConfig {
        SimConfig {
            width: 8,
            max_branches_per_cycle: 8,
            issue_width: 8,
            rob_entries: 1024,
            phys_regs: 1024 + 64,
            // The aggressive ENF configuration enforces a total order within
            // each producer set (§3.2).
            dep_predictor: PredictorConfig::figure4(EnforceMode::TotalOrder),
            ..SimConfig::baseline(backend)
        }
    }

    /// The kilo-entry-window machine: the aggressive 8-wide core scaled to
    /// a 4096-entry reorder buffer, the regime where thousands of loads can
    /// be simultaneously outstanding against a far-memory tier and
    /// associative LSQ search throttles (ROADMAP "scale the window to the
    /// extreme"; arXiv 2404.11044's operating point).
    pub fn huge(backend: BackendConfig) -> SimConfig {
        SimConfig {
            rob_entries: 4096,
            phys_regs: 4096 + 64,
            // §2.4.2's cheap output-dependence recovery: at a 4096-entry
            // window a conservative flush discards thousands of
            // instructions per same-address store reordering, so the huge
            // class takes the paper's stated alternative — "the memory
            // subsystem could simply mark the corresponding SFC entry as
            // corrupt" — instead of squashing.
            output_dep_recovery: OutputDepRecovery::MarkCorrupt,
            ..SimConfig::aggressive(backend)
        }
    }

    /// The backend-construction parameters this machine configuration
    /// implies (the input to [`aim_backend::build`]).
    pub fn backend_params(&self) -> BackendParams {
        BackendParams {
            config: self.backend,
            store_fifo_entries: self.store_fifo_entries,
            partial_match_policy: self.partial_match_policy,
            sfc_store_extra_latency: self.sfc_store_extra_latency,
            mdt_violation_extra_penalty: self.mdt_violation_extra_penalty,
        }
    }

    /// Starts a [`MachineBuilder`] for the given Figure 4 machine class:
    ///
    /// ```
    /// use aim_pipeline::{BackendChoice, MachineClass, SimConfig};
    ///
    /// let cfg = SimConfig::machine(MachineClass::Baseline)
    ///     .backend(BackendChoice::SfcMdt)
    ///     .build();
    /// assert_eq!(cfg.width, 4);
    /// ```
    pub fn machine(class: MachineClass) -> MachineBuilder {
        MachineBuilder {
            class,
            backend: BackendChoice::default(),
            mode: None,
            lsq: None,
            filter: None,
            pcax: None,
            mem: None,
            sample: None,
        }
    }
}

/// Which machine column a configuration starts from: the paper's two
/// Figure 4 classes, plus the kilo-entry-window extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineClass {
    /// The 4-wide, 128-entry-ROB machine (Figure 4, left column).
    Baseline,
    /// The 8-wide, 1024-entry-ROB machine (Figure 4, right column).
    Aggressive,
    /// The 8-wide, 4096-entry-ROB kilo-entry-window machine
    /// ([`SimConfig::huge`]), defaulting to the wide 256×256 LSQ.
    Huge,
}

aim_types::keyword_tokens!(MachineClass, "machine", {
    Baseline => "baseline",
    Aggressive => "aggressive",
    Huge => "huge",
});

/// Builds a [`SimConfig`] from a machine class and a [`BackendChoice`],
/// filling in the class-appropriate structure geometries (Figure 5's
/// baseline SFC/MDT vs Figure 6's aggressive ones, the 48×32 LSQ) and the
/// backend-appropriate predictor enforcement mode.
///
/// Defaults every knob sensibly; override only what an experiment varies:
/// [`backend`](MachineBuilder::backend) picks the family,
/// [`mode`](MachineBuilder::mode) the enforcement mode,
/// [`lsq`](MachineBuilder::lsq) / [`filter`](MachineBuilder::filter) /
/// [`pcax`](MachineBuilder::pcax) the structure geometries.
#[derive(Debug, Clone)]
pub struct MachineBuilder {
    class: MachineClass,
    backend: BackendChoice,
    mode: Option<EnforceMode>,
    lsq: Option<LsqConfig>,
    filter: Option<FilterConfig>,
    pcax: Option<PcaxConfig>,
    mem: Option<MemSpec>,
    sample: Option<SampleSpec>,
}

impl MachineBuilder {
    /// Selects the backend family (default: [`BackendChoice::SfcMdt`]).
    pub fn backend(mut self, backend: BackendChoice) -> MachineBuilder {
        self.backend = backend;
        self
    }

    /// Overrides the producer-set enforcement mode. Default: the SFC/MDT
    /// and PCAX backends use the paper's evaluated modes
    /// ([`EnforceMode::All`] baseline, [`EnforceMode::TotalOrder`]
    /// aggressive, §3.2) — PCAX's memory unit *is* the SFC/MDT, which
    /// suffers the §3.1 anti/output flush storms without enforcement;
    /// every other backend uses [`EnforceMode::TrueOnly`] — for the bounds
    /// backends the predictor would only add spurious serialization, and
    /// the LSQ / filtered backends order true dependences themselves.
    pub fn mode(mut self, mode: EnforceMode) -> MachineBuilder {
        self.mode = Some(mode);
        self
    }

    /// Overrides the LSQ capacities (LSQ and filtered-LSQ backends;
    /// default: the Figure 5 48×32 queue).
    pub fn lsq(mut self, lsq: LsqConfig) -> MachineBuilder {
        self.lsq = Some(lsq);
        self
    }

    /// Overrides the store-presence filter geometry (filtered-LSQ backend).
    pub fn filter(mut self, filter: FilterConfig) -> MachineBuilder {
        self.filter = Some(filter);
        self
    }

    /// Overrides the PCAX classification-table geometry (PCAX backend).
    pub fn pcax(mut self, pcax: PcaxConfig) -> MachineBuilder {
        self.pcax = Some(pcax);
        self
    }

    /// Overrides the memory-system spec (default: [`MemSpec::figure4`], the
    /// paper's hierarchy with no far tier).
    pub fn mem(mut self, mem: MemSpec) -> MachineBuilder {
        self.mem = Some(mem);
        self
    }

    /// Enables sampled fast-forward execution under `spec` (default: off —
    /// every instruction simulates cycle-accurately).
    pub fn sample(mut self, spec: SampleSpec) -> MachineBuilder {
        self.sample = Some(spec);
        self
    }

    /// Produces the [`SimConfig`].
    pub fn build(self) -> SimConfig {
        let aggressive = self.class != MachineClass::Baseline;
        // Figure 5's baseline geometries vs Figure 6's aggressive ones. The
        // huge class grows both address-indexed tables with the window (a
        // 4096-entry window keeps thousands of stores and word addresses in
        // flight, thrashing the Figure 4 geometries with set-conflict
        // replays) — cheap, because they are RAM-indexed. The LSQ CAM, by
        // contrast, stays capped at 256×256 — that asymmetry is the paper's
        // scaling claim.
        let (sfc, mdt) = match self.class {
            MachineClass::Baseline => (SfcConfig::baseline(), MdtConfig::baseline()),
            MachineClass::Aggressive => (SfcConfig::aggressive(), MdtConfig::aggressive()),
            MachineClass::Huge => (SfcConfig::huge(), MdtConfig::huge()),
        };
        let lsq = self.lsq.unwrap_or(if self.class == MachineClass::Huge {
            LsqConfig::aggressive_256x256()
        } else {
            LsqConfig::baseline_48x32()
        });
        let backend = match self.backend {
            BackendChoice::NoSpec => BackendConfig::NoSpec,
            BackendChoice::Lsq => BackendConfig::Lsq(lsq),
            BackendChoice::Filtered => BackendConfig::FilteredLsq {
                lsq,
                filter: self.filter.unwrap_or(FilterConfig::baseline()),
            },
            BackendChoice::SfcMdt => BackendConfig::SfcMdt { sfc, mdt },
            BackendChoice::Pcax => BackendConfig::Pcax {
                sfc,
                mdt,
                pcax: self.pcax.unwrap_or(PcaxConfig::baseline()),
            },
            BackendChoice::Oracle => BackendConfig::Oracle,
        };
        let mode = self.mode.unwrap_or(match self.backend {
            BackendChoice::SfcMdt | BackendChoice::Pcax if aggressive => EnforceMode::TotalOrder,
            BackendChoice::SfcMdt | BackendChoice::Pcax => EnforceMode::All,
            _ => EnforceMode::TrueOnly,
        });
        let mut cfg = match self.class {
            MachineClass::Baseline => SimConfig::baseline(backend),
            MachineClass::Aggressive => SimConfig::aggressive(backend),
            MachineClass::Huge => SimConfig::huge(backend),
        };
        cfg.dep_predictor = PredictorConfig::figure4(mode);
        if let Some(mem) = self.mem {
            cfg.hierarchy = mem;
        }
        cfg.sample = self.sample;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_matches_figure4() {
        let c = SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::Lsq)
            .build();
        assert_eq!(c.width, 4);
        assert_eq!(c.max_branches_per_cycle, 1);
        assert_eq!(c.rob_entries, 128);
        assert_eq!(c.mispredict_penalty, 8);
        assert_eq!(c.gshare_counters * 2, 8192); // 8 Kbit
        assert_eq!(c.oracle_fix_probability, 0.8);
        match c.backend {
            BackendConfig::Lsq(l) => {
                assert_eq!(l.load_entries, 48);
                assert_eq!(l.store_entries, 32);
            }
            _ => panic!("expected LSQ backend"),
        }
    }

    #[test]
    fn aggressive_matches_figure4() {
        let c = SimConfig::machine(MachineClass::Aggressive).build();
        assert_eq!(c.width, 8);
        assert_eq!(c.max_branches_per_cycle, 8);
        assert_eq!(c.rob_entries, 1024);
        match c.backend {
            BackendConfig::SfcMdt { sfc, mdt } => {
                assert_eq!(sfc.sets, 512); // 1K entries, 2-way
                assert_eq!(sfc.ways, 2);
                assert_eq!(mdt.sets, 8192); // 16K entries, 2-way
                assert_eq!(mdt.ways, 2);
            }
            _ => panic!("expected SFC/MDT backend"),
        }
        // §3.2: the aggressive ENF default is a total order per producer set.
        assert_eq!(c.dep_predictor.mode, EnforceMode::TotalOrder);
    }

    #[test]
    fn huge_scales_the_window_and_widens_the_lsq() {
        let c = SimConfig::machine(MachineClass::Huge).build();
        assert_eq!(c.width, 8);
        assert_eq!(c.rob_entries, 4096);
        assert_eq!(c.phys_regs, 4096 + 64);
        // §3.2's aggressive ENF default carries over to the huge class.
        assert_eq!(c.dep_predictor.mode, EnforceMode::TotalOrder);
        // The address-indexed tables grow with the window (RAM-indexed, so
        // capacity is cheap — unlike the LSQ CAM below, which stays capped).
        match c.backend {
            BackendConfig::SfcMdt { sfc, mdt } => {
                assert_eq!((sfc.sets, sfc.ways), (2048, 4));
                assert_eq!((mdt.sets, mdt.ways), (32768, 4));
            }
            _ => panic!("expected SFC/MDT backend"),
        }
        let lsq = SimConfig::machine(MachineClass::Huge)
            .backend(BackendChoice::Lsq)
            .build();
        match lsq.backend {
            BackendConfig::Lsq(l) => {
                assert_eq!((l.load_entries, l.store_entries), (256, 256));
            }
            _ => panic!("expected LSQ backend"),
        }
    }

    #[test]
    fn mem_knob_threads_the_spec_into_the_config() {
        use aim_mem::FarSpec;
        let spec = MemSpec::figure4().with_far(FarSpec::new(400, 64, 8));
        let c = SimConfig::machine(MachineClass::Huge).mem(spec).build();
        assert_eq!(c.hierarchy, spec);
        assert_eq!(c.hierarchy.far, Some(FarSpec::new(400, 64, 8)));
        // Default-filled specs are the default hierarchy (the cache-key
        // compatibility contract rides on this).
        let default_filled = SimConfig::machine(MachineClass::Baseline)
            .mem(MemSpec::figure4())
            .build();
        let implicit = SimConfig::machine(MachineClass::Baseline).build();
        assert_eq!(default_filled.hierarchy, implicit.hierarchy);
    }

    #[test]
    fn sample_knob_threads_and_debug_stays_compatible() {
        // Compatibility contract: with sampling off (the default), the
        // canonical Debug text must not mention the field at all — every
        // committed cache fingerprint rides on this.
        let off = SimConfig::machine(MachineClass::Baseline).build();
        assert_eq!(off.sample, None);
        let off_text = format!("{off:?}");
        assert!(!off_text.contains("sample"), "{off_text}");
        assert!(off_text.ends_with("max_instrs: 0 }"), "{off_text}");

        let spec = SampleSpec::new(2_000, 500, 10).unwrap();
        let on = SimConfig::machine(MachineClass::Baseline)
            .sample(spec)
            .build();
        assert_eq!(on.sample, Some(spec));
        let on_text = format!("{on:?}");
        assert!(
            on_text.contains(
                "max_instrs: 0, sample: Some(SampleSpec { warm_insts: 2000, \
                 detail_insts: 500, periods: 10 }) }"
            ),
            "{on_text}"
        );
    }

    #[test]
    fn backend_params_mirror_machine_knobs() {
        let mut c = SimConfig::machine(MachineClass::Baseline)
            .mode(EnforceMode::All)
            .build();
        c.store_fifo_entries = 8;
        c.sfc_store_extra_latency = 2;
        let p = c.backend_params();
        assert_eq!(p.config, c.backend);
        assert_eq!(p.store_fifo_entries, 8);
        assert_eq!(p.sfc_store_extra_latency, 2);
        assert_eq!(p.mdt_violation_extra_penalty, 1);
    }

    #[test]
    fn builder_covers_every_backend_choice() {
        for class in [MachineClass::Baseline, MachineClass::Aggressive] {
            for choice in BackendChoice::ALL {
                let c = SimConfig::machine(class).backend(choice).build();
                let expected = match choice {
                    BackendChoice::NoSpec => "nospec",
                    BackendChoice::Lsq => "lsq",
                    BackendChoice::Filtered => "flsq",
                    BackendChoice::SfcMdt => "sfc",
                    BackendChoice::Pcax => "pcax",
                    BackendChoice::Oracle => "oracle",
                };
                assert!(
                    c.backend.name().starts_with(expected),
                    "{choice}: {}",
                    c.backend.name()
                );
            }
        }
    }

    #[test]
    fn mode_defaults_follow_backend_and_class() {
        let base = SimConfig::machine(MachineClass::Baseline).build();
        assert_eq!(base.dep_predictor.mode, EnforceMode::All);
        let agg = SimConfig::machine(MachineClass::Aggressive).build();
        assert_eq!(agg.dep_predictor.mode, EnforceMode::TotalOrder);
        // PCAX wraps the SFC/MDT, so it inherits the same evaluated modes.
        let pcax = SimConfig::machine(MachineClass::Baseline)
            .backend(BackendChoice::Pcax)
            .build();
        assert_eq!(pcax.dep_predictor.mode, EnforceMode::All);
        let pcax_agg = SimConfig::machine(MachineClass::Aggressive)
            .backend(BackendChoice::Pcax)
            .build();
        assert_eq!(pcax_agg.dep_predictor.mode, EnforceMode::TotalOrder);
        for choice in [
            BackendChoice::NoSpec,
            BackendChoice::Lsq,
            BackendChoice::Filtered,
            BackendChoice::Oracle,
        ] {
            let c = SimConfig::machine(MachineClass::Baseline)
                .backend(choice)
                .build();
            assert_eq!(c.dep_predictor.mode, EnforceMode::TrueOnly, "{choice}");
        }
        let forced = SimConfig::machine(MachineClass::Aggressive)
            .mode(EnforceMode::All)
            .build();
        assert_eq!(forced.dep_predictor.mode, EnforceMode::All);
    }

    #[test]
    fn pcax_gets_class_appropriate_sfc_mdt() {
        let c = SimConfig::machine(MachineClass::Aggressive)
            .backend(BackendChoice::Pcax)
            .build();
        match c.backend {
            BackendConfig::Pcax { sfc, mdt, pcax } => {
                assert_eq!(sfc.sets, 512);
                assert_eq!(mdt.sets, 8192);
                assert_eq!(pcax.table.sets, 1024);
            }
            _ => panic!("expected PCAX backend"),
        }
    }
}
