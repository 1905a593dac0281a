//! Named (workload × config) sweep specifications for every matrix
//! artifact.
//!
//! Each [`Artifact`](crate::artifact::Artifact) names one of these specs;
//! they are the one source of truth for *what* each artifact simulates,
//! shared by the driver, the determinism tests and the repository
//! benchmark. The artifacts' reduce steps own the presentation (tables,
//! normalization, CSV).
//!
//! The cells other programs submit by name — [`hostperf_configs`] and
//! [`farmem_configs`], which the job server's replay gate, `table_far_mem`
//! and the repository benchmark route through the server — are defined as
//! [`ConfigSpec`] lists, the spelling the CLI and the wire use, and their
//! artifact specs build them. The other artifacts mutate a built
//! [`SimConfig`] in ways no config token names.

use crate::{GeometryGrid, Prepared};
use aim_core::{CorruptionPolicy, MdtConfig, MdtTagging, SetHash, TrueDepRecovery};
use aim_lsq::LsqConfig;
use aim_pipeline::{
    BackendChoice, BackendConfig, ConfigSpec, FarSpec, FilterConfig, MachineClass,
    OutputDepRecovery, PcaxConfig, SimConfig,
};
use aim_predictor::EnforceMode;
use aim_workloads::Scale;
use BackendChoice::{Filtered, Lsq, NoSpec, Oracle, Pcax, SfcMdt};
use MachineClass::{Aggressive, Baseline};

/// The benchmarks excluded from the paper's Figure 6 set (and every study
/// that inherits it).
pub const FIG6_EXCLUDED: &[&str] = &["mesa"];

/// One artifact's sweep: its named configurations and the workloads it
/// excludes.
pub struct ArtifactSpec {
    /// The name its reports carry in their `artifact` field.
    pub artifact: &'static str,
    /// Named configurations, in presentation order.
    pub configs: Vec<(String, SimConfig)>,
    /// Workload names this artifact skips.
    pub skip: &'static [&'static str],
}

impl ArtifactSpec {
    /// Prepares this artifact's workload set at `scale` (the full registry
    /// minus [`ArtifactSpec::skip`]).
    ///
    /// # Panics
    ///
    /// Panics if a kernel faults architecturally, as
    /// [`prepare_all`](crate::prepare_all) does.
    pub fn workloads(&self, scale: Scale) -> Vec<Prepared> {
        crate::prepare_all(scale)
            .into_iter()
            .filter(|p| !self.skip.contains(&p.name))
            .collect()
    }

    /// The position of a named config.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of this spec's configs.
    pub fn index(&self, name: &str) -> usize {
        self.configs
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{}: no config named `{name}`", self.artifact))
    }
}

fn spec(
    artifact: &'static str,
    skip: &'static [&'static str],
    configs: Vec<(String, SimConfig)>,
) -> ArtifactSpec {
    ArtifactSpec {
        artifact,
        configs,
        skip,
    }
}

fn named(name: &str, cfg: SimConfig) -> (String, SimConfig) {
    (name.to_string(), cfg)
}

/// A `class` machine running `backend` at the class defaults.
fn cell(class: MachineClass, backend: BackendChoice) -> SimConfig {
    SimConfig::machine(class).backend(backend).build()
}

/// A `class` machine's LSQ at an explicit capacity.
fn lsq(class: MachineClass, lsq: LsqConfig) -> SimConfig {
    SimConfig::machine(class)
        .backend(BackendChoice::Lsq)
        .lsq(lsq)
        .build()
}

/// A `class` machine's SFC/MDT under the predictor's `mode`.
fn sfc_mdt(class: MachineClass, mode: EnforceMode) -> SimConfig {
    SimConfig::machine(class).mode(mode).build()
}

/// The paper's ENF SFC/MDT of each class: every predicted dependence on
/// the baseline, a total order within each producer set on the
/// aggressive machine.
fn enf(class: MachineClass) -> SimConfig {
    match class {
        Baseline => sfc_mdt(Baseline, EnforceMode::All),
        _ => sfc_mdt(class, EnforceMode::TotalOrder),
    }
}

fn with_sfc_mdt(
    mut cfg: SimConfig,
    f: impl FnOnce(&mut aim_core::SfcConfig, &mut MdtConfig),
) -> SimConfig {
    match &mut cfg.backend {
        BackendConfig::SfcMdt { sfc, mdt } => f(sfc, mdt),
        _ => unreachable!("SFC/MDT mutation on a non-SFC/MDT config"),
    }
    cfg
}

/// The baseline bracket: no-spec, the 48×32 LSQ and the oracle.
fn bracket() -> Vec<(String, SimConfig)> {
    vec![
        named("nospec", cell(Baseline, NoSpec)),
        named("lsq-48x32", cell(Baseline, Lsq)),
        named("oracle", cell(Baseline, Oracle)),
    ]
}

/// `calibrate` / `calibrate-aggressive`: the two backends, baseline or
/// aggressive.
pub fn calibrate(aggressive: bool) -> ArtifactSpec {
    spec("calibrate", &[], lsq_vs_enf(aggressive))
}

/// The LSQ (48×32 baseline, 120×80 aggressive) and the ENF SFC/MDT.
fn lsq_vs_enf(aggressive: bool) -> Vec<(String, SimConfig)> {
    if aggressive {
        vec![
            named(
                "lsq-120x80",
                lsq(Aggressive, LsqConfig::aggressive_120x80()),
            ),
            named("sfc-mdt-enf", enf(Aggressive)),
        ]
    } else {
        vec![
            named("lsq-48x32", cell(Baseline, Lsq)),
            named("sfc-mdt-enf", enf(Baseline)),
        ]
    }
}

/// `fig4_config`: a boot-validation pair proving the printed parameter
/// tables describe configurations that actually simulate.
pub fn fig4_boot() -> ArtifactSpec {
    let configs = vec![
        named("baseline-enf", enf(Baseline)),
        named("aggressive-enf", enf(Aggressive)),
    ];
    spec("fig4_config", &[], configs)
}

/// `fig5_baseline`: 48×32 LSQ vs ENF vs NOT-ENF on the 4-wide machine.
pub fn fig5_baseline() -> ArtifactSpec {
    let configs = vec![
        named("lsq-48x32", cell(Baseline, Lsq)),
        named("sfc-mdt-enf", enf(Baseline)),
        named("sfc-mdt-not-enf", sfc_mdt(Baseline, EnforceMode::TrueOnly)),
    ];
    spec("fig5_baseline", &[], configs)
}

/// `fig6_aggressive`: three LSQ capacities and the ENF MDT/SFC on the
/// 8-wide machine.
pub fn fig6_aggressive() -> ArtifactSpec {
    let configs = vec![
        named(
            "lsq-120x80",
            lsq(Aggressive, LsqConfig::aggressive_120x80()),
        ),
        named(
            "lsq-256x256",
            lsq(Aggressive, LsqConfig::aggressive_256x256()),
        ),
        named("lsq-48x32", lsq(Aggressive, LsqConfig::baseline_48x32())),
        named("sfc-mdt-enf", enf(Aggressive)),
    ];
    spec("fig6_aggressive", FIG6_EXCLUDED, configs)
}

/// `table_violations`: baseline and aggressive, ENF and NOT-ENF.
pub fn table_violations() -> ArtifactSpec {
    let configs = vec![
        named("base-not-enf", sfc_mdt(Baseline, EnforceMode::TrueOnly)),
        named("base-enf", enf(Baseline)),
        named("aggr-not-enf", sfc_mdt(Aggressive, EnforceMode::TrueOnly)),
        named("aggr-enf", enf(Aggressive)),
    ];
    spec("table_violations", &[], configs)
}

/// `violations-policies`: the §2.4 recovery-policy ablation.
pub fn violation_policies() -> ArtifactSpec {
    let td = with_sfc_mdt(enf(Aggressive), |_, mdt| {
        mdt.true_dep_recovery = TrueDepRecovery::SingleLoadAggressive;
    });
    let mut od = enf(Aggressive);
    od.output_dep_recovery = OutputDepRecovery::MarkCorrupt;
    let configs = vec![
        named("aggr-enf", enf(Aggressive)),
        named("aggressive-td", td),
        named("corrupt-od", od),
    ];
    spec("table_violations--policies", &[], configs)
}

/// `table_enf_effect`: NOT-ENF vs pairwise vs total-order enforcement.
pub fn table_enf_effect() -> ArtifactSpec {
    let configs = vec![
        named("not-enf", sfc_mdt(Aggressive, EnforceMode::TrueOnly)),
        named("enf-pairwise", sfc_mdt(Aggressive, EnforceMode::All)),
        named("enf-total", enf(Aggressive)),
    ];
    spec("table_enf_effect", FIG6_EXCLUDED, configs)
}

/// An aggressive ENF pair: the default under `base`, then with `change`
/// applied to its SFC and MDT.
fn aggressive_pair(
    artifact: &'static str,
    base: &str,
    variant: &str,
    change: impl FnOnce(&mut aim_core::SfcConfig, &mut MdtConfig),
) -> ArtifactSpec {
    let configs = vec![
        named(base, enf(Aggressive)),
        named(variant, with_sfc_mdt(enf(Aggressive), change)),
    ];
    spec(artifact, FIG6_EXCLUDED, configs)
}

/// `table_assoc_sweep`: the 2-way aggressive geometry vs 16 ways.
pub fn table_assoc_sweep() -> ArtifactSpec {
    aggressive_pair("table_assoc_sweep", "assoc-2", "assoc-16", |sfc, mdt| {
        sfc.ways = 16;
        mdt.ways = 16;
    })
}

/// `assoc-hash`: low-bits vs XOR-folded set index.
pub fn assoc_hash() -> ArtifactSpec {
    aggressive_pair(
        "table_assoc_sweep--hash",
        "hash-low",
        "hash-xor",
        |sfc, mdt| {
            sfc.hash = SetHash::XorFold;
            mdt.hash = SetHash::XorFold;
        },
    )
}

/// `assoc-untagged`: tagged vs untagged MDT.
pub fn assoc_untagged() -> ArtifactSpec {
    aggressive_pair(
        "table_assoc_sweep--untagged",
        "tagged",
        "untagged",
        |_, mdt| {
            mdt.tagging = MdtTagging::Untagged;
        },
    )
}

/// `assoc-granularity`: the §2.2 granularity sweep.
pub fn assoc_granularity() -> ArtifactSpec {
    let configs = [8u64, 16, 32, 64]
        .iter()
        .map(|&g| {
            let cfg = with_sfc_mdt(enf(Aggressive), |_, mdt| mdt.granularity = g);
            (format!("granule-{g}"), cfg)
        })
        .collect();
    spec("table_assoc_sweep--granularity", FIG6_EXCLUDED, configs)
}

/// `table_corruption`: the default aggressive ENF configuration.
pub fn table_corruption() -> ArtifactSpec {
    spec(
        "table_corruption",
        FIG6_EXCLUDED,
        vec![named("aggr-enf", enf(Aggressive))],
    )
}

/// `corruption-endpoints`: corruption masks vs flush endpoints.
pub fn corruption_endpoints() -> ArtifactSpec {
    let artifact = "table_corruption--endpoints";
    aggressive_pair(artifact, "corrupt-bits", "flush-endpoints", |sfc, _| {
        sfc.corruption = CorruptionPolicy::FlushEndpoints { capacity: 16 };
    })
}

/// `corruption-partial`: combine-with-cache vs replay on partial
/// SFC matches.
pub fn corruption_partial() -> ArtifactSpec {
    let mut replay = enf(Aggressive);
    replay.partial_match_policy = aim_core::PartialMatchPolicy::Replay;
    let configs = vec![named("combine", enf(Aggressive)), named("replay", replay)];
    spec("table_corruption--partial", FIG6_EXCLUDED, configs)
}

/// The `table_filter` MDT geometries (sets, ways): the aggressive
/// 1K×16 design, then three that starve it.
pub const FILTER_GEOMETRIES: &[(usize, usize)] = &[(1024, 16), (256, 1), (64, 1), (16, 1)];

/// `table_filter`: MDT geometries swept down from the aggressive design,
/// each with the §4 search filter off and on (alternating off/on pairs).
pub fn table_filter() -> ArtifactSpec {
    let mut configs = Vec::new();
    for &(sets, ways) in FILTER_GEOMETRIES {
        for filter in [false, true] {
            let mut cfg = with_sfc_mdt(enf(Aggressive), |_, mdt| {
                *mdt = MdtConfig { sets, ways, ..*mdt }
            });
            cfg.mdt_filter = filter;
            let state = if filter { "on" } else { "off" };
            configs.push((format!("mdt{sets}x{ways}-{state}"), cfg));
        }
    }
    spec("table_filter", FIG6_EXCLUDED, configs)
}

/// `table_power`: the two backends whose comparator work is contrasted.
pub fn table_power(aggressive: bool) -> ArtifactSpec {
    spec("table_power", &[], lsq_vs_enf(aggressive))
}

/// `table_backend_bounds`: the four baseline backends, ordered from the
/// no-speculation lower bound to the perfect-disambiguation upper bound —
/// the bracket every real backend's IPC must land inside.
pub fn table_backend_bounds() -> ArtifactSpec {
    let configs = vec![
        named("nospec", cell(Baseline, NoSpec)),
        named("lsq-48x32", cell(Baseline, Lsq)),
        named("sfc-mdt-enf", enf(Baseline)),
        named("oracle", cell(Baseline, Oracle)),
    ];
    spec("table_backend_bounds", &[], configs)
}

/// `table_hybrid`: the filtered LSQ (membership filter in front of the
/// associative store queue) against the plain LSQ, the §4-filtered
/// SFC/MDT, and the two bounds — all on the baseline machine, so the
/// hybrid lands inside the `table_backend_bounds` bracket.
pub fn table_hybrid() -> ArtifactSpec {
    let mut sfc_filtered = enf(Baseline);
    sfc_filtered.mdt_filter = true;
    let configs = vec![
        named("nospec", cell(Baseline, NoSpec)),
        named("lsq-48x32", cell(Baseline, Lsq)),
        named("filtered-lsq", cell(Baseline, Filtered)),
        named("sfc-mdt-filt", sfc_filtered),
        named("oracle", cell(Baseline, Oracle)),
    ];
    spec("table_hybrid", &[], configs)
}

/// `table_pcax`: the PC-indexed classification backend against the plain
/// SFC/MDT it wraps, the 48×32 LSQ reference, and the two bounds — all on
/// the baseline machine, bracketing pcax between `nospec` and the best of
/// `oracle` / LSQ / SFC-MDT. Both SFC/MDT-family columns run their shared
/// builder default (`EnforceMode::All`, the paper's baseline ENF), so the
/// pair isolates the classification layer itself.
pub fn table_pcax() -> ArtifactSpec {
    let configs = vec![
        named(NoSpec.token(), cell(Baseline, NoSpec)),
        named("lsq-48x32", cell(Baseline, Lsq)),
        named(SfcMdt.token(), SimConfig::machine(Baseline).build()),
        named(Pcax.token(), cell(Baseline, Pcax)),
        named(Oracle.token(), cell(Baseline, Oracle)),
    ];
    spec("table_pcax", &[], configs)
}

/// The CI-sized 2×2 sets × ways grid at the baseline knob only, or the
/// full sets × ways × `knobs` study.
fn sweep_grid(tiny: bool, knobs: Vec<u32>, baseline_knob: u32) -> GeometryGrid {
    let (sets, knobs) = if tiny {
        (vec![16, 256], vec![baseline_knob])
    } else {
        (vec![16, 64, 256, 1024], knobs)
    };
    GeometryGrid {
        sets,
        ways: vec![1, 2],
        knobs,
        baseline_knob,
        hash: SetHash::LowBits,
    }
}

/// The `table_pcax_sweep` grid: PC-table sets/ways × the no-alias acting
/// threshold. The tiny variant is the CI-sized 2×2 grid at the baseline
/// threshold only.
pub fn pcax_sweep_grid(tiny: bool) -> GeometryGrid {
    let baseline = u32::from(PcaxConfig::baseline().no_alias_act);
    sweep_grid(tiny, vec![1, 2, 3], baseline)
}

/// `table_pcax_sweep`: the four bracket configs followed by one PCAX
/// config per grid point (`setsxways@t<threshold>`), all on the baseline
/// machine so every point lands inside the `table_backend_bounds` bracket.
pub fn table_pcax_sweep(grid: &GeometryGrid) -> ArtifactSpec {
    let mut configs = bracket();
    configs.insert(2, named("sfc-mdt", SimConfig::machine(Baseline).build()));
    for (table, threshold) in grid.points() {
        let pcax = PcaxConfig {
            table,
            no_alias_act: u8::try_from(threshold).expect("threshold fits the confidence width"),
            ..PcaxConfig::baseline()
        };
        let cfg = SimConfig::machine(Baseline)
            .backend(Pcax)
            .pcax(pcax)
            .build();
        configs.push((format!("{}@t{threshold}", table.label()), cfg));
    }
    spec("table_pcax_sweep", &[], configs)
}

/// The `table_filter_sweep` grid: filter sets/ways × the counter
/// saturation point. The tiny variant is the CI-sized 2×2 grid at the
/// baseline counter width only.
pub fn filter_sweep_grid(tiny: bool) -> GeometryGrid {
    sweep_grid(tiny, vec![1, 3, 15], FilterConfig::baseline().max_count)
}

/// `table_filter_sweep`: the three bracket configs followed by one
/// filtered-LSQ config per grid point (`setsxways@c<max_count>`), all on
/// the baseline machine.
pub fn table_filter_sweep(grid: &GeometryGrid) -> ArtifactSpec {
    let mut configs = bracket();
    for (table, max_count) in grid.points() {
        let filter = FilterConfig {
            sets: table.sets,
            ways: table.ways,
            max_count,
        };
        let cfg = SimConfig::machine(Baseline)
            .backend(Filtered)
            .filter(filter)
            .build();
        configs.push((format!("{}@c{max_count}", table.label()), cfg));
    }
    spec("table_filter_sweep", &[], configs)
}

/// The `table_hostperf` cells as [`ConfigSpec`]s — every backend on both
/// machine classes. The job server's replay gate and the repository
/// benchmark submit exactly these cells; [`table_hostperf`] builds them.
/// Config names carry the `base-`/`aggr-` machine-class prefix the report's
/// aggregation keys on.
pub fn hostperf_configs() -> Vec<(String, ConfigSpec)> {
    let mut configs = Vec::new();
    for (machine, tag, lsq, enf) in [
        (MachineClass::Baseline, "base", None, EnforceMode::All),
        (
            MachineClass::Aggressive,
            "aggr",
            Some(LsqConfig::aggressive_120x80()),
            EnforceMode::TotalOrder,
        ),
    ] {
        let cell = |backend| ConfigSpec::new(machine, backend);
        let lsq_name = lsq.unwrap_or(LsqConfig::baseline_48x32());
        configs.extend([
            (format!("{tag}-nospec"), cell(BackendChoice::NoSpec)),
            (
                format!("{tag}-lsq-{lsq_name}"),
                ConfigSpec {
                    lsq,
                    ..cell(BackendChoice::Lsq)
                },
            ),
            (
                format!("{tag}-sfc-mdt-enf"),
                ConfigSpec {
                    mode: Some(enf),
                    ..cell(BackendChoice::SfcMdt)
                },
            ),
            (format!("{tag}-filtered-lsq"), cell(BackendChoice::Filtered)),
            (format!("{tag}-pcax"), cell(BackendChoice::Pcax)),
            (format!("{tag}-oracle"), cell(BackendChoice::Oracle)),
        ]);
    }
    configs
}

/// `table_hostperf`: the host-throughput tracking matrix behind
/// `BENCH_hostperf.json`, built from [`hostperf_configs`].
pub fn table_hostperf() -> ArtifactSpec {
    spec("table_hostperf", &[], built(hostperf_configs()))
}

/// The `table_far_mem` cells as [`ConfigSpec`]s: window size × far-memory
/// latency per backend. Both kilo-entry-window classes (aggressive 1024,
/// huge 4096) run behind a 64-MSHR, batch-8 far tier at a moderate and an
/// extreme latency, bracketed by no-spec and oracle. Two LSQ columns tell
/// the CAM story: the 120×80 queue — the paper's largest *buildable*
/// Figure 4 CAM — drowns when thousands of instructions and
/// hundreds-of-cycles loads are in flight, while the 256×256 upper bound
/// (every cell's normalization base) shows what an unbuildable CAM would
/// recover. The address-indexed SFC/MDT and PCAX track the upper bound,
/// not the buildable CAM.
pub fn farmem_configs() -> Vec<(String, ConfigSpec)> {
    let mut configs = Vec::new();
    for (machine, tag) in [
        (MachineClass::Aggressive, "aggr"),
        (MachineClass::Huge, "huge"),
    ] {
        for lat in [200u64, 800] {
            let cell = |backend, lsq| ConfigSpec {
                lsq,
                far: Some(FarSpec::new(lat, 64, 8)),
                ..ConfigSpec::new(machine, backend)
            };
            let name = |column: &str| format!("{tag}-far{lat}-{column}");
            configs.extend([
                (name("nospec"), cell(BackendChoice::NoSpec, None)),
                (
                    name("lsq-120x80"),
                    cell(BackendChoice::Lsq, Some(LsqConfig::aggressive_120x80())),
                ),
                (
                    name("lsq-256x256"),
                    cell(BackendChoice::Lsq, Some(LsqConfig::aggressive_256x256())),
                ),
                (name("sfc-mdt"), cell(BackendChoice::SfcMdt, None)),
                (name("pcax"), cell(BackendChoice::Pcax, None)),
                (name("oracle"), cell(BackendChoice::Oracle, None)),
            ]);
        }
    }
    configs
}

/// `table_far_mem`: the [`farmem_configs`] matrix, built.
pub fn table_far_mem() -> ArtifactSpec {
    spec("table_far_mem", FIG6_EXCLUDED, built(farmem_configs()))
}

/// Builds named [`ConfigSpec`] cells into the configs an [`ArtifactSpec`]
/// runs.
fn built(cells: Vec<(String, ConfigSpec)>) -> Vec<(String, SimConfig)> {
    cells
        .into_iter()
        .map(|(name, spec)| (name, spec.to_config()))
        .collect()
}

/// The `table_window_sweep` window sizes.
pub const WINDOWS: [usize; 4] = [128, 256, 512, 1024];

/// `table_window_sweep`: windows 128–1024, fixed 48×32 LSQ vs SFC/MDT
/// (window-major: `lsq@N` then `sfc-mdt@N` for each window size N).
pub fn table_window_sweep() -> ArtifactSpec {
    let mut configs = Vec::new();
    for window in WINDOWS {
        let mut lsq = lsq(Aggressive, LsqConfig::baseline_48x32());
        let mut sfc = enf(Aggressive);
        for cfg in [&mut lsq, &mut sfc] {
            cfg.rob_entries = window;
            cfg.phys_regs = window + 64;
        }
        configs.push((format!("lsq-48x32@w{window}"), lsq));
        configs.push((format!("sfc-mdt@w{window}"), sfc));
    }
    spec("table_window_sweep", FIG6_EXCLUDED, configs)
}
