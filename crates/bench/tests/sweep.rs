//! Differential sweep sanity: the geometry grids the sweep bins walk are
//! safe by construction.
//!
//! Two claims, checked against live simulations of committed kernels at
//! tiny scale:
//!
//! 1. **Bracket invariance** — any point of either sweep grid (PCAX
//!    prediction table or filtered-LSQ membership filter) lands inside the
//!    per-kernel no-spec..oracle IPC bracket. Shrinking a table may cost
//!    coverage or CAM searches, never correctness.
//! 2. **Degenerate monotonicity** — the 1×1 geometry, the smallest legal
//!    table, never *beats* the baseline geometry on its own sweep metric
//!    (PCAX coverage, filtered-load rate).
//!
//! The property test samples (grid point × kernel) pairs from a `u64`
//! seed; seeds that once exposed failures are pinned in
//! `sweep.proptest-regressions` and replayed by
//! [`regression_seeds_stay_green`] (the vendored proptest does not consume
//! regression files itself).

use aim_bench::{prepare, run, specs, Prepared};
use aim_core::TableGeometry;
use aim_pipeline::{BackendChoice, FilterConfig, MachineClass, PcaxConfig, SimConfig, SimStats};
use aim_workloads::Scale;
use proptest::prelude::*;
use std::sync::OnceLock;

/// The committed kernels the differential checks run on: two int kernels
/// with dense store/load traffic plus one fp kernel.
const KERNELS: &[&str] = &["gzip", "mcf", "swim"];

/// Per-kernel bracket bounds (absolute IPC).
struct Bounds {
    nospec: f64,
    lsq: f64,
    sfc: f64,
    oracle: f64,
}

fn kernels() -> &'static [Prepared] {
    static CACHE: OnceLock<Vec<Prepared>> = OnceLock::new();
    CACHE.get_or_init(|| {
        KERNELS
            .iter()
            .map(|name| {
                prepare(
                    aim_workloads::by_name(name, Scale::Tiny).unwrap(),
                    Scale::Tiny,
                )
            })
            .collect()
    })
}

fn bounds() -> &'static [Bounds] {
    static CACHE: OnceLock<Vec<Bounds>> = OnceLock::new();
    CACHE.get_or_init(|| {
        kernels()
            .iter()
            .map(|p| Bounds {
                nospec: run(p, &baseline(BackendChoice::NoSpec)).ipc(),
                lsq: run(p, &baseline(BackendChoice::Lsq)).ipc(),
                sfc: run(p, &baseline(BackendChoice::SfcMdt)).ipc(),
                oracle: run(p, &baseline(BackendChoice::Oracle)).ipc(),
            })
            .collect()
    })
}

fn baseline(choice: BackendChoice) -> SimConfig {
    SimConfig::machine(MachineClass::Baseline)
        .backend(choice)
        .build()
}

fn pcax_config(table: TableGeometry, no_alias_act: u8) -> SimConfig {
    SimConfig::machine(MachineClass::Baseline)
        .backend(BackendChoice::Pcax)
        .pcax(PcaxConfig {
            table,
            no_alias_act,
            ..PcaxConfig::baseline()
        })
        .build()
}

fn filter_config(table: TableGeometry, max_count: u32) -> SimConfig {
    SimConfig::machine(MachineClass::Baseline)
        .backend(BackendChoice::Filtered)
        .filter(FilterConfig {
            sets: table.sets,
            ways: table.ways,
            max_count,
        })
        .build()
}

/// Asserts `stats` sits inside kernel `w`'s bracket. `sfc_ceiling` admits
/// the SFC's speculative forwarding as a legitimate ceiling (the PCAX
/// case); the filtered LSQ only needs max(oracle, LSQ).
fn check_bracket(
    label: &str,
    w: usize,
    stats: &SimStats,
    sfc_ceiling: bool,
) -> Result<(), TestCaseError> {
    let b = &bounds()[w];
    let norm = stats.ipc() / b.lsq;
    let floor = b.nospec / b.lsq - 0.005;
    let mut ceiling = (b.oracle / b.lsq).max(1.0);
    if sfc_ceiling {
        ceiling = ceiling.max(b.sfc / b.lsq);
    }
    ceiling += 0.01;
    prop_assert!(
        norm >= floor && norm <= ceiling,
        "{label} on {}: norm {norm:.4} outside [{floor:.4}, {ceiling:.4}]",
        KERNELS[w]
    );
    Ok(())
}

/// One property case: a seed picks a sweep family, a grid point, and a
/// kernel; the simulated point must hold the bracket.
fn check_sweep_point(seed: u64) -> Result<(), TestCaseError> {
    let w = (seed % kernels().len() as u64) as usize;
    let p = &kernels()[w];
    if seed.is_multiple_of(2) {
        let points = specs::pcax_sweep_grid(false).points();
        let (table, threshold) = points[(seed / 2) as usize % points.len()];
        let cfg = pcax_config(table, u8::try_from(threshold).unwrap());
        let stats = run(p, &cfg);
        check_bracket(
            &format!("pcax {}@t{threshold}", table.label()),
            w,
            &stats,
            true,
        )
    } else {
        let points = specs::filter_sweep_grid(false).points();
        let (table, max_count) = points[(seed / 2) as usize % points.len()];
        let cfg = filter_config(table, max_count);
        let stats = run(p, &cfg);
        check_bracket(
            &format!("filter {}@c{max_count}", table.label()),
            w,
            &stats,
            false,
        )
    }
}

proptest! {
    // Each case runs one tiny-scale simulation (the bracket bounds are
    // computed once and cached).
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn swept_geometries_stay_inside_the_bracket(seed in any::<u64>()) {
        check_sweep_point(seed)?;
    }
}

/// Replays every seed recorded in the sibling `.proptest-regressions`
/// file (standard proptest format, parsed as in
/// `prop_backend_parity.rs`).
#[test]
fn regression_seeds_stay_green() {
    let recorded = include_str!("sweep.proptest-regressions");
    let mut replayed = 0;
    for line in recorded.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let seed: u64 = line
            .split("seed = ")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("malformed regression line: {line}"));
        check_sweep_point(seed).unwrap_or_else(|e| panic!("regression seed {seed}: {e}"));
        replayed += 1;
    }
    assert!(replayed >= 4, "regression file lost its seeds");
}

/// The degenerate 1×1 PCAX table never beats the baseline geometry's
/// coverage, and still holds the bracket.
#[test]
fn one_by_one_pcax_degrades_monotonically() {
    let tiny = TableGeometry::direct(1);
    let act = PcaxConfig::baseline().no_alias_act;
    for (w, p) in kernels().iter().enumerate() {
        let base = run(p, &pcax_config(PcaxConfig::baseline().table, act));
        let degen = run(p, &pcax_config(tiny, act));
        let cov = |s: &SimStats| s.backend.pcax().unwrap().pred.coverage();
        assert!(
            cov(&degen) <= cov(&base) + 1e-9,
            "{}: 1x1 coverage {:.4} beats baseline {:.4}",
            p.name,
            cov(&degen),
            cov(&base)
        );
        check_bracket("pcax 1x1", w, &degen, true).unwrap();
    }
}

/// The degenerate 1×1 filter never beats the baseline geometry's
/// filtered-load rate, and still holds the bracket.
#[test]
fn one_by_one_filter_degrades_monotonically() {
    let tiny = TableGeometry::direct(1);
    let base_cfg = FilterConfig::baseline();
    for (w, p) in kernels().iter().enumerate() {
        let base = run(p, &filter_config(base_cfg.geometry(), base_cfg.max_count));
        let degen = run(p, &filter_config(tiny, base_cfg.max_count));
        let rate = |s: &SimStats| {
            let f = &s.backend.filtered().unwrap().filter;
            let loads = f.filtered_loads + f.searched_loads;
            if loads == 0 {
                0.0
            } else {
                f.filtered_loads as f64 / loads as f64
            }
        };
        assert!(
            rate(&degen) <= rate(&base) + 1e-9,
            "{}: 1x1 filter rate {:.4} beats baseline {:.4}",
            p.name,
            rate(&degen),
            rate(&base)
        );
        check_bracket("filter 1x1", w, &degen, false).unwrap();
    }
}
