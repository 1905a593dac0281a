//! Synthetic benchmark kernels mirroring the memory behaviour of the paper's
//! SPEC CPU2000 suite.
//!
//! The paper evaluates on 19 SPEC CPU2000 benchmarks (plus `mesa` in the
//! baseline study) with MinneSPEC reduced inputs. SPEC binaries and inputs
//! are not redistributable, and the effects the paper measures are driven by
//! *memory-reference behaviour* rather than program semantics, so this crate
//! substitutes one hand-built kernel per benchmark. Each kernel is engineered
//! to exercise the mechanism the paper attributes to its benchmark:
//!
//! * [`int::bzip2`] — bucket stores at SFC-set-aliasing strides (the paper:
//!   "over 50% of dynamic stores must be replayed because of set conflicts
//!   in the SFC");
//! * [`int::mcf`] — parallel pointer-dereferences at MDT-set-aliasing strides
//!   ("over 16% of dynamic loads must be replayed because of set conflicts
//!   in the MDT");
//! * [`int::vpr_route`], [`fp::ammp`], [`fp::equake`] — stores in the shadow
//!   of hard-to-predict branches, re-read soon after ("roughly 20% of all
//!   dynamic loads must be replayed because of corruptions in the SFC");
//! * [`int::gzip`], [`fp::mesa`] — recurring same-address store pairs whose
//!   output dependences the ENF predictor must learn ("the decreased rates
//!   of output dependence violations in gzip, vpr route, and mesa yield
//!   significant increases in their respective IPC's");
//! * the FP suite — streaming sweeps over arrays smaller than the aggressive
//!   machine's 1024-instruction window, so consecutive sweeps overlap in
//!   flight: the capacity-limited LSQ stalls dispatch while the
//!   address-indexed structures keep going (the Figure 6 effect).
//!
//! # Examples
//!
//! ```
//! use aim_workloads::{Scale, Workload};
//!
//! let suite = aim_workloads::all(Scale::Tiny);
//! assert_eq!(suite.len(), 20);
//! let mcf = aim_workloads::by_name("mcf", Scale::Tiny).unwrap();
//! assert_eq!(mcf.name, "mcf");
//! ```

pub mod fp;
pub mod int;
mod kernel;
pub mod stress;

pub use kernel::{KernelBuilder, Xorshift};

use aim_isa::Program;
pub use aim_types::Scale;

/// Which of the paper's two benchmark suites a kernel belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPECint 2000 analogue.
    Int,
    /// SPECfp 2000 analogue.
    Fp,
}

/// A named benchmark kernel.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The SPEC benchmark this kernel mirrors.
    pub name: &'static str,
    /// Which suite average it contributes to.
    pub suite: Suite,
    /// The assembled program (with initial data image).
    pub program: Program,
}

type KernelFn = fn(Scale) -> Program;

const REGISTRY: &[(&str, Suite, KernelFn)] = &[
    ("bzip2", Suite::Int, int::bzip2),
    ("crafty", Suite::Int, int::crafty),
    ("gap", Suite::Int, int::gap),
    ("gcc", Suite::Int, int::gcc),
    ("gzip", Suite::Int, int::gzip),
    ("mcf", Suite::Int, int::mcf),
    ("parser", Suite::Int, int::parser),
    ("perlbmk", Suite::Int, int::perlbmk),
    ("twolf", Suite::Int, int::twolf),
    ("vortex", Suite::Int, int::vortex),
    ("vpr_place", Suite::Int, int::vpr_place),
    ("vpr_route", Suite::Int, int::vpr_route),
    ("ammp", Suite::Fp, fp::ammp),
    ("applu", Suite::Fp, fp::applu),
    ("apsi", Suite::Fp, fp::apsi),
    ("art", Suite::Fp, fp::art),
    ("equake", Suite::Fp, fp::equake),
    ("mesa", Suite::Fp, fp::mesa),
    ("mgrid", Suite::Fp, fp::mgrid),
    ("swim", Suite::Fp, fp::swim),
];

/// Builds every kernel (12 int + 8 fp, including `mesa`).
pub fn all(scale: Scale) -> Vec<Workload> {
    REGISTRY
        .iter()
        .map(|&(name, suite, f)| Workload {
            name,
            suite,
            program: f(scale),
        })
        .collect()
}

/// Builds the kernel named `name`, if it exists.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    REGISTRY
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(name, suite, f)| Workload {
            name,
            suite,
            program: f(scale),
        })
}

/// The names of all kernels, int suite first (the paper's figure order).
pub fn names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(n, _, _)| *n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aim_isa::Interpreter;

    #[test]
    fn registry_is_complete() {
        let w = all(Scale::Tiny);
        assert_eq!(w.len(), 20);
        assert_eq!(w.iter().filter(|w| w.suite == Suite::Int).count(), 12);
        assert_eq!(w.iter().filter(|w| w.suite == Suite::Fp).count(), 8);
    }

    #[test]
    fn by_name_finds_and_misses() {
        assert!(by_name("swim", Scale::Tiny).is_some());
        assert!(by_name("doom", Scale::Tiny).is_none());
    }

    #[test]
    fn every_kernel_runs_clean_architecturally() {
        for w in all(Scale::Tiny) {
            let mut interp = Interpreter::new(&w.program);
            let trace = interp
                .run(2_000_000)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(trace.halted(), "{} did not halt", w.name);
            assert!(
                trace.len() > 1_000,
                "{} too short: {} instrs",
                w.name,
                trace.len()
            );
        }
    }

    #[test]
    fn scales_order_dynamic_lengths() {
        for name in ["gzip", "swim"] {
            let mut lens = Vec::new();
            for scale in [Scale::Tiny, Scale::Small] {
                let w = by_name(name, scale).unwrap();
                let trace = Interpreter::new(&w.program).run(10_000_000).unwrap();
                lens.push(trace.len());
            }
            assert!(lens[0] < lens[1], "{name}: {lens:?}");
        }
    }

    #[test]
    fn huge_scale_is_10_to_100x_full() {
        let target = Scale::Huge.target_instrs();
        let full = Scale::Full.target_instrs();
        assert!(
            (10 * full..=100 * full).contains(&target),
            "Huge target {target} outside 10–100× Full ({full})"
        );
        // Spot-check an actual dynamic length: a kernel at Huge must run at
        // least 10× its Full-scale length.
        for name in ["gzip", "swim"] {
            let mut lens = Vec::new();
            for scale in [Scale::Full, Scale::Huge] {
                let w = by_name(name, scale).unwrap();
                let trace = Interpreter::new(&w.program).run(20_000_000).unwrap();
                assert!(trace.halted(), "{name} did not halt at {scale:?}");
                lens.push(trace.len());
            }
            assert!(
                lens[1] >= 10 * lens[0],
                "{name}: Huge ran {} instrs vs Full {}",
                lens[1],
                lens[0]
            );
        }
    }

    #[test]
    fn huge_scale_programs_are_deterministic() {
        for name in ["mcf", "equake"] {
            let a = by_name(name, Scale::Huge).unwrap();
            let b = by_name(name, Scale::Huge).unwrap();
            assert_eq!(
                format!("{:?}", a.program),
                format!("{:?}", b.program),
                "{name}: Huge program not reproducible"
            );
        }
    }

    #[test]
    fn every_kernel_trace_decodes_what_the_interpreter_stepped() {
        for w in all(Scale::Tiny) {
            let trace = Interpreter::new(&w.program).run(2_000_000).unwrap();
            let mut interp = Interpreter::new(&w.program);
            for (i, rec) in trace.records().enumerate() {
                let stepped = interp.step().unwrap();
                assert_eq!(Some(rec), stepped, "{} record {i}", w.name);
            }
            assert_eq!(
                interp.step().unwrap(),
                None,
                "{}: trace ends at Halt",
                w.name
            );
        }
    }

    #[test]
    fn kernels_have_memory_traffic() {
        for w in all(Scale::Tiny) {
            let trace = Interpreter::new(&w.program).run(2_000_000).unwrap();
            let loads = trace.records().filter(|r| r.mem_load.is_some()).count();
            let stores = trace.records().filter(|r| r.mem_store.is_some()).count();
            assert!(loads > 100, "{}: only {loads} loads", w.name);
            // mcf is deliberately load-dominated; every kernel still stores.
            assert!(stores > 5, "{}: only {stores} stores", w.name);
        }
    }
}
