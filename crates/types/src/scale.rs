//! Workload scale: the dynamic-instruction budget every kernel is built
//! for, shared by the workload registry, the job server's requests, and
//! every command line.

/// Dynamic instruction budget of a kernel.
///
/// The paper runs up to 300 M instructions per benchmark; this simulator
/// targets tractable runs whose steady-state statistics are already stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scale {
    /// ≈ 3–6 k dynamic instructions; for unit and integration tests.
    Tiny,
    /// ≈ 25–40 k dynamic instructions; for quick experiments.
    Small,
    /// ≈ 80–140 k dynamic instructions; for the paper-figure harnesses.
    Full,
    /// ≈ 2 M dynamic instructions (≈ 18× `Full`) — long enough to stress the
    /// kilo-entry window and far-memory tier. Intractable in full-detail
    /// simulation; meant for the sampled fast-forward mode.
    Huge,
}

impl Scale {
    /// The approximate dynamic-instruction target of this scale.
    pub fn target_instrs(self) -> u64 {
        match self {
            Scale::Tiny => 4_000,
            Scale::Small => 32_000,
            Scale::Full => 110_000,
            Scale::Huge => 2_000_000,
        }
    }

    /// Approximate outer-iteration multiplier kernels derive their loop
    /// bounds from.
    pub fn iterations(self, per_iter_cost: u64) -> i64 {
        (self.target_instrs() / per_iter_cost.max(1)).max(8) as i64
    }
}

crate::keyword_tokens!(Scale, "scale", {
    Tiny => "tiny",
    Small => "small",
    Full => "full",
    Huge => "huge",
});
