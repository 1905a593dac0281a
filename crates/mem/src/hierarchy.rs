//! The canonical [`MemSpec`] describing every tier of the memory system
//! (by default the L1I / L1D / L2 hierarchy of the paper's Figure 4), and
//! the [`MemLevel`] that serves an access.

use std::fmt;

use aim_types::Addr;

use crate::cache::CacheConfig;
use crate::far::FarSpec;

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemLevel {
    /// Served by the first-level cache.
    L1,
    /// Missed L1, hit the unified L2.
    L2,
    /// Missed both caches; served by main memory.
    Memory,
}

/// The canonical per-tier description of the memory system: cache
/// geometries, the latency ladder, and (optionally) the far-memory tier.
///
/// This is the single config type every layer threads — the `SimConfig`
/// builder's `.mem(..)` knob, the shared memory system, the wire
/// `JobSpec`, and the content-addressed cache key all speak `MemSpec`.
/// [`CoreMemSys`](crate::CoreMemSys) walks its latency ladder.
///
/// Defaults reproduce Figure 4 of the paper (no far tier):
///
/// | cache | geometry | miss latency |
/// |---|---|---|
/// | L1 I | 8 KB, 2-way, 128 B lines | 10 cycles |
/// | L1 D | 8 KB, 4-way, 64 B lines | 10 cycles |
/// | L2 | 512 KB, 8-way, 128 B lines | 100 cycles |
///
/// # Examples
///
/// ```
/// use aim_mem::{CoreMemSys, MainMemory, MemLevel, MemSpec};
/// use aim_types::Addr;
///
/// let mut core = CoreMemSys::single(MainMemory::new(), MemSpec::figure4());
/// // Cold: 1 (L1 hit time) + 10 (L1 miss) + 100 (L2 miss) cycles.
/// assert_eq!(core.access_data_at(Addr(0x4000), 0), (MemLevel::Memory, 111));
/// assert_eq!(core.access_data_at(Addr(0x4000), 1), (MemLevel::L1, 1));
/// ```
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MemSpec {
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Cycles for an L1 hit (pipelined load-use latency).
    pub l1_hit_cycles: u64,
    /// Additional cycles when an access misses L1 and hits L2.
    pub l1_miss_cycles: u64,
    /// Additional cycles when an access misses L2 and is served by near
    /// memory. Ignored when a far tier is configured — the far tier
    /// replaces the backing store and its completion time replaces this
    /// ladder step.
    pub l2_miss_cycles: u64,
    /// The far-memory tier behind the shared L2, if any.
    pub far: Option<FarSpec>,
}

impl Default for MemSpec {
    fn default() -> MemSpec {
        MemSpec {
            l1i: CacheConfig::new(8 * 1024, 2, 128),
            l1d: CacheConfig::new(8 * 1024, 4, 64),
            l2: CacheConfig::new(512 * 1024, 8, 128),
            l1_hit_cycles: 1,
            l1_miss_cycles: 10,
            l2_miss_cycles: 100,
            far: None,
        }
    }
}

impl MemSpec {
    /// The paper's Figure 4 hierarchy (the [`Default`]), spelled as a
    /// builder entry point.
    pub fn figure4() -> MemSpec {
        MemSpec::default()
    }

    /// Returns the spec with a far-memory tier behind the shared L2.
    pub fn with_far(mut self, far: FarSpec) -> MemSpec {
        self.far = Some(far);
        self
    }

    /// Returns the spec with a different near-memory (L2-miss) latency.
    pub fn with_l2_miss_cycles(mut self, cycles: u64) -> MemSpec {
        self.l2_miss_cycles = cycles;
        self
    }

    /// The far-memory coalescing granule for `addr`: the L2 line number
    /// (far misses are tracked at the granularity of the L2 fill).
    pub fn far_line(&self, addr: Addr) -> u64 {
        addr.0 / self.l2.line_bytes() as u64
    }
}

/// **Compatibility contract** (the content-addressed result cache and the
/// hostperf stats fingerprint both hash `Debug` text): a `MemSpec` without
/// a far tier renders byte-identically to the derived `Debug` of the
/// struct's original name, `HierarchyConfig`, so every pre-existing config
/// keeps its cache key. Only a spec with `far: Some(..)` renders the new
/// field (under the `MemSpec` name) — a genuinely new machine, so a new key
/// is correct.
impl fmt::Debug for MemSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct(if self.far.is_some() {
            "MemSpec"
        } else {
            "HierarchyConfig"
        });
        d.field("l1i", &self.l1i)
            .field("l1d", &self.l1d)
            .field("l2", &self.l2)
            .field("l1_hit_cycles", &self.l1_hit_cycles)
            .field("l1_miss_cycles", &self.l1_miss_cycles)
            .field("l2_miss_cycles", &self.l2_miss_cycles);
        if self.far.is_some() {
            d.field("far", &self.far);
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CoreMemSys, MainMemory};

    fn core() -> CoreMemSys {
        CoreMemSys::single(MainMemory::new(), MemSpec::default())
    }

    #[test]
    fn default_matches_figure4() {
        let cfg = MemSpec::default();
        assert_eq!(cfg.l1i.capacity_bytes(), 8 * 1024);
        assert_eq!(cfg.l1i.ways(), 2);
        assert_eq!(cfg.l1i.line_bytes(), 128);
        assert_eq!(cfg.l1d.ways(), 4);
        assert_eq!(cfg.l1d.line_bytes(), 64);
        assert_eq!(cfg.l2.capacity_bytes(), 512 * 1024);
        assert_eq!(cfg.l2.ways(), 8);
        assert_eq!(cfg.l1_miss_cycles, 10);
        assert_eq!(cfg.l2_miss_cycles, 100);
    }

    #[test]
    fn latency_ladder() {
        let mut c = core();
        assert_eq!(c.access_data_at(Addr(0x9000), 0), (MemLevel::Memory, 111));
        assert_eq!(c.access_data_at(Addr(0x9000), 1), (MemLevel::L1, 1));
        // A different address in the same L2 line but a different L1D line:
        // L1D lines are 64 B, L2 lines are 128 B.
        assert_eq!(c.access_data_at(Addr(0x9040), 2), (MemLevel::L2, 11));
    }

    #[test]
    fn instruction_and_data_paths_are_split() {
        let mut c = core();
        c.access_instr_at(Addr(0x100), 0);
        // Same address on the data side still misses L1D (but hits the
        // unified L2, which the instruction fill populated).
        let (lv, _) = c.access_data_at(Addr(0x100), 1);
        assert_eq!(lv, MemLevel::L2);
    }

    #[test]
    fn debug_without_far_matches_the_legacy_derived_text() {
        // The compatibility contract: the cache key and the stats
        // fingerprint hash Debug text, so a far-less MemSpec must render
        // exactly as the old derived HierarchyConfig did.
        let text = format!("{:?}", MemSpec::default());
        assert_eq!(
            text,
            "HierarchyConfig { \
             l1i: CacheConfig { capacity_bytes: 8192, ways: 2, line_bytes: 128 }, \
             l1d: CacheConfig { capacity_bytes: 8192, ways: 4, line_bytes: 64 }, \
             l2: CacheConfig { capacity_bytes: 524288, ways: 8, line_bytes: 128 }, \
             l1_hit_cycles: 1, l1_miss_cycles: 10, l2_miss_cycles: 100 }"
        );
        assert!(!text.contains("far"));
    }

    #[test]
    fn debug_with_far_renders_the_new_surface() {
        let spec = MemSpec::figure4().with_far(FarSpec::new(400, 64, 8));
        let text = format!("{spec:?}");
        assert!(text.starts_with("MemSpec {"), "{text}");
        assert!(
            text.contains("far: Some(FarSpec { latency: 400, mshrs: 64, batch: 8 })"),
            "{text}"
        );
    }

    #[test]
    fn far_line_uses_the_l2_line_size() {
        let spec = MemSpec::default(); // 128 B L2 lines
        assert_eq!(spec.far_line(Addr(0)), 0);
        assert_eq!(spec.far_line(Addr(127)), 0);
        assert_eq!(spec.far_line(Addr(128)), 1);
    }

    #[test]
    fn stats_attribution() {
        let mut c = core();
        c.access_instr_at(Addr(0), 0);
        c.access_data_at(Addr(0), 1);
        c.access_data_at(Addr(0), 2);
        let (i, d, l2) = c.stats();
        assert_eq!(i.accesses(), 1);
        assert_eq!(d.accesses(), 2);
        assert_eq!(d.hits, 1);
        assert_eq!(l2.accesses(), 2); // one I-side miss, one D-side miss
    }
}
