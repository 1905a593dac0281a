//! Property test for the shared memory system's composability contract:
//! when two cores' access streams touch disjoint L2 sets, the shared L2's
//! hit/miss counts — and each core's private L1 counts — do not depend on
//! how finely the core scheduler interleaves the two streams.
//!
//! This is the cache-level justification for the multi-core litmus harness
//! sweeping *schedules* rather than cache states: with set-disjoint
//! footprints every interleaving drives each L2 set with the same per-set
//! access sequence, so replacement decisions (and therefore counters) are
//! schedule-invariant. Conversely, the L1 columns are private by
//! construction, so they must match a solo run of the same stream exactly.

use aim_mem::{CacheStats, CoreMemSys, FarSpec, FarStats, MainMemory, MemSpec, SharedMemSystem};
use aim_types::Addr;
use proptest::prelude::*;

/// Half the default L2's index space: 512 sets x 128-byte lines = 64 KiB,
/// so offsets below `REGION_BYTES` map to sets 0..256 and offsets in
/// `[REGION_BYTES, 2 * REGION_BYTES)` map to sets 256..512.
const REGION_BYTES: u64 = 0x8000;

/// One access: an offset inside the core's private region, and whether it
/// goes through the instruction or the data port.
type Access = (u16, bool);

fn addr_of(core: usize, (offset, _): Access) -> Addr {
    Addr(core as u64 * REGION_BYTES + (offset as u64 % REGION_BYTES))
}

fn drive(core: &mut CoreMemSys, id: usize, access: Access, now: u64) {
    let addr = addr_of(id, access);
    if access.1 {
        core.access_instr_at(addr, now);
    } else {
        core.access_data_at(addr, now);
    }
}

/// Runs both streams over one shared tier, consuming them in chunks
/// dictated by `schedule` (core pick, chunk length) with the tier handed
/// to the picked core for each chunk; leftovers drain in core order. A
/// global clock ticks once per access. Returns ((core0 L1I, core0 L1D),
/// (core1 L1I, core1 L1D)), the shared L2's and (when `cfg` has one) the
/// far tier's counters.
fn run_interleaved(
    cfg: MemSpec,
    streams: &[Vec<Access>; 2],
    schedule: &[(bool, u8)],
) -> ([(CacheStats, CacheStats); 2], CacheStats, Option<FarStats>) {
    let mut cores = [CoreMemSys::detached(cfg), CoreMemSys::detached(cfg)];
    let mut tier = SharedMemSystem::new(MainMemory::new(), cfg);
    let mut cursors = [0usize, 0usize];
    let mut now = 0u64;
    let mut quanta = schedule
        .iter()
        .map(|&(pick, len)| (pick as usize, len as usize + 1))
        // Drain whatever the schedule left over, one core at a time.
        .chain([(0, usize::MAX), (1, usize::MAX)]);
    while cursors[0] < streams[0].len() || cursors[1] < streams[1].len() {
        let (id, len) = quanta.next().expect("drain tail is unbounded");
        cores[id].receive(tier);
        for &access in streams[id][cursors[id]..].iter().take(len) {
            drive(&mut cores[id], id, access, now);
            now += 1;
            cursors[id] += 1;
        }
        tier = cores[id].hand_back();
    }
    let mut l1 = [(CacheStats::default(), CacheStats::default()); 2];
    for (id, core) in cores.iter_mut().enumerate() {
        core.receive(tier);
        let (l1i, l1d, _) = core.stats();
        l1[id] = (l1i, l1d);
        tier = core.hand_back();
    }
    (l1, tier.l2_stats(), tier.far_stats())
}

fn stream() -> impl Strategy<Value = Vec<Access>> {
    proptest::collection::vec((any::<u16>(), any::<bool>()), 0..200)
}

fn schedule() -> impl Strategy<Value = Vec<(bool, u8)>> {
    proptest::collection::vec((any::<bool>(), any::<u8>()), 0..64)
}

/// Runs one stream alone through a fresh single-core system; returns its
/// (L1I, L1D, L2) counters.
fn run_solo(core_id: usize, stream: &[Access]) -> (CacheStats, CacheStats, CacheStats) {
    let mut core = CoreMemSys::single(MainMemory::new(), MemSpec::default());
    for (now, &access) in stream.iter().enumerate() {
        drive(&mut core, core_id, access, now as u64);
    }
    core.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// With set-disjoint L2 footprints, every interleaving granularity
    /// yields the same L2 counters, and the private L1 counters match a
    /// solo run of each stream (i.e. sibling traffic is invisible to them).
    #[test]
    fn counters_are_interleaving_invariant(
        (stream0, stream1) in (stream(), stream()),
        schedule_a in schedule(),
        schedule_b in schedule(),
    ) {
        let cfg = MemSpec::default();
        let streams = [stream0, stream1];
        let (l1_a, l2_a, _) = run_interleaved(cfg, &streams, &schedule_a);
        let (l1_b, l2_b, _) = run_interleaved(cfg, &streams, &schedule_b);
        prop_assert_eq!(l2_a, l2_b);
        prop_assert_eq!(l1_a, l1_b);
        let solo = [run_solo(0, &streams[0]), run_solo(1, &streams[1])];
        for (id, (l1i, l1d, _)) in solo.iter().enumerate() {
            prop_assert_eq!(l1_a[id], (*l1i, *l1d));
        }
        // Sanity: the shared L2 really saw both cores' misses.
        let (s0, s1) = (solo[0].2, solo[1].2);
        prop_assert_eq!(l2_a.accesses(), s0.accesses() + s1.accesses());
        prop_assert_eq!(l2_a.hits, s0.hits + s1.hits);
    }

    /// The far tier only reshapes *latency*: with it enabled, the L1/L2
    /// hit/miss counters stay interleaving-invariant and byte-identical to
    /// the near-memory-only hierarchy, every L2 miss becomes exactly one
    /// far access, and the MSHR bound holds.
    #[test]
    fn far_tier_never_perturbs_the_cache_counters(
        (stream0, stream1) in (stream(), stream()),
        schedule_a in schedule(),
        schedule_b in schedule(),
    ) {
        let spec = FarSpec::new(300, 4, 8);
        let cfg = MemSpec::figure4().with_far(spec);
        let streams = [stream0, stream1];
        let (l1_a, l2_a, far_a) = run_interleaved(cfg, &streams, &schedule_a);
        let (l1_b, l2_b, _) = run_interleaved(cfg, &streams, &schedule_b);
        prop_assert_eq!(l2_a, l2_b);
        prop_assert_eq!(l1_a, l1_b);

        let (l1_near, l2_near, far_near) =
            run_interleaved(MemSpec::figure4(), &streams, &schedule_a);
        prop_assert_eq!(far_near, None);
        prop_assert_eq!(l1_a, l1_near);
        prop_assert_eq!(l2_a, l2_near);

        let far = far_a.expect("far tier configured");
        prop_assert_eq!(far.accesses, l2_a.misses);
        prop_assert!(far.coalesced <= far.accesses);
        // The MSHR bound holds except for never-refuse overflow pushes,
        // each of which is counted.
        prop_assert!(far.peak_inflight <= spec.mshrs + far.overflow as usize);
        // The never-refuse ports queue rather than refuse.
        prop_assert_eq!(far.busy, 0);
    }
}
