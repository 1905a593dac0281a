//! Property tests: memory round-trips, cache LRU behaviour and the whole
//! near-memory system against reference models.
//!
//! The memory-system model ([`ModelMem`]) is written independently of the
//! crate: per-set recency lists for each cache, composed with the latency
//! ladder. `CoreMemSys` must agree with it on the serving level and
//! latency of every access and on every counter, for one core and for two
//! cores handing the shared tier over at random quanta. The far tier
//! stays outside the model; its own unit tests and `interleave.rs` cover
//! it.

use aim_mem::{
    Cache, CacheConfig, CacheStats, CoreMemSys, MainMemory, MemLevel, MemSpec, SharedMemSystem,
};
use aim_types::{AccessSize, Addr, MemAccess};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// A true-LRU, set-associative tag store: per set, the resident line
/// numbers in recency order (most recent at the back).
struct ModelCache {
    cfg: CacheConfig,
    sets: Vec<Vec<u64>>,
    stats: CacheStats,
}

impl ModelCache {
    fn new(cfg: CacheConfig) -> ModelCache {
        ModelCache {
            cfg,
            sets: vec![Vec::new(); cfg.sets()],
            stats: CacheStats::default(),
        }
    }

    /// Accesses `addr`: `true` on a hit; a miss fills the line, evicting
    /// the least recently used one when the set is full.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.cfg.line_bytes() as u64;
        let resident = &mut self.sets[line as usize % self.cfg.sets()];
        let hit = match resident.iter().position(|&l| l == line) {
            Some(pos) => {
                resident.remove(pos);
                true
            }
            None => {
                if resident.len() == self.cfg.ways() {
                    resident.remove(0);
                }
                false
            }
        };
        resident.push(line);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }
}

/// The near-memory system: a private L1I/L1D pair per core in front of one
/// shared L2, walking the spec's latency ladder.
struct ModelMem {
    spec: MemSpec,
    l1: Vec<[ModelCache; 2]>,
    l2: ModelCache,
}

impl ModelMem {
    fn new(spec: MemSpec, cores: usize) -> ModelMem {
        ModelMem {
            spec,
            l1: (0..cores)
                .map(|_| [ModelCache::new(spec.l1i), ModelCache::new(spec.l1d)])
                .collect(),
            l2: ModelCache::new(spec.l2),
        }
    }

    fn access(&mut self, core: usize, instr: bool, addr: u64) -> (MemLevel, u64) {
        let s = self.spec;
        if self.l1[core][usize::from(!instr)].access(addr) {
            (MemLevel::L1, s.l1_hit_cycles)
        } else if self.l2.access(addr) {
            (MemLevel::L2, s.l1_hit_cycles + s.l1_miss_cycles)
        } else {
            let latency = s.l1_hit_cycles + s.l1_miss_cycles + s.l2_miss_cycles;
            (MemLevel::Memory, latency)
        }
    }

    /// The (L1I, L1D, L2) counters `CoreMemSys::stats` reports for `core`.
    fn stats(&self, core: usize) -> (CacheStats, CacheStats, CacheStats) {
        let [l1i, l1d] = &self.l1[core];
        (l1i.stats, l1d.stats, self.l2.stats)
    }
}

/// One access: an address and whether it goes through the instruction
/// port.
type Access = (u64, bool);

/// Issues `access` to `core` at cycle `now` through the port it names.
fn drive(core: &mut CoreMemSys, (addr, instr): Access, now: u64) -> (MemLevel, u64) {
    if instr {
        core.access_instr_at(Addr(addr), now)
    } else {
        core.access_data_at(Addr(addr), now)
    }
}

/// A cache geometry of 1–16 sets, 1–4 ways and 16–128 B lines.
fn geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..5, 1usize..5, 4u32..8).prop_map(|(sets, ways, line)| {
        let (sets, line) = (1usize << sets, 1usize << line);
        CacheConfig::new(sets * ways * line, ways, line)
    })
}

/// The paper's Figure 4 system, or random small geometries and latencies.
fn spec() -> impl Strategy<Value = MemSpec> {
    let caches = (geometry(), geometry(), geometry());
    let ladder = (0u64..8, 0u64..40, 0u64..200);
    let random = (caches, ladder).prop_map(|((l1i, l1d, l2), (hit, miss, l2_miss))| MemSpec {
        l1i,
        l1d,
        l2,
        l1_hit_cycles: hit,
        l1_miss_cycles: miss,
        l2_miss_cycles: l2_miss,
        far: None,
    });
    prop_oneof![Just(MemSpec::default()), random]
}

/// Addresses with reuse at every level under either kind of spec: a small
/// region, and 64 KiB-strided lines that share one set of every default
/// cache (so the default L2 evicts too).
fn stream() -> impl Strategy<Value = Vec<Access>> {
    let addr = prop_oneof![0u64..0x2000, (0u64..24).prop_map(|k| k << 16)];
    proptest::collection::vec((addr, any::<bool>()), 0..300)
}

/// A start address in one of four places: the first page, the 32 bytes
/// around the boundary between pages 0 and 1, the top 32 bytes of the
/// address space, or anywhere.
fn start() -> impl Strategy<Value = u64> {
    let window = prop_oneof![
        Just(0u64),
        Just(0x1000 - 16),
        Just(0xFFFF_FFFF_FFFF_FFE0),
        any::<u64>(),
    ];
    (window, 0u64..32).prop_map(|(base, off)| base.wrapping_add(off))
}

/// An access of any size at an aligned address near [`start`].
fn access() -> impl Strategy<Value = MemAccess> {
    (start(), 0usize..4).prop_map(|(addr, size)| {
        let size = AccessSize::ALL[size];
        MemAccess::new(Addr(addr - addr % size.bytes()), size).expect("aligned")
    })
}

/// What a memory should hold, one byte at a time: the written bytes and
/// the pages the writes touched.
#[derive(Default)]
struct ByteMap {
    bytes: BTreeMap<u64, u8>,
    pages: BTreeSet<u64>,
}

impl ByteMap {
    fn write(&mut self, addr: u64, value: u8) {
        self.bytes.insert(addr, value);
        self.pages.insert(addr >> 12);
    }

    fn read(&self, addr: u64) -> u8 {
        self.bytes.get(&addr).copied().unwrap_or(0)
    }

    /// Checks every read path, the page count and the non-zero byte list
    /// of `mem` against the map.
    fn check(&self, mem: &MainMemory) -> Result<(), TestCaseError> {
        for &addr in self.bytes.keys() {
            prop_assert_eq!(
                mem.read_byte(Addr(addr)),
                self.read(addr),
                "byte {:#x}",
                addr
            );
        }
        prop_assert_eq!(mem.allocated_pages(), self.pages.len());
        let nonzero: Vec<(u64, u8)> = self
            .bytes
            .iter()
            .filter(|&(_, &b)| b != 0)
            .map(|(&a, &b)| (a, b))
            .collect();
        prop_assert_eq!(mem.nonzero_bytes(), nonzero);
        Ok(())
    }
}

/// One memory operation: a sized read, a sized write, or a one-byte write
/// through `write_byte`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(MemAccess),
    Write(MemAccess, u64),
    WriteByte(Addr, u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        access().prop_map(Op::Read),
        (access(), any::<u64>()).prop_map(|(a, v)| Op::Write(a, v)),
        (start(), any::<u8>()).prop_map(|(a, v)| Op::WriteByte(Addr(a), v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// MainMemory behaves as a sparse byte map under mixed reads and
    /// writes of every size, at both neighbours of a page boundary and in
    /// the top page; reads allocate nothing.
    #[test]
    fn memory_matches_byte_map(ops in proptest::collection::vec(op(), 0..200)) {
        let mut mem = MainMemory::new();
        let mut reference = ByteMap::default();
        for op in ops {
            match op {
                Op::Read(access) => {
                    let bytes = access.size().bytes();
                    let expect = (0..bytes).fold(0u64, |v, k| {
                        v | u64::from(reference.read(access.addr().0 + k)) << (8 * k)
                    });
                    prop_assert_eq!(mem.read(access), expect, "read {}", access);
                    for k in 0..bytes {
                        let addr = access.addr().0 + k;
                        prop_assert_eq!(mem.read_byte(Addr(addr)), reference.read(addr));
                    }
                }
                Op::Write(access, value) => {
                    mem.write(access, value);
                    for k in 0..access.size().bytes() {
                        reference.write(access.addr().0 + k, (value >> (8 * k)) as u8);
                    }
                }
                Op::WriteByte(addr, value) => {
                    mem.write_byte(addr, value);
                    reference.write(addr.0, value);
                }
            }
            prop_assert_eq!(mem.allocated_pages(), reference.pages.len());
        }
        reference.check(&mem)?;
    }

    /// A block copy of up to three pages matches the byte map, whether it
    /// crosses a page boundary or wraps from the top page to page 0.
    #[test]
    fn write_bytes_matches_byte_map(
        addr in start(),
        bytes in proptest::collection::vec(any::<u8>(), 0..9000),
    ) {
        let mut mem = MainMemory::new();
        let mut reference = ByteMap::default();
        mem.write_bytes(Addr(addr), &bytes);
        for (i, &b) in (0u64..).zip(&bytes) {
            reference.write(addr.wrapping_add(i), b);
        }
        prop_assert_eq!(mem.read_bytes(Addr(addr), bytes.len()), bytes);
        reference.check(&mem)?;
    }

    /// Multi-byte reads assemble little-endian from the byte map.
    #[test]
    fn multibyte_reads_are_little_endian(base in 0u64..0x1000, value in any::<u64>()) {
        let mut mem = MainMemory::new();
        let acc = MemAccess::new(Addr(base * 8), AccessSize::Double).unwrap();
        mem.write(acc, value);
        for k in 0..8u64 {
            prop_assert_eq!(mem.read_byte(Addr(base * 8 + k)), (value >> (8 * k)) as u8);
        }
        let half = MemAccess::new(Addr(base * 8 + 4), AccessSize::Word).unwrap();
        prop_assert_eq!(mem.read(half), value >> 32);
    }

    /// The cache agrees with a reference true-LRU model on every access.
    #[test]
    fn cache_matches_reference_lru(accesses in proptest::collection::vec(0u64..4096, 1..300)) {
        let cfg = CacheConfig::new(512, 2, 32); // 8 sets, 2 ways, 32 B lines
        let mut cache = Cache::new(cfg);
        let mut model = ModelCache::new(cfg);
        for addr in accesses {
            prop_assert_eq!(cache.access(Addr(addr)), model.access(addr), "addr {:#x}", addr);
        }
        prop_assert_eq!(cache.stats(), model.stats);
    }

    /// One core agrees with the model on every access and every counter.
    #[test]
    fn one_core_matches_the_model(spec in spec(), accesses in stream()) {
        let mut core = CoreMemSys::single(MainMemory::new(), spec);
        let mut model = ModelMem::new(spec, 1);
        for (now, &access) in accesses.iter().enumerate() {
            let (addr, instr) = access;
            prop_assert_eq!(
                drive(&mut core, access, now as u64),
                model.access(0, instr, addr),
                "access {} ({:#x}, instr {})", now, addr, instr
            );
        }
        prop_assert_eq!(core.stats(), model.stats(0));
    }

    /// Two cores that hand the shared tier over at random quanta agree
    /// with the model (private L1s, one L2) on every access, and each
    /// core's counters match it at the end.
    #[test]
    fn two_cores_handing_the_tier_over_match_the_model(
        spec in spec(),
        streams in (stream(), stream()),
        quanta in proptest::collection::vec((any::<bool>(), 1usize..40), 0..40),
    ) {
        let streams = [streams.0, streams.1];
        let mut cores = [CoreMemSys::detached(spec), CoreMemSys::detached(spec)];
        let mut tier = Some(SharedMemSystem::new(MainMemory::new(), spec));
        let mut model = ModelMem::new(spec, 2);
        let mut cursors = [0usize; 2];
        let mut now = 0u64;
        // The drawn quanta, then each core's leftovers.
        let quanta = quanta
            .into_iter()
            .map(|(pick, len)| (usize::from(pick), len))
            .chain([(0, usize::MAX), (1, usize::MAX)]);
        for (id, len) in quanta {
            cores[id].receive(tier.take().expect("the tier is home between quanta"));
            for &access in streams[id][cursors[id]..].iter().take(len) {
                let (addr, instr) = access;
                prop_assert_eq!(
                    drive(&mut cores[id], access, now),
                    model.access(id, instr, addr),
                    "core {} access {} ({:#x}, instr {})", id, cursors[id], addr, instr
                );
                cursors[id] += 1;
                now += 1;
            }
            tier = Some(cores[id].hand_back());
        }
        for (id, core) in cores.iter_mut().enumerate() {
            core.receive(tier.take().expect("the tier is home"));
            prop_assert_eq!(core.stats(), model.stats(id));
            tier = Some(core.hand_back());
        }
    }
}

#[test]
fn hierarchy_commit_path_counts_like_loads() {
    let mut core = CoreMemSys::single(MainMemory::new(), MemSpec::default());
    // A store commit and a later load to the same line share residency.
    let store = MemAccess::new(Addr(0x7000), AccessSize::Double).unwrap();
    let (lv, _) = core.commit_store(store, 1, 0);
    assert_eq!(lv, MemLevel::Memory);
    assert_eq!(core.access_data_at(Addr(0x7008), 1), (MemLevel::L1, 1));
    let (_, l1d, l2) = core.stats();
    assert_eq!((l1d.hits, l1d.misses, l2.misses), (1, 1, 1));
}

#[test]
fn hierarchy_latencies_compose_from_config() {
    let cfg = MemSpec {
        l1_hit_cycles: 2,
        l1_miss_cycles: 7,
        l2_miss_cycles: 50,
        ..MemSpec::default()
    };
    let mut core = CoreMemSys::single(MainMemory::new(), cfg);
    assert_eq!(core.access_data_at(Addr(0), 0), (MemLevel::Memory, 59));
    assert_eq!(core.access_data_at(Addr(0), 1), (MemLevel::L1, 2));
    // 0x40 shares the 128 B L2 line but not the 64 B L1D line.
    assert_eq!(core.access_data_at(Addr(0x40), 2), (MemLevel::L2, 9));
}
