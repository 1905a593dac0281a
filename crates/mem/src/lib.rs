//! Memory substrate for the `aim-sim` simulator.
//!
//! This crate provides everything below the processor's memory-ordering
//! machinery:
//!
//! * [`MainMemory`] — a sparse, byte-addressable 64-bit memory holding the
//!   *committed* architectural state. Speculative store data never lands here;
//!   it lives in the store queue (LSQ backend) or the store forwarding cache
//!   (SFC backend) until retirement.
//! * [`Cache`] — a generic set-associative, LRU, tag-only cache model used for
//!   the L1 instruction, L1 data and unified L2 caches. Data always comes from
//!   [`MainMemory`]; the cache models *timing* (hits and misses), matching the
//!   methodology of the paper, whose caches supply latencies while retirement
//!   results are validated against an architectural trace.
//! * [`MemSpec`] — the canonical per-tier description of the whole memory
//!   system (cache geometries, latency ladder, optional far tier), threaded
//!   through the `SimConfig` builder and the wire `JobSpec` alike; its
//!   default is the L1I/L1D/L2 arrangement of the paper's Figure 4 with its
//!   10/100-cycle miss ladder.
//! * [`FarMemory`] — an optional high-latency far-memory tier behind the
//!   shared L2 (hundreds-of-cycles loads, MSHR-bounded in-flight misses,
//!   batched completion), enabled via [`MemSpec::far`].
//! * [`SharedMemSystem`] / [`CoreMemSys`] — the memory system the pipeline
//!   runs: private per-core L1s in front of one shared tier (the L2, the
//!   far tier and committed memory), walking one latency ladder. A core
//!   owns the tier by value while it runs; a multi-core machine lends it
//!   to each core in turn.
//! * [`StoreFifo`] — the paper's non-associative store FIFO: "a store enters
//!   the non-associative store FIFO at dispatch, writes its data and address
//!   to the FIFO during execution, and exits the FIFO at retirement" (Fig. 1).
//!
//! # Examples
//!
//! ```
//! use aim_mem::MainMemory;
//! use aim_types::{AccessSize, Addr, MemAccess};
//!
//! let mut mem = MainMemory::new();
//! let acc = MemAccess::new(Addr(0x1000), AccessSize::Word).unwrap();
//! mem.write(acc, 0xdead_beef);
//! assert_eq!(mem.read(acc), 0xdead_beef);
//! ```

mod cache;
mod far;
mod hierarchy;
mod memory;
mod shared;
mod store_fifo;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use far::{FarMemory, FarSpec, FarStats};
pub use hierarchy::{MemLevel, MemSpec};
pub use memory::MainMemory;
pub use shared::{CoreMemSys, SharedMemSystem};
pub use store_fifo::{StoreFifo, StoreFifoEntry};
