//! # tlpsim-mem — memory hierarchy substrate
//!
//! The memory system used by the multi-core simulator reproducing
//! *"The Benefit of SMT in the Multi-Core Era"* (ASPLOS 2014):
//!
//! * per-core private caches: L1 I-cache, L1 D-cache and a unified L2,
//!   sized per core type (Table 1 of the paper),
//! * a shared last-level cache (8 MB, 16-way) reached over a full
//!   crossbar (the paper's choice, so results are not skewed against
//!   many-core configurations),
//! * DRAM with 8 banks and a 45 ns access time,
//! * a bandwidth-limited off-chip bus (8 GB/s by default, 16 GB/s for
//!   the Section 8.2 experiment) with queueing.
//!
//! Everything is modeled structurally: real tag arrays with LRU
//! replacement, real bank/bus next-free times, and MSHR-style merging of
//! requests to in-flight lines. Timing is expressed in *core cycles*;
//! DRAM/bus parameters are given in wall-clock units and converted using
//! the configured core frequency, so the higher-frequency design points
//! of Section 8.1 see proportionally longer memory latencies in cycles.
//!
//! # Example
//!
//! ```
//! use tlpsim_mem::{MemoryConfig, MemorySystem, AccessKind, Addr};
//!
//! let cfg = MemoryConfig::big_core_chip(4);
//! let mut mem = MemorySystem::new(&cfg);
//! let r = mem.access(0, AccessKind::Load, Addr(0x1_0000), 0);
//! assert!(r.complete_at > 0); // a cold miss goes all the way to DRAM
//! ```

mod addr;
mod bus;
mod cache;
mod dram;
mod hash;
mod hierarchy;
mod snap;
mod stats;
mod warm;

pub use addr::{Addr, LineAddr, LINE_BYTES};
pub use bus::{Bus, BusConfig};
pub use cache::{AccessOutcome, Cache, CacheConfig};
pub use dram::{Dram, DramConfig};
pub use hash::{fnv1a64, FastBuildHasher, FastHasher, FastMap};
pub use hierarchy::{
    AccessKind, AccessResult, HitLevel, MemoryConfig, MemorySystem, PrivateCacheConfig,
};
pub use snap::{snap_ensure, snap_mismatch, SnapError, SnapReader, SnapWriter};
pub use stats::{CoreMemStats, MemCounters, MemStats};
pub use warm::LineRun;

/// A point in simulated time, measured in core clock cycles.
pub type Cycle = u64;

/// Identifies a core within the simulated chip.
pub type CoreId = usize;
