//! Simulation kernel for the BBB (Battery-Backed Buffers) reproduction.
//!
//! This crate holds the pieces every other crate in the workspace builds on:
//!
//! * [`Cycle`] arithmetic and the 2 GHz clock conversions used throughout the
//!   paper's configuration (ns ↔ cycles),
//! * the physical [`AddressMap`] splitting the flat address space into DRAM,
//!   NVMM, and the persistent heap,
//! * the [`SimConfig`] describing the simulated machine (paper Table III),
//! * a deterministic [`SplitMix64`] PRNG so runs are bit-reproducible,
//! * lightweight [`stats`] counters, and
//! * an ASCII [`table`] renderer the benchmark harness uses to print the
//!   paper's tables and figure series.
//!
//! # Examples
//!
//! ```
//! use bbb_sim::{SimConfig, AddressMap};
//!
//! let cfg = SimConfig::default();
//! assert_eq!(cfg.cores, 8);
//! let map = AddressMap::new(&cfg);
//! assert!(map.is_nvmm(map.persistent_base()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod clock;
pub mod config;
pub mod hash;
pub mod port;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod table;
pub mod trace;
pub mod zipf;

pub use addr::{Addr, AddressMap, BlockAddr, Region, BLOCK_BYTES, BLOCK_SHIFT};
pub use clock::{Cycle, CLOCK_GHZ};
pub use config::{BbpbConfig, CacheConfig, CoreConfig, DrainPolicy, MemTiming, SimConfig};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use port::MemoryPort;
pub use rng::SplitMix64;
pub use sched::{EventKind, SchedProfile};
pub use stats::{Counter, LatencyHistogram, Stats};
pub use table::Table;
pub use trace::{merge_logs, TraceEvent, TraceLog};
pub use zipf::ZipfSampler;

// Experiment points run off-thread in the experiment runner: the
// configuration crosses into workers and the stats snapshot crosses back.
// Both are plain owned data; keep that checked at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync + Clone>() {}
    assert_send_sync::<SimConfig>();
    assert_send_sync::<Stats>();
};
