//! **Battery-Backed Buffers (BBB)** — the paper's contribution.
//!
//! This crate implements the persistence machinery of *BBB: Simplifying
//! Persistent Programming using Battery-Backed Buffers* (HPCA 2021) on top
//! of the `bbb-cache`/`bbb-cpu`/`bbb-mem` substrates:
//!
//! * One persist-buffer core (the crate-private `buffer` module) holds
//!   capacity, the admission rule, watermark draining (§III-F), in-flight
//!   drains, crash discard and counters for both organizations below; each
//!   supplies only an entry table that says what an entry is, which
//!   entries coalesce and which drains next.
//! * [`Bbpb`] — the memory-side battery-backed persist buffer: one per
//!   core, next to the L1D, over 64-byte block entries. A persisting
//!   store is allocated (or coalesced into) an entry in the same cycle it
//!   writes the L1D, making the store visible and durable simultaneously
//!   — strict persistency with no flushes or fences.
//! * [`ProcSidePb`] — the processor-side alternative the paper evaluates
//!   and rejects, over ordered store records: little coalescing, ~2.8×
//!   more NVMM writes.
//! * [`PersistencyMode`] — the four machines compared throughout the
//!   evaluation: ADR + software flushes (`Pmem`), `Eadr`, and the two BBB
//!   organizations.
//! * [`System`] — the full machine: cores, store buffers, caches, bbPBs,
//!   and the hybrid DRAM/NVMM memory, with crash injection
//!   ([`System::crash_now`]) that drains exactly the active persistence
//!   domain and returns the post-crash NVMM image.
//!
//! # Examples
//!
//! ```
//! use bbb_core::{PersistencyMode, System};
//! use bbb_cpu::Op;
//! use bbb_sim::SimConfig;
//!
//! let mut sys = System::new(SimConfig::small_for_tests(), PersistencyMode::BbbMemorySide)?;
//! let a = sys.address_map().persistent_base();
//! sys.run_single_core(0, vec![Op::store_u64(a, 7), Op::store_u64(a + 8, 9)])?;
//! let image = sys.crash_now();
//! assert_eq!(image.read_u64(a), 7);
//! assert_eq!(image.read_u64(a + 8), 9);
//! # Ok::<(), bbb_core::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbpb;
mod buffer;
pub mod crash;
mod latency;
pub mod litmus;
pub mod memories;
pub mod mode;
pub mod persist;
pub mod procside;
pub mod stream;
pub mod system;
pub mod workload;

// Re-exported so downstream crates can implement [`Workload`] (whose
// methods take `Op` batches and the architectural `ByteStore`) without
// depending on the component crates directly.
pub use bbb_cpu::Op;
pub use bbb_mem::{ByteStore, NvmImage, PAGE_BYTES};
pub use bbpb::Bbpb;
pub use buffer::AllocOutcome;
pub use crash::CrashCost;
pub use litmus::ScheduledOps;
pub use memories::Memories;
pub use mode::PersistencyMode;
pub use persist::PersistState;
pub use procside::ProcSidePb;
pub use stream::{OpStream, StreamWorkload};
pub use system::{EventProbe, ProbeKind, RunCursor, RunSummary, StopAt, System, SystemError};
pub use workload::Workload;
