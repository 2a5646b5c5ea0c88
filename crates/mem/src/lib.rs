//! Memory substrate for the BBB reproduction.
//!
//! Models the hybrid main memory of the paper's machine (Fig. 4): a DRAM
//! controller and an NVMM controller, each with its own channels, plus the
//! NVMM controller's **write-pending queue (WPQ)** — the ADR persistence
//! domain of the baseline system. A write to NVMM becomes *persistent* the
//! cycle it is accepted into the WPQ; the battery guarantees the WPQ drains
//! to media on power failure.
//!
//! Timing is resolved analytically: submitting a request returns its
//! completion cycle given current channel occupancy, so the cycle-stepped
//! system simulator never has to tick the memory system.
//!
//! # Examples
//!
//! ```
//! use bbb_mem::NvmmController;
//! use bbb_sim::{BlockAddr, MemTiming};
//!
//! let mut nvmm = NvmmController::new(MemTiming::default());
//! let block = BlockAddr::from_index(7);
//! let outcome = nvmm.write(0, block, [0xAB; 64]);
//! assert_eq!(outcome.persist, 0); // WPQ had space: persistent immediately
//! let image = nvmm.crash_image();
//! assert_eq!(image.read_block(block)[0], 0xAB);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backing;
pub mod changes;
pub mod controller;
pub mod endurance;
pub mod image;
pub mod sched;
pub mod wpq;

pub use backing::{ByteStore, PAGE_BYTES};
pub use changes::{Change, ChangeLog, LogMark};
pub use controller::{DramController, NvmmController, WriteOutcome};
pub use endurance::EnduranceTracker;
pub use image::{ImageBasis, ImageBuild, ImageId, ImageReader, NvmImage, PageWrites, PinnedPage};
pub use sched::ChannelScheduler;
pub use wpq::WritePendingQueue;
