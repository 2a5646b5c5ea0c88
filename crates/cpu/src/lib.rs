//! Core model for the BBB reproduction.
//!
//! The paper's machine has 8-wide out-of-order cores (ROB 192, LSQ 32,
//! store buffer 32). We model each core as a committed-instruction stream
//! interpreter with a post-commit [`StoreBuffer`]: loads and compute charge
//! their latencies at the point of commit, stores commit into the store
//! buffer and drain to the L1D in the background, and `clwb`/`sfence`
//! implement the strict-persistency baseline's flush-and-fence semantics.
//!
//! This deliberately trades absolute IPC fidelity for exactness in the
//! quantities the paper evaluates — persist traffic, store-buffer pressure,
//! and persistency stalls — which depend on the *committed store stream*,
//! not on speculative execution. The same core model runs under every
//! persistency mode, so every normalized comparison (BBB vs eADR vs PMEM)
//! sees identical instruction streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core_state;
pub mod op;
pub mod store_buffer;

pub use core_state::CoreState;
pub use op::Op;
pub use store_buffer::{reordered_behind, SbEntry, StoreBuffer};
