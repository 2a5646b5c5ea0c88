//! Persistent-memory workloads from the BBB paper (Table IV).
//!
//! Each workload maintains a recoverable data structure in the simulated
//! persistent heap and drives the system simulator with back-to-back
//! persisting stores — the paper designed them to exert *maximum pressure*
//! on the bbPB, so they do little computation between persists.
//!
//! | workload     | structure                          | paper row |
//! |--------------|------------------------------------|-----------|
//! | `rtree`      | spatial R-tree, random inserts     | rtree     |
//! | `ctree`      | crit-bit tree, random inserts      | ctree     |
//! | `hashmap`    | chained hashmap, random inserts    | hashmap   |
//! | `mutate[NC/C]` | random element mutation in array | mutate    |
//! | `swap[NC/C]` | random element swaps in array      | swap      |
//!
//! `NC`/`C` = non-conflicting (per-thread array regions) vs conflicting
//! (threads share the whole array).
//!
//! Every structure follows strict-persistency crash discipline: the store
//! that publishes an operation (head pointer, parent link, bucket head) is
//! the *last* store of the operation, so under BBB — where persist order
//! equals program order with no flushes — any crash leaves a consistent
//! prefix state. Per-structure checkers validate exactly that against a
//! post-crash [`bbb_mem::NvmImage`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrays;
pub mod btree;
pub mod builder;
pub mod ctree;
pub mod hashmap;
pub mod kv;
pub mod linkedlist;
pub mod locks;
pub mod palloc;
pub mod pstore_log;
#[cfg(test)]
mod queue_feed;
pub mod rtree;
pub mod suite;
pub mod wal;
mod walk;

pub use arrays::{ArrayOpKind, ArrayWorkload, Sharing};
pub use btree::BtreeWorkload;
pub use builder::OpBuilder;
pub use ctree::CtreeWorkload;
pub use hashmap::HashmapWorkload;
pub use kv::{check_kv_recovery, KvLayout, KvMix, KvSpec, KvWorkload, PageRun};
pub use linkedlist::LinkedList;
pub use locks::InsertLock;
pub use palloc::Palloc;
pub use pstore_log::{check_pstore_recovery, PstoreLogWorkload, SimBacking};
pub use rtree::RtreeWorkload;
pub use suite::{
    make_stream, make_workload, verify_recovery, verify_recovery_report, RecoveryOracle,
    RecoveryReport, WorkloadKind, WorkloadParams,
};
pub use wal::{check_wal_recovery, WalLayout, WalSpec, WalWorkload};

// The experiment runner executes workloads on worker threads; every
// workload (and the boxed form `make_workload` returns) must stay `Send`.
// No `Rc`/`RefCell` exist in this crate today — these assertions make that
// a compile-time guarantee rather than a convention.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ArrayWorkload>();
    assert_send::<BtreeWorkload>();
    assert_send::<CtreeWorkload>();
    assert_send::<HashmapWorkload>();
    assert_send::<PstoreLogWorkload>();
    assert_send::<RtreeWorkload>();
    assert_send::<suite::EpochWorkload<ArrayWorkload>>();
    assert_send::<Box<dyn bbb_core::Workload>>();
    assert_send::<KvWorkload>();
    assert_send::<WalWorkload>();
    assert_send::<Box<dyn bbb_core::OpStream>>();
    assert_send::<RecoveryOracle>();
};
