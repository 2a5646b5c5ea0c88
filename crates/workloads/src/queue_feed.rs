//! A test-only op feed written independently of [`bbb_core::Batched`]:
//! each core pulls whole batches into its own queue and pops them one op
//! at a time. `System::run` feeds a workload through `Batched`, so
//! running the same workload through this feed with `run_stream` checks
//! the adapter against a second implementation instead of against itself.

use std::collections::VecDeque;

use bbb_core::{Op, OpStream, Workload};
use bbb_mem::ByteStore;

/// Feeds a [`Workload`] through per-core `VecDeque`s.
pub(crate) struct QueueFeed<W> {
    workload: W,
    queues: Vec<VecDeque<Op>>,
}

impl<W: Workload> QueueFeed<W> {
    pub(crate) fn new(workload: W, cores: usize) -> Self {
        Self {
            workload,
            queues: vec![VecDeque::new(); cores],
        }
    }
}

impl<W: Workload> OpStream for QueueFeed<W> {
    fn name(&self) -> &str {
        self.workload.name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.workload.setup(arch);
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        while self.queues[core].is_empty() {
            let batch = self.workload.next_batch(core, arch)?;
            self.queues[core].extend(batch);
        }
        self.queues[core].pop_front()
    }
}
