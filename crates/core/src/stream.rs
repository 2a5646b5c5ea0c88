//! The op feed: the one way ops reach the run loop.
//!
//! Every generator is a batch [`Workload`], one high-level operation's
//! ops per `next_batch`; wrappers such as the epoch barrier transform it
//! once for every workload. The run loop steps one op at a time through
//! an [`OpStream`], and [`Batched`] adapts the one to the other: a
//! core's queue holds at most the rest of its current operation, so
//! memory stays independent of how many ops a run executes.

use std::vec::IntoIter;

use bbb_cpu::Op;
use bbb_mem::ByteStore;

use crate::workload::Workload;

/// A multi-threaded op source that yields one op at a time.
///
/// `Send` is a supertrait for the same reason as on [`Workload`]:
/// experiment points run on worker threads.
pub trait OpStream: Send {
    /// Short name for reports (e.g. `"kv-a"`).
    fn name(&self) -> &str;

    /// Builds initial state directly in architectural memory before the
    /// measured window (mirrored into the media by
    /// [`System::prepare_stream`](crate::System::prepare_stream)).
    /// Default: nothing to set up.
    fn setup(&mut self, arch: &mut ByteStore) {
        let _ = arch;
    }

    /// The next op `core` should commit, generated against the
    /// architectural memory at this simulation instant. `None` ends the
    /// core's stream permanently.
    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op>;
}

impl OpStream for Box<dyn OpStream> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.as_mut().setup(arch);
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        self.as_mut().next_op(core, arch)
    }
}

/// Feeds a [`Workload`] to the run loop one op at a time: each core's
/// queue holds the ops of its current operation, and an empty queue pulls
/// the core's next batch. An empty batch pulls again at once; no other
/// core can run in between, because the core asking is the scheduler's
/// earliest event and stays so until it steps an op.
#[derive(Debug)]
pub struct Batched<W> {
    pub(crate) workload: W,
    pub(crate) queues: Vec<IntoIter<Op>>,
}

impl<W: Workload> Batched<W> {
    /// Feeds `workload` to a `cores`-core machine.
    pub fn new(workload: W, cores: usize) -> Self {
        let queues = vec![Vec::new().into_iter(); cores];
        Self { workload, queues }
    }
}

impl<W: Workload> OpStream for Batched<W> {
    fn name(&self) -> &str {
        self.workload.name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.workload.setup(arch);
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        loop {
            if let Some(op) = self.queues[core].next() {
                return Some(op);
            }
            self.queues[core] = self.workload.next_batch(core, arch)?.into_iter();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountStream {
        remaining: Vec<u32>,
        base: u64,
    }

    impl OpStream for CountStream {
        fn name(&self) -> &str {
            "count"
        }

        fn next_op(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Op> {
            if self.remaining[core] == 0 {
                return None;
            }
            self.remaining[core] -= 1;
            Some(Op::store_u64(self.base + core as u64 * 8, 7))
        }
    }

    /// Core 0: a two-op batch, an empty one, a one-op batch, then the end.
    struct Batches(Vec<Vec<Op>>);

    impl Workload for Batches {
        fn name(&self) -> &str {
            "batches"
        }

        fn next_batch(&mut self, core: usize, _arch: &mut ByteStore) -> Option<Vec<Op>> {
            (core == 0 && !self.0.is_empty()).then(|| self.0.remove(0))
        }
    }

    #[test]
    fn stream_is_object_safe_and_adapts_to_workload() {
        let mut arch = ByteStore::new();
        let mut s: Box<dyn OpStream> = Box::new(CountStream {
            remaining: vec![2, 1],
            base: 0x1000,
        });
        assert_eq!(s.name(), "count");
        assert!(s.next_op(0, &mut arch).is_some());

        let ops = [
            Op::Fence,
            Op::Compute { cycles: 1 },
            Op::Compute { cycles: 2 },
        ];
        let w = Batches(vec![ops[..2].to_vec(), vec![], ops[2..].to_vec()]);
        let mut b: Box<dyn OpStream> = Box::new(Batched::new(w, 2));
        assert_eq!(b.name(), "batches");
        for op in ops {
            assert_eq!(b.next_op(0, &mut arch), Some(op));
        }
        assert_eq!(b.next_op(0, &mut arch), None);
        assert_eq!(b.next_op(1, &mut arch), None);
    }
}
