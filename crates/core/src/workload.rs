//! The workload interface.
//!
//! Workloads run *execution-driven at operation granularity*: when a core
//! is ready for work, the system asks for the next high-level operation's
//! op sequence, generated against the functional architectural memory at
//! that simulation instant. Cores thus interleave operations in simulated-
//! time order, and the op payloads carry real bytes into the timing model.

use bbb_cpu::Op;
use bbb_mem::ByteStore;

/// A multi-threaded workload feeding the system simulator.
///
/// Implementations live in `bbb-workloads` (the paper's Table IV set); the
/// trait is defined here so the system can drive any workload without a
/// dependency cycle.
///
/// `Send` is a supertrait: experiment points run on worker threads in the
/// experiment runner, so a workload must be movable across threads. All
/// implementations are plain owned data (no `Rc`/`RefCell`), which this
/// bound now guarantees at compile time.
pub trait Workload: Send {
    /// Short name for reports (e.g. `"rtree"`).
    fn name(&self) -> &str;

    /// Builds the workload's initial state (e.g. the 1M-node structure the
    /// paper pre-populates) directly in architectural memory, before the
    /// measured window. The system mirrors `arch` into the backing media
    /// afterwards. Default: nothing to set up.
    fn setup(&mut self, arch: &mut ByteStore) {
        let _ = arch;
    }

    /// Produces the op sequence of `core`'s next high-level operation,
    /// computed against (and applied to) the architectural memory `arch`.
    /// Returns `None` when the core has no more work.
    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>>;
}

impl<W: Workload + ?Sized> Workload for &mut W {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        (**self).setup(arch);
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        (**self).next_batch(core, arch)
    }
}

impl Workload for Box<dyn Workload> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn setup(&mut self, arch: &mut ByteStore) {
        self.as_mut().setup(arch);
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        self.as_mut().next_batch(core, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial workload: each core stores an incrementing counter to its
    /// own slot `n` times.
    struct CounterWorkload {
        remaining: Vec<u32>,
        base: u64,
    }

    impl Workload for CounterWorkload {
        fn name(&self) -> &str {
            "counter"
        }

        fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
            if self.remaining[core] == 0 {
                return None;
            }
            self.remaining[core] -= 1;
            let slot = self.base + core as u64 * 8;
            let v = arch.read_u64(slot) + 1;
            arch.write_u64(slot, v);
            Some(vec![Op::load_u64(slot), Op::store_u64(slot, v)])
        }
    }

    #[test]
    fn workload_is_object_safe_and_drives_arch_memory() {
        let mut arch = ByteStore::new();
        let mut w: Box<dyn Workload> = Box::new(CounterWorkload {
            remaining: vec![2, 1],
            base: 0x1000,
        });
        assert_eq!(w.name(), "counter");
        assert!(w.next_batch(0, &mut arch).is_some());
        assert!(w.next_batch(0, &mut arch).is_some());
        assert!(w.next_batch(0, &mut arch).is_none());
        assert!(w.next_batch(1, &mut arch).is_some());
        assert_eq!(arch.read_u64(0x1000), 2);
        assert_eq!(arch.read_u64(0x1008), 1);
    }
}
