//! Component microbenchmarks: the bbPB, cache-hierarchy and WPQ loops of
//! `crates/bench/benches/components.rs`, reported as per-layer metrics.
//!
//! Each loop runs one unmeasured batch, then [`BATCHES`] measured batches;
//! the metric is the median batch's ns per iteration.

use std::hint::black_box;

use bbb_cache::{CacheHierarchy, NullHooks};
use bbb_core::Bbpb;
use bbb_mem::NvmmController;
use bbb_sim::{AddressMap, BbpbConfig, BlockAddr, MemTiming, MemoryPort, SimConfig};

use crate::clock::{now, secs_since};
use crate::metrics::Metric;
use crate::summary::Summary;

const ITERS: u32 = 10_000;
const BATCHES: usize = 21;

fn ns_per_iter(name: &str, mut f: impl FnMut()) -> Metric {
    for _ in 0..ITERS {
        f();
    }
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = now();
            for _ in 0..ITERS {
                f();
            }
            secs_since(t) * 1e9 / f64::from(ITERS)
        })
        .collect();
    Metric::one(name, "ns", Summary::of(&batches).median)
}

/// Two fresh blocks and one coalescing store per iteration, like a
/// structure op.
fn bbpb_allocate() -> Metric {
    let mut nvmm = NvmmController::new(MemTiming::default());
    let mut pb = Bbpb::new(&BbpbConfig::default());
    let mut i = 0u64;
    ns_per_iter("bbpb.allocate_ns", || {
        let t = i * 10;
        pb.allocate(t, BlockAddr::from_index(i % 4096), [1; 64], &mut nvmm);
        pb.allocate(
            t + 1,
            BlockAddr::from_index(4096 + i % 64),
            [2; 64],
            &mut nvmm,
        );
        pb.allocate(t + 2, BlockAddr::from_index(i % 4096), [3; 64], &mut nvmm);
        i += 1;
        black_box(&pb);
    })
}

/// MESI write ping-pong between two cores over 512 blocks.
fn cache_write() -> Metric {
    let cfg = SimConfig::default();
    let mut h = CacheHierarchy::new(&cfg);
    let mut mem = NvmmController::new(MemTiming::default());
    let mut hooks = NullHooks;
    let base = BlockAddr::containing(AddressMap::new(&cfg).persistent_base());
    let mut t = 0u64;
    ns_per_iter("cache.write_ns", || {
        let core = (t % 2) as usize;
        let block = BlockAddr::from_index(base.index() + t % 512);
        h.write(t * 20, core, block, 0, &[t as u8], &mut mem, &mut hooks);
        t += 1;
        black_box(&h);
    })
}

/// Block writes through the NVMM controller's write-pending queue.
fn wpq_write_block() -> Metric {
    let mut n = NvmmController::new(MemTiming::default());
    let mut t = 0u64;
    ns_per_iter("wpq.write_block_ns", || {
        let out = MemoryPort::write_block(
            &mut n,
            t * 4,
            BlockAddr::from_index(t % 8192),
            [t as u8; 64],
        );
        t += 1;
        black_box(out);
    })
}

/// Runs every microbenchmark.
#[must_use]
pub fn run() -> Vec<Metric> {
    vec![bbpb_allocate(), cache_write(), wpq_write_block()]
}
