//! Proves the streaming claim: op generation is O(live keys) memory,
//! *not* O(ops). A counting global allocator measures live heap bytes
//! while a million-key KV workload, pulled through the run loop's
//! `Batched` feed, emits ten million ops — the generation phase must not
//! allocate in proportion to the op count.
//!
//! (An integration test so the counting allocator — which needs `unsafe
//! impl GlobalAlloc` — stays outside the `#![forbid(unsafe_code)]` lib.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use bbb_core::{Batched, OpStream};
use bbb_mem::ByteStore;
use bbb_workloads::{KvLayout, KvMix, KvSpec, KvWorkload};

struct CountingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

#[test]
fn million_key_stream_allocates_o_keys_not_o_ops() {
    const KEYS: u64 = 1_000_000;
    const CORES: usize = 8;
    const TOTAL_OPS: u64 = 10_000_000;

    // Mix A over a million Zipfian keys; modest insert headroom (inserts
    // degrade to updates once it is spent, without allocating).
    let layout = KvLayout::new(0x1000, KEYS, 4, 4096);
    let spec = KvSpec {
        keys: KEYS,
        tenants: 4,
        zipf_s: 0.99,
        mix: KvMix::A,
        per_core_requests: u64::MAX / 16, // never runs dry in this test
        seed: 0xB0B,
        instrument: false,
    };

    let mut arch = ByteStore::new();
    let baseline = live_bytes();
    let mut kv = Batched::new(KvWorkload::new(layout, spec, CORES), CORES);
    kv.setup(&mut arch);
    let after_setup = live_bytes();

    // Setup footprint is O(keys): the backing slots (64 B/key in `arch`)
    // plus the sampler's alias table (12 B/rank) and per-core state.
    let setup_cost = after_setup - baseline;
    assert!(
        setup_cost < 200 * KEYS,
        "setup allocated {setup_cost} bytes for {KEYS} keys"
    );

    // Stream ten million ops. Live allocation must stay flat: the only
    // permitted growth is `arch` pages first touched by inserts, bounded
    // by the insert headroom — nothing proportional to TOTAL_OPS.
    let mut pulled = 0u64;
    'outer: loop {
        for core in 0..CORES {
            if kv.next_op(core, &mut arch).is_none() {
                panic!("stream ran dry");
            }
            pulled += 1;
            if pulled == TOTAL_OPS {
                break 'outer;
            }
        }
    }
    let growth = live_bytes().saturating_sub(after_setup);
    assert!(
        growth < 8 * 1024 * 1024,
        "streaming {TOTAL_OPS} ops grew live allocation by {growth} bytes"
    );
    assert!(growth < TOTAL_OPS / 100, "growth scales with op count");
}
