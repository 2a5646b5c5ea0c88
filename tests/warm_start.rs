//! The KV warm start builds its slot table page by page and mirrors arch
//! memory to media one whole page at a time. Both must be invisible: the
//! machine boots with the bytes a per-slot writer would have produced and
//! runs the identical simulated history.

use bbb::core::{PersistencyMode, StreamWorkload, System};
use bbb::mem::ByteStore;
use bbb::sim::{AddressMap, SimConfig};
use bbb::workloads::{KvLayout, KvMix, KvSpec, KvWorkload};

fn layout(cfg: &SimConfig) -> KvLayout {
    // An unaligned base puts slots on both sides of page boundaries; 3
    // tenants give partitions that are not powers of two.
    let base = AddressMap::new(cfg).persistent_base() + 64 * 37;
    KvLayout::new(base, 1000, 3, 256)
}

fn spec(mix: KvMix) -> KvSpec {
    KvSpec {
        keys: 1000,
        tenants: 3,
        zipf_s: 0.99,
        mix,
        per_core_requests: 64,
        seed: 0x5EED,
        instrument: false,
        epochs: false,
    }
}

/// The reference image: each initial key's tag, version and payload words
/// written in place, in logical key order.
fn per_slot_image(layout: &KvLayout) -> ByteStore {
    let mut store = ByteStore::new();
    for tenant in 0..layout.tenants {
        for idx in 0..layout.initial_per_tenant {
            let slot = layout.slot_addr(tenant, idx);
            store.write_u64(slot, layout.tag_of(tenant, idx));
            store.write_u64(slot + 8, 1);
            store.write_u64(slot + 16, layout.payload_of(tenant, idx, 1));
        }
    }
    store
}

#[test]
fn prepared_kv_media_equals_per_slot_image() {
    let cfg = SimConfig::small_for_tests();
    let layout = layout(&cfg);
    let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
    let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    sys.prepare_stream(&mut kv);

    let want = per_slot_image(&layout);
    assert!(sys.arch_mem() == &want, "arch memory differs");
    let image = sys.crash_image(false);
    assert_eq!(image.as_store().resident_pages(), want.resident_pages());
    assert!(image.as_store() == &want, "NVMM media differs");
}

#[test]
fn kv_a_stream_matches_batch_adapter() {
    let cfg = SimConfig::small_for_tests();
    let layout = layout(&cfg);

    let mut stream = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
    let mut stream_sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
    stream_sys.prepare_stream(&mut stream);
    stream_sys.run_stream(&mut stream, u64::MAX);

    let mut batch = StreamWorkload(KvWorkload::new(layout, spec(KvMix::A), cfg.cores));
    let mut batch_sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    batch_sys.prepare(&mut batch);
    batch_sys.run(&mut batch, u64::MAX);

    let stats = stream_sys.stats();
    assert!(stats.get("cores.stores") > 0, "mix A must write");
    assert_eq!(stats, batch_sys.stats());
}
