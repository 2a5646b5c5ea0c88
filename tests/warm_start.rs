//! The KV warm start builds its slot table page by page and shares each
//! arch page with media instead of copying it. Both must be invisible:
//! the machine boots with the bytes a per-slot writer would have produced
//! and runs the identical simulated history, and a store that arch has
//! committed reaches media only when it is written back.

use bbb::core::{Batched, Op, PersistencyMode, System};
use bbb::mem::{ByteStore, NvmImage};
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
    sys.prepare(&mut kv);

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

    let kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
    let mut stream = Batched::new(kv, cfg.cores);
    let mut stream_sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
    stream_sys.prepare_stream(&mut stream);
    stream_sys.run_stream(&mut stream, u64::MAX);

    let mut batch = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
    let mut batch_sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
    batch_sys.prepare(&mut batch);
    batch_sys.run(&mut batch, u64::MAX);

    let stats = stream_sys.stats();
    assert!(stats.get("cores.stores") > 0, "mix A must write");
    assert_eq!(stats, batch_sys.stats());
}

/// A slot's payload word that the warm start preloads.
fn preloaded_payload(layout: &KvLayout) -> (u64, u64) {
    let addr = layout.slot_addr(1, 2) + 16;
    (addr, layout.payload_of(1, 2, 1))
}

#[test]
fn committed_store_on_a_shared_page_stays_out_of_media() {
    let cfg = SimConfig::small_for_tests();
    let layout = layout(&cfg);
    let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
    let mut sys = System::new(cfg, PersistencyMode::Pmem).unwrap();
    sys.prepare(&mut kv);

    let (addr, old) = preloaded_payload(&layout);
    assert_eq!(sys.crash_image(false).read_u64(addr), old);
    sys.run_single_core(0, vec![Op::store_u64(addr, !old)])
        .unwrap();
    assert_eq!(sys.arch_mem().read_u64(addr), !old, "committed to arch");
    let image = sys.crash_image(false);
    assert_eq!(image.read_u64(addr), old, "not yet written back");
    let (_, media_copies) = sys.media_cow_stats();
    assert_eq!(media_copies, 0, "arch copied the page, not media");
}

#[test]
fn kv_a_run_makes_no_media_copy_on_write() {
    let cfg = SimConfig::small_for_tests();
    let layout = layout(&cfg);
    for mode in PersistencyMode::ALL {
        let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
        let mut sys = System::new(cfg.clone(), mode).unwrap();
        sys.prepare(&mut kv);
        sys.run(&mut kv, u64::MAX);
        sys.drain_all_store_buffers();
        let stats = sys.stats();
        assert!(
            stats.get("nvmm.writes") > 0,
            "{mode:?}: media must be written"
        );
        assert_eq!(stats.get("nvmm.cow_page_copies"), 0, "{mode:?}");
    }
}

#[test]
fn adopted_image_is_shared_until_a_store_is_written_back() {
    let cfg = SimConfig::small_for_tests();
    let base = AddressMap::new(&cfg).persistent_base();
    let mut store = ByteStore::new();
    for page in 0..4u64 {
        store.write_u64(base + page * 4096 + 8 * page, 0xA0 + page);
    }
    let image = NvmImage::from_store(store);
    let mut sys = System::new(cfg, PersistencyMode::Pmem).unwrap();
    sys.adopt_image(&image);
    assert!(sys.arch_mem() == image.as_store(), "arch differs");
    assert!(sys.crash_image(false) == image, "media differs");

    let addr = base + 4096 + 8;
    sys.run_single_core(0, vec![Op::store_u64(addr, 7)])
        .unwrap();
    assert_eq!(sys.arch_mem().read_u64(addr), 7);
    assert_eq!(image.read_u64(addr), 0xA1, "the image is never written");
    assert_eq!(
        sys.crash_image(false).read_u64(addr),
        0xA1,
        "not written back"
    );

    sys.run_single_core(0, vec![Op::Clwb { addr }, Op::Fence])
        .unwrap();
    assert_eq!(sys.crash_image(false).read_u64(addr), 7, "written back");
    assert_eq!(image.read_u64(addr), 0xA1);
}
