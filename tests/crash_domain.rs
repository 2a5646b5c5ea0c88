//! Pinned destructive-crash behaviour: for every persistency mode, both
//! battery states and both store-buffer battery configurations, the crash
//! image, the events the crash emits and the machine's statistics after
//! it must stay byte-identical.
//!
//! The machine is caught mid-flight on two cores: both store buffers hold
//! entries (persistent and DRAM), the persist buffers (or eADR's dirty
//! lines) hold older stores, and the two store buffers race on one
//! persistent word — core 1 commits first, core 0 commits later, so the
//! crash must resolve the conflict in commit order, not core order.
//!
//! Goldens live in `tests/golden/crash_domain_<mode>.txt`; run with
//! `BBB_REGEN_GOLDEN=1` to rewrite them after an intended change.

use std::fmt::Write as _;
use std::path::PathBuf;

use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::mem::NvmImage;
use bbb::sim::SimConfig;

/// FNV-1a over every materialized page (address, then bytes), in
/// ascending address order.
fn image_digest(image: &NvmImage) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut absorb = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (base, page) in image.as_store().iter_pages() {
        absorb(&base.to_le_bytes());
        absorb(page);
    }
    h
}

/// A two-core machine stopped with every crash-relevant structure
/// occupied. Tracing is on; the pre-crash events are already taken.
fn mid_flight(mode: PersistencyMode, battery_backed_sb: bool) -> System {
    let mut cfg = SimConfig::small_for_tests();
    cfg.battery_backed_sb = battery_backed_sb;
    let mut s = System::new(cfg, mode).expect("valid config");
    s.set_tracing(true);
    let p = s.address_map().persistent_base();

    // Interleaved persisting stores, each core on its own lines: these
    // reach the caches and the persist buffers.
    for i in 0..5u64 {
        s.step_op(0, &Op::store_u64(p + i * 64, 0x1000 + i));
        s.step_op(1, &Op::store_u64(p + 0x800 + i * 64 + 8, 0x2000 + i));
    }
    // One flushed line (PMEM's discipline) and an epoch barrier (BEP's).
    s.step_op(0, &Op::Clwb { addr: p });
    s.step_op(0, &Op::Fence);
    s.step_op(0, &Op::Compute { cycles: 3000 });
    s.step_op(1, &Op::Compute { cycles: 3000 });

    // Stores left in the store buffers: each core's first store here
    // misses to NVMM and keeps its drain engine busy, so the rest stay
    // buffered. Core 1 commits to the shared word first, core 0 later;
    // core 1 also rewrites a line its persist buffer already holds.
    s.step_op(1, &Op::store_u64(p + 0x1800, 0x3000));
    s.step_op(1, &Op::store_u64(0x40, 7));
    s.step_op(1, &Op::store_u64(p + 0x800 + 8, 0x2FFF));
    s.step_op(1, &Op::store_u64(p + 0x1000, 0xB0B));
    s.step_op(0, &Op::Compute { cycles: 200 });
    s.step_op(0, &Op::store_u64(p + 0x1400, 0x4000));
    s.step_op(0, &Op::store_u64(p + 0x1000, 0xA11CE));
    s.step_op(0, &Op::store_u64(p + 0x1000 + 8, 0xC0DE));
    s.step_op(0, &Op::store_u64(p + 4 * 64, 0x1FFF));
    s.take_events();
    s
}

/// Canonical text for one case: crash cost, image digest, the crash's
/// own events (cycle-stamped), then every statistic after the crash.
fn render_case(mode: PersistencyMode, battery_ok: bool, battery_backed_sb: bool) -> String {
    let mut s = mid_flight(mode, battery_backed_sb);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "case battery_ok={battery_ok} battery_backed_sb={battery_backed_sb}"
    );
    let _ = writeln!(out, "cost {}", s.crash_cost());
    let overlay = s.crash_image(battery_ok);
    let image = if battery_ok {
        s.crash_now()
    } else {
        s.crash_now_battery_dropped()
    };
    assert_eq!(
        overlay, image,
        "{mode}: crash_image({battery_ok}) disagrees with the destructive crash"
    );
    let sb_in_domain = battery_ok
        && battery_backed_sb
        && !matches!(mode, PersistencyMode::Pmem | PersistencyMode::Bep);
    if sb_in_domain {
        let shared = s.address_map().persistent_base() + 0x1000;
        assert_eq!(
            image.read_u64(shared),
            0xA11CE,
            "{mode}: the later-committed store must win the conflict"
        );
    }
    let _ = writeln!(out, "image {:016x}", image_digest(&image));
    for e in s.take_events() {
        let _ = writeln!(out, "event {e} @{}", e.cycle());
    }
    let stats = s.stats();
    let mut kv: Vec<(&str, u64)> = stats.iter().collect();
    kv.sort_unstable();
    for (k, v) in kv {
        let _ = writeln!(out, "stat {k}={v}");
    }
    out
}

fn render(mode: PersistencyMode) -> String {
    let mut out = String::new();
    for battery_ok in [true, false] {
        for battery_backed_sb in [true, false] {
            out.push_str(&render_case(mode, battery_ok, battery_backed_sb));
        }
    }
    out
}

fn mode_slug(mode: PersistencyMode) -> &'static str {
    match mode {
        PersistencyMode::Pmem => "pmem",
        PersistencyMode::Eadr => "eadr",
        PersistencyMode::BbbMemorySide => "bbb_mem",
        PersistencyMode::BbbProcessorSide => "bbb_proc",
        PersistencyMode::Bep => "bep",
    }
}

fn check_golden(mode: PersistencyMode) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("crash_domain_{}.txt", mode_slug(mode)));
    let actual = render(mode);
    if std::env::var_os("BBB_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BBB_REGEN_GOLDEN=1 to create",
            path.display()
        )
    });
    if let Some(line) = expected
        .lines()
        .zip(actual.lines())
        .position(|(a, b)| a != b)
    {
        panic!(
            "{mode}: crash golden differs at line {}:\n  expected: {}\n  actual:   {}",
            line + 1,
            expected.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "{mode}: crash golden length differs"
    );
}

/// The scenario really occupies what it claims to: both store buffers
/// under every mode, and the mode's persist buffers or dirty lines.
#[test]
fn scenario_occupies_every_structure() {
    for mode in PersistencyMode::ALL {
        let s = mid_flight(mode, true);
        let cost = s.crash_cost();
        if !matches!(mode, PersistencyMode::Pmem | PersistencyMode::Bep) {
            assert!(cost.sb_entries >= 4, "{mode}: {cost}");
        }
        if mode.has_bbpb() {
            assert!(cost.bbpb_entries >= 4, "{mode}: {cost}");
        }
        if mode == PersistencyMode::Eadr {
            assert!(cost.dirty_cache_blocks >= 8, "{mode}: {cost}");
        }
    }
}

#[test]
fn pmem_crash_golden() {
    check_golden(PersistencyMode::Pmem);
}

#[test]
fn eadr_crash_golden() {
    check_golden(PersistencyMode::Eadr);
}

#[test]
fn bbb_memory_side_crash_golden() {
    check_golden(PersistencyMode::BbbMemorySide);
}

#[test]
fn bbb_processor_side_crash_golden() {
    check_golden(PersistencyMode::BbbProcessorSide);
}

#[test]
fn bep_crash_golden() {
    check_golden(PersistencyMode::Bep);
}
