//! Memory-model litmus tests for the simulated machine: the coherence and
//! TSO-visibility properties every persistency argument in the paper rests
//! on. Run on the full 8-core Table III configuration.
//!
//! The second half drives the same shapes through `bbb-check`'s
//! persistency litmus engine, which sweeps crash points and replays each
//! traced run through the vector-clock persist-order checker.

use bbb::check::litmus::{run_all, run_shape, shapes, Verdict};
use bbb::core::{PersistencyMode, System};
use bbb::cpu::Op;
use bbb::sim::SimConfig;

fn sys() -> System {
    System::new(SimConfig::default(), PersistencyMode::BbbMemorySide).unwrap()
}

/// Coherence (per-location SC): writes to one location are serialized;
/// the final value is the last write in the global serialization, and
/// every core observes it after its own accesses complete.
#[test]
fn coherence_single_location_serializes() {
    let mut s = sys();
    let a = s.address_map().persistent_base();
    // 8 cores each write their id, interleaved by local time.
    for round in 0..4u64 {
        for core in 0..8usize {
            s.step_op(core, &Op::store_u64(a, round * 8 + core as u64 + 1));
        }
    }
    s.drain_all_store_buffers();
    s.check_invariants();
    let img = s.crash_now();
    let v = img.read_u64(a);
    assert!(
        (1..=32).contains(&v),
        "final value {v} is one of the writes"
    );
}

/// Message passing (MP): producer writes data then flag; a consumer that
/// observes the flag must observe the data. Under BBB this extends to the
/// *crash image* — the paper's Invariant 3 at system scale.
#[test]
fn message_passing_respects_causality_in_crash_image() {
    for budget_stores in 1..=8usize {
        let mut s = sys();
        let base = s.address_map().persistent_base();
        let data = base + 0x1000;
        let flag = base;
        let mut ops = vec![
            Op::store_u64(data, 0xD0_0D),
            Op::store_u64(flag, 1),
            Op::store_u64(data + 8, 0xD1_1D),
            Op::store_u64(flag + 8, 1),
        ];
        ops.truncate(budget_stores.min(ops.len()));
        s.run_single_core(0, ops).unwrap();
        // Consumer core reads the flag then the data (timing only; the
        // causality check is on the image).
        s.run_single_core(1, vec![Op::load_u64(flag), Op::load_u64(data)])
            .unwrap();
        let img = s.crash_now();
        if img.read_u64(flag) == 1 {
            assert_eq!(img.read_u64(data), 0xD0_0D, "flag implies data");
        }
        if img.read_u64(flag + 8) == 1 {
            assert_eq!(img.read_u64(data + 8), 0xD1_1D, "flag2 implies data2");
        }
    }
}

/// Store buffering (SB litmus): under TSO each core's own stores reach the
/// L1D in program order, so a remote reader can never see the younger
/// store's effect while the older one is absent from the coherent image.
#[test]
fn tso_store_order_is_never_inverted_in_coherent_state() {
    let mut s = sys();
    let base = s.address_map().persistent_base();
    let x = base + 0x2000;
    let y = base + 0x4000;
    // Core 0: x=1; y=1 (different blocks, in-order SB drain).
    s.step_op(0, &Op::store_u64(x, 1));
    s.step_op(0, &Op::store_u64(y, 1));
    // Force both drains.
    s.drain_all_store_buffers();
    s.check_invariants();
    // Core 1 reads y then x through coherence.
    s.step_op(1, &Op::load_u64(y));
    s.step_op(1, &Op::load_u64(x));
    let img = s.crash_now();
    if img.read_u64(y) == 1 {
        assert_eq!(img.read_u64(x), 1, "y=1 implies x=1 under TSO order");
    }
}

/// Write serialization across cores: two cores exchange ownership of one
/// block many times; every byte written survives in the final image
/// (bytes of a block merge across owners rather than being lost).
#[test]
fn ownership_migration_never_loses_bytes() {
    let mut s = sys();
    let base = s.address_map().persistent_base() + 0x8000;
    for i in 0..8u64 {
        let core = (i % 2) as usize;
        s.step_op(core, &Op::store_u64(base + i * 8, i + 1));
    }
    s.drain_all_store_buffers();
    s.check_invariants();
    let img = s.crash_now();
    for i in 0..8u64 {
        assert_eq!(img.read_u64(base + i * 8), i + 1, "word {i}");
    }
}

/// Independent reads of independent writes (IRIW-flavored check at image
/// level): two writers to two locations; any combination of flags in the
/// image is allowed, but each flag individually implies its own data.
#[test]
fn independent_writers_keep_their_own_causality() {
    let mut s = sys();
    let base = s.address_map().persistent_base();
    let (d0, f0) = (base + 0x1000, base);
    let (d1, f1) = (base + 0x3000, base + 8);
    s.step_op(0, &Op::store_u64(d0, 0xAA));
    s.step_op(0, &Op::store_u64(f0, 1));
    s.step_op(1, &Op::store_u64(d1, 0xBB));
    s.step_op(1, &Op::store_u64(f1, 1));
    // Crash with store buffers battery-backed: everything committed is in.
    let img = s.crash_now();
    if img.read_u64(f0) == 1 {
        assert_eq!(img.read_u64(d0), 0xAA);
    }
    if img.read_u64(f1) == 1 {
        assert_eq!(img.read_u64(d1), 0xBB);
    }
}

/// The persistency litmus matrix: every shape under every mode must match
/// its expected allowed/forbidden verdict, and the checker must be silent
/// except where a shape deliberately breaks a software discipline.
#[test]
fn persistency_litmus_matrix_matches_expectations() {
    let rows = run_all();
    assert_eq!(rows.len(), shapes().len() * PersistencyMode::ALL.len());
    for row in &rows {
        assert!(
            row.pass(),
            "{} under {}: expected {}, observed {}, {} checker violation(s)",
            row.shape,
            row.mode.tag(),
            row.expect.verdict.label(),
            row.observed_label(),
            row.report.violations()
        );
    }
}

/// Forbidden outcomes are *never* observed under either BBB organization,
/// across every crash point of every shape — the paper's guarantee at
/// litmus granularity.
#[test]
fn bbb_modes_forbid_every_lost_causality_outcome() {
    for shape in &shapes() {
        for mode in [
            PersistencyMode::BbbMemorySide,
            PersistencyMode::BbbProcessorSide,
        ] {
            let row = run_shape(shape, mode);
            assert_eq!(
                row.expect.verdict,
                Verdict::Forbidden,
                "{}: BBB should forbid the outcome",
                shape.name
            );
            assert_eq!(row.observed, 0, "{} under {}", shape.name, mode.tag());
            assert!(row.report.ok(), "{} under {}", shape.name, mode.tag());
        }
    }
}

/// The engine distinguishes the disciplines: stripping the flush from the
/// older store (PMEM) or the barrier from the producer (BEP) surfaces a
/// minimal ordering witness with a happens-before path.
#[test]
fn stripped_disciplines_produce_minimal_witnesses() {
    let all = shapes();
    let flushless = all.iter().find(|s| s.name == "ss+clwb_y").unwrap();
    let row = run_shape(flushless, PersistencyMode::Pmem);
    assert!(row.report.violations() >= 1, "flush-stripped PMEM witness");
    assert_eq!(row.report.witnesses[0].rule, "strict-order");

    let barrierless = all.iter().find(|s| s.name == "mp").unwrap();
    let row = run_shape(barrierless, PersistencyMode::Bep);
    assert!(row.report.violations() >= 1, "barrier-stripped BEP witness");
    assert_eq!(row.report.witnesses[0].rule, "cross-core-hb");
    assert!(
        row.report.witnesses[0].path.len() >= 3,
        "witness path spans write, observation, and overtaking write: {:?}",
        row.report.witnesses[0].path
    );
}
