//! Pinned behaviour of both persist-buffer organizations, driven directly.
//!
//! A SplitMix64 stream of offers over a small block set feeds each
//! organization's buffers through the whole grid of capacities {1, 4, 32},
//! drain policies {eager, threshold 50/75/100} and two NVMM controllers
//! (the default, and one whose write-pending queue holds only 2 entries, so
//! drains back up and stores stall). Between offers the memory-side stream
//! forces drains and migrates entries between two buffers; the
//! processor-side stream drains through a block and drains everything at
//! an epoch barrier.
//!
//! For every operation the golden records its result, the drain events it
//! produced and the occupancy afterwards; for every cell it records the
//! final counters and the buffers' remaining contents. Goldens live in
//! `tests/golden/persist_buffers_{mem,proc}.txt`; run with
//! `BBB_REGEN_GOLDEN=1` to rewrite them after an intended change.

use std::fmt::Write as _;
use std::path::PathBuf;

use bbb::core::{AllocOutcome, PersistState, PersistencyMode};
use bbb::cpu::SbEntry;
use bbb::mem::NvmmController;
use bbb::sim::{
    BbpbConfig, BlockAddr, Cycle, DrainPolicy, MemTiming, SimConfig, SplitMix64, Stats, BLOCK_BYTES,
};

const CAPACITIES: [usize; 3] = [1, 4, 32];

const POLICIES: [DrainPolicy; 4] = [
    DrainPolicy::Eager,
    DrainPolicy::Threshold { threshold_pct: 50 },
    DrainPolicy::Threshold { threshold_pct: 75 },
    DrainPolicy::Threshold { threshold_pct: 100 },
];

/// The default controller, and one with a 2-entry write-pending queue.
fn controllers() -> [(&'static str, MemTiming); 2] {
    [
        ("default", MemTiming::default()),
        (
            "wpq2",
            MemTiming {
                wpq_entries: 2,
                ..MemTiming::default()
            },
        ),
    ]
}

/// The 2-core test machine with the cell's buffer geometry, its buffers
/// tracing.
fn state(mode: PersistencyMode, entries: usize, drain_policy: DrainPolicy) -> PersistState {
    let mut cfg = SimConfig::small_for_tests();
    cfg.bbpb = BbpbConfig {
        entries,
        drain_policy,
        ..cfg.bbpb
    };
    let mut s = PersistState::new(&cfg, mode);
    s.set_tracing(true);
    s
}

fn outcome(out: AllocOutcome) -> String {
    format!(
        "done={}{}{}",
        out.done,
        if out.coalesced { " coalesced" } else { "" },
        if out.rejected { " rejected" } else { "" }
    )
}

/// Appends every drain event the buffers logged since the last call.
fn drains(s: &mut PersistState, out: &mut String) {
    for e in s.take_trace_logs().into_iter().flatten() {
        let _ = writeln!(out, "    {e}");
    }
}

fn stats(name: &str, st: &Stats, out: &mut String) {
    for (k, v) in st.iter() {
        let _ = writeln!(out, "  {name} {k}={v}");
    }
}

/// A block payload that names its writer: every byte is `v`.
fn payload(v: u64) -> [u8; BLOCK_BYTES] {
    [v as u8; BLOCK_BYTES]
}

fn render_mem(cap: usize, policy: DrainPolicy, timing: MemTiming, out: &mut String) {
    let mut s = state(PersistencyMode::BbbMemorySide, cap, policy);
    let mut n = NvmmController::new(timing);
    let mut rng = SplitMix64::new(0x5EED_0000 + cap as u64);
    let blocks = 2 * cap as u64 + 3;
    let mut now: Cycle = 0;
    for i in 0..ops(cap) {
        now += rng.next_below(400);
        let block = BlockAddr::from_index(1 + rng.next_below(blocks));
        let roll = rng.next_below(20);
        // Core 0 takes most offers; core 1 holds what migrates to it.
        let (c, other) = if roll.is_multiple_of(3) {
            (1, 0)
        } else {
            (0, 1)
        };
        let line = match roll {
            0..=13 => {
                let out = s.bbpb_mut(c).allocate(now, block, payload(i), &mut n);
                format!("pb{c} allocate {block} -> {}", outcome(out))
            }
            14..=16 => {
                let hit = s.bbpb_mut(c).force_drain(now, block, &mut n);
                format!("pb{c} force_drain {block} -> {hit}")
            }
            _ => match s.bbpb_mut(c).take_for_move(block) {
                Some(data) => {
                    s.bbpb_mut(other).insert_moved(now, block, data, &mut n);
                    format!("pb{c} move {block} -> pb{other} data={}", data[0])
                }
                None => format!("pb{c} move {block} -> absent"),
            },
        };
        let occ0 = s.bbpb_mut(0).occupancy(now);
        let occ1 = s.bbpb_mut(1).occupancy(now);
        let _ = writeln!(out, "  @{now} {line} occ={occ0}/{occ1}");
        drains(&mut s, out);
    }
    for c in 0..2 {
        stats(&format!("pb{c}"), &s.bbpb(c).stats(), out);
        let set: Vec<String> = s
            .bbpb(c)
            .drain_set()
            .iter()
            .map(|(b, d)| format!("{b}={}", d[0]))
            .collect();
        let _ = writeln!(out, "  pb{c} drain_set [{}]", set.join(" "));
    }
}

fn render_proc(cap: usize, policy: DrainPolicy, timing: MemTiming, out: &mut String) {
    let mut s = state(PersistencyMode::BbbProcessorSide, cap, policy);
    let mut n = NvmmController::new(timing);
    let mut rng = SplitMix64::new(0x5EED_1000 + cap as u64);
    let blocks = cap as u64 / 2 + 3;
    let mut now: Cycle = 0;
    let mut last = (BlockAddr::from_index(1), 0, 8);
    for i in 0..ops(cap) {
        now += rng.next_below(400);
        let block = BlockAddr::from_index(1 + rng.next_below(blocks));
        // Drains come about once per capacity's worth of stores, so the
        // larger buffers fill up between them.
        let roll = if rng.chance(1, cap as u64 + 4) {
            rng.next_below(2)
        } else {
            2
        };
        let line = match roll {
            2 => {
                // A third of the stores repeat the previous store's slot,
                // so back-to-back stores coalesce.
                if !rng.chance(1, 3) {
                    last = (
                        block,
                        8 * rng.next_below(2) as usize,
                        if rng.chance(1, 4) { 4 } else { 8 },
                    );
                }
                let (block, offset, len) = last;
                let store = SbEntry {
                    block,
                    offset,
                    len,
                    bytes: (i * 0x0101_0101).to_le_bytes(),
                    persistent: true,
                    committed: now.saturating_sub(rng.next_below(50)),
                    seq: i,
                };
                let out = s.procpb_mut(0).push(now, store, &mut n);
                format!("push {block}+{offset}/{len} -> {}", outcome(out))
            }
            0 => {
                let k = s.procpb_mut(0).drain_through_block(now, block, &mut n);
                format!("drain_through_block {block} -> {k}")
            }
            _ => {
                let t = s.procpb_mut(0).drain_all_timed(now, &mut n);
                now = t;
                format!("drain_all_timed -> {t}")
            }
        };
        let occ = s.procpb_mut(0).occupancy(now);
        let _ = writeln!(out, "  @{now} {line} occ={occ}");
        drains(&mut s, out);
    }
    stats("pb0", &s.procpb(0).stats(), out);
    for e in s.procpb(0).iter() {
        let _ = writeln!(
            out,
            "  pb0 entry {}+{}/{} {:?} committed={} seq={}",
            e.block,
            e.offset,
            e.len,
            &e.bytes[..e.len],
            e.committed,
            e.seq
        );
    }
}

/// Operations per cell: enough for the 32-entry buffers to fill.
fn ops(cap: usize) -> u64 {
    4 * cap as u64 + 40
}

fn render(render_cell: fn(usize, DrainPolicy, MemTiming, &mut String)) -> String {
    let mut out = String::new();
    for cap in CAPACITIES {
        for policy in POLICIES {
            for (name, timing) in controllers() {
                let _ = writeln!(out, "cell entries={cap} policy={policy:?} nvmm={name}");
                render_cell(cap, policy, timing, &mut out);
            }
        }
    }
    out
}

/// Sums one counter over every cell's `stats` lines.
fn total(golden: &str, key: &str) -> u64 {
    golden
        .lines()
        .filter_map(|l| {
            l.trim()
                .split_once(' ')?
                .1
                .strip_prefix(key)?
                .strip_prefix('=')
        })
        .map(|v| v.parse::<u64>().expect("counter value"))
        .sum()
}

fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("persist_buffers_{name}.txt"));
    if std::env::var_os("BBB_REGEN_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with BBB_REGEN_GOLDEN=1 to create",
            path.display()
        )
    });
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "{name}: persist-buffer golden differs at line {}:\n  expected: {want}\n  actual:   {got}",
            i + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "{name}: persist-buffer golden length differs"
    );
}

#[test]
fn memory_side_golden() {
    let golden = render(render_mem);
    for key in [
        "bbpb.coalesces",
        "bbpb.rejections",
        "bbpb.drains",
        "bbpb.forced_drains",
        "bbpb.moves_in",
    ] {
        assert!(total(&golden, key) > 0, "the grid never exercised {key}");
    }
    check_golden("mem", &golden);
}

#[test]
fn processor_side_golden() {
    let golden = render(render_proc);
    for key in ["bbpb.coalesces", "bbpb.rejections", "bbpb.drains"] {
        assert!(total(&golden, key) > 0, "the grid never exercised {key}");
    }
    check_golden("proc", &golden);
}
