//! Pinned resume behaviour of the run loop: a batch run advanced through
//! `System::run_until` in increments, with the machine's clocks moved
//! between increments, must commit the same ops at the same cycles.
//!
//! Between increments the driver either drains every store buffer
//! (`drain_all_store_buffers`) or steps one op directly on one core
//! (`step_op`); both move a core's clock outside the run loop, so the
//! next `run_until` must schedule from the clocks as it finds them. The
//! workload's uneven compute runs make the batch-retire fold yield and
//! stop mid-run. Every mode runs on the 2-core test machine and the
//! 8-core default, advanced once in cycle increments and once in op
//! increments.
//!
//! For every increment the golden records the cursor's op count, the
//! simulated time and a digest of the trace events it produced; at the
//! end it records every statistic and the crash-image digest of both
//! battery states. Goldens live in `tests/golden/scheduler_resume_<mode>.txt`;
//! run with `BBB_REGEN_GOLDEN=1` to rewrite them after an intended change.

use std::fmt::Write as _;
use std::path::PathBuf;

use bbb::core::{PersistencyMode, RunCursor, StopAt, System, Workload};
use bbb::cpu::Op;
use bbb::mem::{ByteStore, NvmImage};
use bbb::sim::SimConfig;

/// FNV-1a, absorbed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of every materialized page (address, then bytes), in ascending
/// address order.
fn image_digest(image: &NvmImage) -> u64 {
    let mut h = Fnv::new();
    for (base, page) in image.as_store().iter_pages() {
        h.absorb(&base.to_le_bytes());
        h.absorb(page);
    }
    h.0
}

/// Per-core batches of uneven compute runs around one persisting
/// read-modify-write store, with a load, a flush and a fence now and then.
struct Uneven {
    left: Vec<u32>,
    base: u64,
}

impl Workload for Uneven {
    fn name(&self) -> &str {
        "uneven"
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        if self.left[core] == 0 {
            return None;
        }
        self.left[core] -= 1;
        let i = u64::from(self.left[core]);
        let c = core as u64;
        let mut ops = Vec::new();
        for k in 0..(1 + (i + c) % 6) {
            ops.push(Op::Compute {
                cycles: (5 + 11 * k + 3 * c + i % 7) as u32,
            });
        }
        let slot = self.base + (c * 16 + i % 12) * 64 + (i % 8) * 8;
        let v = arch.read_u64(slot) + 1;
        arch.write_u64(slot, v);
        ops.push(Op::store_u64(slot, v));
        match i % 5 {
            0 => ops.push(Op::load_u64(self.base + ((c + 1) * 16 + i % 12) * 64)),
            3 => {
                ops.push(Op::Clwb { addr: slot });
                ops.push(Op::Fence);
            }
            _ => {}
        }
        ops.push(Op::Compute {
            cycles: (4 + i % 9) as u32,
        });
        Some(ops)
    }
}

/// How the driver advances the run.
#[derive(Clone, Copy)]
enum Increment {
    /// `StopAt::Cycle(k * delta)`.
    Cycles(u64),
    /// `StopAt::Ops(k * delta)`.
    Ops(u64),
}

fn render_run(mode: PersistencyMode, cfg: &SimConfig, inc: Increment, out: &mut String) {
    let cores = cfg.cores;
    let mut s = System::new(cfg.clone(), mode).expect("valid config");
    s.set_tracing(true);
    let base = s.address_map().persistent_base();
    let mut w = Uneven {
        left: (0..cores).map(|c| 30 + 7 * (c as u32 % 3)).collect(),
        base,
    };
    s.prepare(&mut w);
    let mut cursor = RunCursor::new(cores);
    let _ = match inc {
        Increment::Cycles(d) => writeln!(out, "run cores={cores} cycles+{d}"),
        Increment::Ops(d) => writeln!(out, "run cores={cores} ops+{d}"),
    };
    for k in 1u64.. {
        let stop = match inc {
            Increment::Cycles(d) => StopAt::Cycle(k * d),
            Increment::Ops(d) => StopAt::Ops(k * d),
        };
        let summary = s.run_until(&mut w, &mut cursor, stop);
        let mut h = Fnv::new();
        for e in s.take_events() {
            h.absorb(format!("{e} @{}\n", e.cycle()).as_bytes());
        }
        let _ = writeln!(
            out,
            "inc {k} ops={} cycle={} events={:016x}",
            cursor.ops(),
            summary.cycles,
            h.0
        );
        if summary.completed {
            break;
        }
        // Move clocks outside the run loop before the next increment.
        let core = (k as usize) % cores;
        match k % 3 {
            1 => s.drain_all_store_buffers(),
            2 => s.step_op(
                core,
                &Op::store_u64(base + 0x4000 + (k % 32) * 64, 0xD000 + k),
            ),
            _ => s.step_op(
                core,
                &Op::Compute {
                    cycles: 40 + (k % 5) as u32 * 17,
                },
            ),
        }
    }
    assert!(cursor.finished());
    let _ = writeln!(
        out,
        "image battery={:016x} dropped={:016x}",
        image_digest(&s.crash_image(true)),
        image_digest(&s.crash_image(false))
    );
    let stats = s.stats();
    let mut kv: Vec<(&str, u64)> = stats.iter().collect();
    kv.sort_unstable();
    for (k, v) in kv {
        let _ = writeln!(out, "stat {k}={v}");
    }
}

fn render(mode: PersistencyMode) -> String {
    let mut out = String::new();
    for cfg in [SimConfig::small_for_tests(), SimConfig::default()] {
        for inc in [Increment::Cycles(173), Increment::Ops(23)] {
            render_run(mode, &cfg, inc, &mut out);
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
        .join(format!("scheduler_resume_{}.txt", mode_slug(mode)));
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
            "{mode}: resume golden differs at line {}:\n  expected: {}\n  actual:   {}",
            line + 1,
            expected.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "{mode}: resume golden length differs"
    );
}

#[test]
fn pmem_resume_golden() {
    check_golden(PersistencyMode::Pmem);
}

#[test]
fn eadr_resume_golden() {
    check_golden(PersistencyMode::Eadr);
}

#[test]
fn bbb_memory_side_resume_golden() {
    check_golden(PersistencyMode::BbbMemorySide);
}

#[test]
fn bbb_processor_side_resume_golden() {
    check_golden(PersistencyMode::BbbProcessorSide);
}

#[test]
fn bep_resume_golden() {
    check_golden(PersistencyMode::Bep);
}
