//! Candidate-execution enumeration and the diy-style litmus generator.
//!
//! Two enumerations live here:
//!
//! * [`interleavings`] — every merge of the per-core program orders of a
//!   [`Prog`]. The simulator mutates architectural and persistence state
//!   in `step_op` call order, so a schedule *is* a TSO-consistent store
//!   order; the model quantifies over all of them.
//! * [`generate`] — a bounded, systematic shape generator in the spirit
//!   of diy/litmus7: every per-core instruction sequence over a small
//!   alphabet (stores, loads, flushes, fences), pruned of dead
//!   instructions, assembled into programs, and deduplicated by
//!   **canonical isomorphism** — two shapes that differ only by core
//!   order, location names, or store values are the same shape
//!   ([`canonicalize`]).

use std::collections::BTreeSet;

use crate::model::{Inst, Loc, Prog};

/// Hard cap on interleavings per program (enumeration is multinomial).
pub const MAX_INTERLEAVINGS: u128 = 100_000;

/// Most stores a generated program may have (crash-cut enumeration is
/// `2^stores` per execution).
pub const MAX_GEN_STORES: usize = 6;

/// Enumerates every interleaving of per-core sequences with the given
/// lengths, as sequences of core ids.
///
/// # Panics
///
/// Panics if the multinomial count exceeds [`MAX_INTERLEAVINGS`].
#[must_use]
pub fn interleavings(lens: &[usize]) -> Vec<Vec<usize>> {
    let total: usize = lens.iter().sum();
    let mut count: u128 = 1;
    let mut placed = 0usize;
    for &len in lens {
        for k in 1..=len {
            placed += 1;
            count = count * placed as u128 / k as u128;
        }
        assert!(count <= MAX_INTERLEAVINGS, "interleaving space too large");
    }
    let mut out = Vec::with_capacity(count as usize);
    let mut remaining = lens.to_vec();
    let mut cur = Vec::with_capacity(total);
    fn rec(remaining: &mut [usize], cur: &mut Vec<usize>, left: usize, out: &mut Vec<Vec<usize>>) {
        if left == 0 {
            out.push(cur.clone());
            return;
        }
        for core in 0..remaining.len() {
            if remaining[core] == 0 {
                continue;
            }
            remaining[core] -= 1;
            cur.push(core);
            rec(remaining, cur, left - 1, out);
            cur.pop();
            remaining[core] += 1;
        }
    }
    rec(&mut remaining, &mut cur, total, &mut out);
    out
}

/// Generator bounds: how large the enumerated shape space is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenBounds {
    /// Cores per shape (every core runs at least one instruction).
    pub cores: usize,
    /// Locations available to the alphabet.
    pub locs: usize,
    /// Maximum instructions per core.
    pub max_insts: usize,
    /// Cap on canonical shapes kept (an even stride over the sorted
    /// canonical set, so the selection is deterministic and diverse).
    pub max_shapes: usize,
}

impl GenBounds {
    /// The CI smoke suite: two-core shapes up to 3 instructions plus
    /// three-core shapes up to 2 (both over two locations), and deep
    /// single-core shapes — the only band where PMEM's flush→fence axiom
    /// bites universally (a `St;Fl;F;St` chain needs four instructions on
    /// one core).
    #[must_use]
    pub fn smoke_suite() -> Vec<GenBounds> {
        vec![
            GenBounds {
                cores: 2,
                locs: 2,
                max_insts: 3,
                max_shapes: 288,
            },
            GenBounds {
                cores: 3,
                locs: 2,
                max_insts: 2,
                max_shapes: 96,
            },
            GenBounds {
                cores: 1,
                locs: 2,
                max_insts: 5,
                max_shapes: 64,
            },
        ]
    }

    /// The full suite (manual runs): wider location fan-out, more
    /// three-core shapes, and deeper single-core chains.
    #[must_use]
    pub fn full_suite() -> Vec<GenBounds> {
        vec![
            GenBounds {
                cores: 2,
                locs: 3,
                max_insts: 3,
                max_shapes: 768,
            },
            GenBounds {
                cores: 3,
                locs: 2,
                max_insts: 2,
                max_shapes: 256,
            },
            GenBounds {
                cores: 1,
                locs: 3,
                max_insts: 6,
                max_shapes: 128,
            },
        ]
    }
}

/// Per-core instruction alphabet for `locs` locations. Store values are
/// placeholders; [`assign_values`] numbers them canonically.
fn alphabet(locs: usize) -> Vec<Inst> {
    let mut a = Vec::with_capacity(3 * locs + 1);
    for loc in 0..locs {
        a.push(Inst::St { loc, val: 0 });
        a.push(Inst::Ld { loc });
        a.push(Inst::Fl { loc });
    }
    a.push(Inst::Fence);
    a
}

/// Whether `next` is a live extension of the per-core sequence `seq`.
/// Dead instructions — a flush of a line this core never wrote, a fence
/// with no same-core prior store, back-to-back fences or identical
/// flushes, a second load — are pruned here; they cannot change any
/// mode's persist order.
fn extends(seq: &[Inst], next: Inst) -> bool {
    let stored = |loc: Loc| {
        seq.iter()
            .any(|i| matches!(*i, Inst::St { loc: l, .. } if l == loc))
    };
    match next {
        Inst::St { .. } => true,
        Inst::Ld { .. } => !seq.iter().any(|i| matches!(i, Inst::Ld { .. })),
        Inst::Fl { loc } => stored(loc) && seq.last() != Some(&Inst::Fl { loc }),
        Inst::Fence => {
            seq.iter().any(|i| matches!(i, Inst::St { .. })) && seq.last() != Some(&Inst::Fence)
        }
        Inst::Delay { .. } => false,
    }
}

/// All live per-core sequences of length `1..=max_insts`, shortest
/// first: each length extends the previous length's sequences in order,
/// and each sequence is built once.
fn core_sequences(locs: usize, max_insts: usize) -> Vec<Vec<Inst>> {
    let alpha = alphabet(locs);
    // Index 0 holds the empty sequence every length-1 sequence extends.
    let mut out: Vec<Vec<Inst>> = vec![Vec::new()];
    let mut level = 0..1;
    for _ in 0..max_insts {
        let start = out.len();
        for i in level {
            for &inst in &alpha {
                if extends(&out[i], inst) {
                    let mut seq = Vec::with_capacity(out[i].len() + 1);
                    seq.extend_from_slice(&out[i]);
                    seq.push(inst);
                    out.push(seq);
                }
            }
        }
        level = start..out.len();
    }
    out.remove(0);
    out
}

/// What the program-level filters need of one per-core sequence,
/// computed once per sequence rather than rescanned per pick.
#[derive(Debug, Clone, Copy)]
struct SeqMask {
    /// Stores in the sequence.
    stores: usize,
    /// Bit `l` set: the sequence stores to location `l`.
    stored: u64,
    /// Bit `l` set: the sequence loads location `l`.
    loaded: u64,
}

impl SeqMask {
    fn of(seq: &[Inst]) -> Self {
        let mut mask = Self {
            stores: 0,
            stored: 0,
            loaded: 0,
        };
        for inst in seq {
            match *inst {
                Inst::St { loc, .. } => {
                    mask.stores += 1;
                    mask.stored |= 1 << loc;
                }
                Inst::Ld { loc } => mask.loaded |= 1 << loc,
                Inst::Fl { .. } | Inst::Fence | Inst::Delay { .. } => {}
            }
        }
        mask
    }
}

/// Whether a pick of sequences passes the program-level filters:
///
/// * at least two stores, at most [`MAX_GEN_STORES`];
/// * every load reads a location some *other* core stores
///   (message-passing flavor; a load of a never-stored or
///   only-self-stored location cannot observe anything).
fn pick_is_live(pick: &[usize], masks: &[SeqMask]) -> bool {
    let stores: usize = pick.iter().map(|&i| masks[i].stores).sum();
    (2..=MAX_GEN_STORES).contains(&stores)
        && pick.iter().enumerate().all(|(c, &i)| {
            let by_others = pick
                .iter()
                .enumerate()
                .filter(|&(d, _)| d != c)
                .fold(0, |m, (_, &j)| m | masks[j].stored);
            masks[i].loaded & !by_others == 0
        })
}

/// All permutations of `0..n` (n ≤ 3 in practice).
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for pos in 0..=rest.len() {
            let mut p = rest.clone();
            p.insert(pos, n - 1);
            out.push(p);
        }
    }
    out
}

/// Canonicalizes shapes of one core and location count into reused
/// buffers: the permutation table is built once, and each relabeling is
/// written over the last rejected one.
struct Canonicalizer {
    /// Every permutation of the core indices.
    perms: Vec<Vec<usize>>,
    /// The least relabeling so far.
    best: Prog,
    /// The relabeling under construction.
    cand: Prog,
    /// Per source location, its new name under the current relabeling.
    names: Vec<Option<Loc>>,
    /// Per new location, the next store value.
    next_val: Vec<u64>,
}

impl Canonicalizer {
    fn new(cores: usize, locs: usize) -> Self {
        let empty = || Prog {
            cores: vec![Vec::new(); cores],
        };
        Self {
            perms: permutations(cores),
            best: empty(),
            cand: empty(),
            names: vec![None; locs],
            next_val: vec![1; locs],
        }
    }

    /// The canonical representative of the shape running `cores[c]` on
    /// core `c` (see [`canonicalize`]), valid until the next call.
    fn canonical(&mut self, cores: &[&[Inst]]) -> &Prog {
        let Self {
            perms,
            best,
            cand,
            names,
            next_val,
        } = self;
        for (p, perm) in perms.iter().enumerate() {
            names.fill(None);
            next_val.fill(1);
            let mut named = 0;
            for (dst, &src) in cand.cores.iter_mut().zip(perm) {
                dst.clear();
                for &inst in cores[src] {
                    let mut name = |loc: Loc| {
                        *names[loc].get_or_insert_with(|| {
                            named += 1;
                            named - 1
                        })
                    };
                    dst.push(match inst {
                        Inst::St { loc, .. } => {
                            let loc = name(loc);
                            let val = next_val[loc];
                            next_val[loc] += 1;
                            Inst::St { loc, val }
                        }
                        Inst::Ld { loc } => Inst::Ld { loc: name(loc) },
                        Inst::Fl { loc } => Inst::Fl { loc: name(loc) },
                        other => other,
                    });
                }
            }
            if p == 0 || *cand < *best {
                std::mem::swap(cand, best);
            }
        }
        best
    }
}

/// The canonical representative of a shape's isomorphism class: the
/// least (under the derived [`Prog`] ordering) relabeling over all core
/// permutations, with locations renamed by first appearance and store
/// values re-numbered per location. Two shapes that differ only by core
/// order, location names, or store values canonicalize identically.
#[must_use]
pub fn canonicalize(prog: &Prog) -> Prog {
    let cores: Vec<&[Inst]> = prog.cores.iter().map(Vec::as_slice).collect();
    Canonicalizer::new(prog.num_cores(), prog.num_locs())
        .canonical(&cores)
        .clone()
}

/// Generates the canonical shape set for one bounds box: every
/// combination of live per-core sequences that passes the program-level
/// filters (at least two stores, at most [`MAX_GEN_STORES`]; every load
/// reads a location another core stores), deduplicated by
/// [`canonicalize`], and
/// capped with an even stride over the sorted canonical set, so the
/// selection is deterministic and diverse.
///
/// Core order is a symmetry: [`canonicalize`] takes the least relabeling
/// over every core permutation, and neither filter depends on which core
/// runs which sequence. So only non-decreasing picks of sequence indices
/// are visited; the other orderings of a pick canonicalize to the same
/// shape. Each pick is canonicalized as it is visited, straight into the
/// canonical set, which is the only thing the walk keeps.
///
/// Cross-core **write conflicts** (one location stored by several cores)
/// are deliberately *included*: the simulator's crash paths resolve them
/// in coherence order τ = (commit cycle, core, seq) — the same order its
/// live drains use — so the axiomatic model's coherence-compatible cuts
/// cover every machine outcome (DESIGN.md §9.4, resolved ledger item 1
/// documents the core-index-order bug this replaced).
///
/// # Panics
///
/// Panics if `bounds.locs` exceeds 64.
#[must_use]
pub fn generate(bounds: &GenBounds) -> Vec<Prog> {
    assert!(bounds.locs <= 64, "location masks are 64 bits wide");
    let seqs = core_sequences(bounds.locs, bounds.max_insts);
    let masks: Vec<SeqMask> = seqs.iter().map(|s| SeqMask::of(s)).collect();
    let mut canon = Canonicalizer::new(bounds.cores, bounds.locs);
    let mut shapes: BTreeSet<Prog> = BTreeSet::new();
    let mut cores: Vec<&[Inst]> = Vec::with_capacity(bounds.cores);
    let mut pick = vec![0usize; bounds.cores];
    loop {
        if pick_is_live(&pick, &masks) {
            cores.clear();
            cores.extend(pick.iter().map(|&i| seqs[i].as_slice()));
            let shape = canon.canonical(&cores);
            if !shapes.contains(shape) {
                shapes.insert(shape.clone());
            }
        }
        // Next non-decreasing pick: bump the rightmost digit that can
        // grow and reset every digit after it to the same index.
        let Some(d) = (0..pick.len()).rev().find(|&d| pick[d] + 1 < seqs.len()) else {
            break;
        };
        let next = pick[d] + 1;
        pick[d..].fill(next);
    }
    stride(shapes, bounds.max_shapes)
}

/// At most `max_shapes` of `shapes`, an even stride over their order.
fn stride(shapes: BTreeSet<Prog>, max_shapes: usize) -> Vec<Prog> {
    let len = shapes.len();
    if len <= max_shapes {
        return shapes.into_iter().collect();
    }
    // The kept indices `k * len / max_shapes`, `k < max_shapes`, step by
    // at least one, and `k = max_shapes` names none.
    let mut kept = 0;
    shapes
        .into_iter()
        .enumerate()
        .filter(|&(i, _)| {
            let keep = i == kept * len / max_shapes;
            kept += usize::from(keep);
            keep
        })
        .map(|(_, shape)| shape)
        .collect()
}

/// Generates the union of several bounds boxes (e.g.
/// [`GenBounds::smoke_suite`]), in box order.
#[must_use]
pub fn generate_suite(suite: &[GenBounds]) -> Vec<Prog> {
    suite.iter().flat_map(generate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_sim::SplitMix64;

    fn st(loc: Loc, val: u64) -> Inst {
        Inst::St { loc, val }
    }

    // The collecting generator, kept as the streaming one's reference:
    // every raw pick materialized, then canonicalized by building one
    // fresh program per core permutation, then deduplicated and capped.

    /// Re-numbers store values canonically: per location, 1, 2, ... in
    /// (core, program-order) scan order.
    fn assign_values(prog: &mut Prog) {
        let locs = prog.num_locs();
        let mut next = vec![1u64; locs];
        for core in &mut prog.cores {
            for inst in core {
                if let Inst::St { loc, val } = inst {
                    *val = next[*loc];
                    next[*loc] += 1;
                }
            }
        }
    }

    /// Relabels locations by first appearance in (core, program-order)
    /// scan order and re-numbers store values.
    fn compact(prog: &Prog) -> Prog {
        let mut map: Vec<Option<Loc>> = vec![None; prog.num_locs()];
        let mut next = 0usize;
        let mut remap = |loc: Loc, map: &mut Vec<Option<Loc>>| {
            *map[loc].get_or_insert_with(|| {
                let l = next;
                next += 1;
                l
            })
        };
        let cores = prog
            .cores
            .iter()
            .map(|insts| {
                insts
                    .iter()
                    .map(|i| match *i {
                        Inst::St { loc, val } => Inst::St {
                            loc: remap(loc, &mut map),
                            val,
                        },
                        Inst::Ld { loc } => Inst::Ld {
                            loc: remap(loc, &mut map),
                        },
                        Inst::Fl { loc } => Inst::Fl {
                            loc: remap(loc, &mut map),
                        },
                        other => other,
                    })
                    .collect()
            })
            .collect();
        let mut p = Prog { cores };
        assign_values(&mut p);
        p
    }

    /// [`canonicalize`], one fresh program per core permutation.
    fn canonicalize_reference(prog: &Prog) -> Prog {
        permutations(prog.num_cores())
            .into_iter()
            .map(|perm| {
                compact(&Prog {
                    cores: perm.iter().map(|&c| prog.cores[c].clone()).collect(),
                })
            })
            .min()
            .expect("at least the identity permutation")
    }

    /// Every non-decreasing pick that passes the program-level filters,
    /// materialized, with the filters written out as closures.
    fn enumerate_raw(bounds: &GenBounds) -> Vec<Prog> {
        let seqs = core_sequences(bounds.locs, bounds.max_insts);
        let mut out = Vec::new();
        let mut pick = vec![0usize; bounds.cores];
        loop {
            let cores: Vec<&[Inst]> = pick.iter().map(|&i| seqs[i].as_slice()).collect();
            let stores = cores
                .iter()
                .copied()
                .flatten()
                .filter(|i| matches!(i, Inst::St { .. }))
                .count();
            let stored_by_other = |core: usize, loc: Loc| {
                cores.iter().enumerate().any(|(c, insts)| {
                    c != core
                        && insts
                            .iter()
                            .any(|j| matches!(*j, Inst::St { loc: l, .. } if l == loc))
                })
            };
            let loads_ok = cores.iter().enumerate().all(|(c, insts)| {
                insts.iter().all(|i| match *i {
                    Inst::Ld { loc } => stored_by_other(c, loc),
                    _ => true,
                })
            });
            if (2..=MAX_GEN_STORES).contains(&stores) && loads_ok {
                let mut p = Prog {
                    cores: cores.iter().map(|c| c.to_vec()).collect(),
                };
                assign_values(&mut p);
                out.push(p);
            }
            let Some(d) = (0..pick.len()).rev().find(|&d| pick[d] + 1 < seqs.len()) else {
                break;
            };
            let next = pick[d] + 1;
            pick[d..].fill(next);
        }
        out
    }

    /// Deduplicates a raw shape list by canonical isomorphism and caps
    /// the result with an even stride over the sorted canonical set.
    fn dedup_and_cap(raw: &[Prog], max_shapes: usize) -> Vec<Prog> {
        let set: BTreeSet<Prog> = raw.iter().map(canonicalize_reference).collect();
        let all: Vec<Prog> = set.into_iter().collect();
        if all.len() <= max_shapes {
            return all;
        }
        (0..max_shapes)
            .map(|i| all[i * all.len() / max_shapes].clone())
            .collect()
    }

    /// The collecting generator: [`generate`]'s reference.
    fn generate_reference(bounds: &GenBounds) -> Vec<Prog> {
        dedup_and_cap(&enumerate_raw(bounds), bounds.max_shapes)
    }

    /// `generate_suite(&GenBounds::full_suite())`'s [`digest`].
    const FULL_SUITE_DIGEST: u64 = 0xbf0a_b629_eedb_5b58;

    /// FNV-1a over each shape's litmus notation, one line per shape.
    fn digest(shapes: &[Prog]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        for shape in shapes {
            for b in shape.display().bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// [`core_sequences`] as it was collected before: each level cloned
    /// once into the frontier and again into the output.
    fn core_sequences_reference(locs: usize, max_insts: usize) -> Vec<Vec<Inst>> {
        let alpha = alphabet(locs);
        let mut out: Vec<Vec<Inst>> = Vec::new();
        let mut frontier: Vec<Vec<Inst>> = vec![Vec::new()];
        for _ in 0..max_insts {
            let mut next_frontier = Vec::new();
            for seq in &frontier {
                for &inst in &alpha {
                    if extends(seq, inst) {
                        let mut s = seq.clone();
                        s.push(inst);
                        next_frontier.push(s);
                    }
                }
            }
            out.extend(next_frontier.iter().cloned());
            frontier = next_frontier;
        }
        out
    }

    #[test]
    fn core_sequences_match_the_reference_in_order() {
        for (locs, max_insts) in [(1, 1), (2, 3), (2, 5), (3, 3), (3, 6)] {
            assert_eq!(
                core_sequences(locs, max_insts),
                core_sequences_reference(locs, max_insts)
            );
        }
    }

    #[test]
    fn canonicalize_matches_the_reference() {
        for bounds in [
            GenBounds {
                cores: 2,
                locs: 3,
                max_insts: 3,
                max_shapes: usize::MAX,
            },
            GenBounds {
                cores: 3,
                locs: 2,
                max_insts: 2,
                max_shapes: usize::MAX,
            },
        ] {
            for p in enumerate_raw(&bounds) {
                assert_eq!(
                    canonicalize(&p),
                    canonicalize_reference(&p),
                    "{}",
                    p.display()
                );
            }
        }
    }

    #[test]
    fn generate_matches_the_collecting_reference_on_every_suite_box() {
        for bounds in GenBounds::smoke_suite()
            .into_iter()
            .chain(GenBounds::full_suite())
        {
            assert_eq!(generate(&bounds), generate_reference(&bounds), "{bounds:?}");
        }
    }

    #[test]
    fn full_suite_count_and_digest_are_pinned() {
        // Taken from the collecting generator this one replaced.
        let shapes = generate_suite(&GenBounds::full_suite());
        assert_eq!(shapes.len(), 1152);
        assert_eq!(digest(&shapes), FULL_SUITE_DIGEST);
    }

    /// A box past the suites: 3 cores, 3 locations, 3 instructions.
    #[test]
    #[ignore = "seconds in release; the collecting reference peaks near 1 GB"]
    fn three_core_three_location_box_matches_the_reference() {
        let bounds = GenBounds {
            cores: 3,
            locs: 3,
            max_insts: 3,
            max_shapes: 512,
        };
        assert_eq!(generate(&bounds), generate_reference(&bounds));
    }

    #[test]
    fn interleaving_counts_are_multinomial() {
        assert_eq!(interleavings(&[2, 2]).len(), 6);
        assert_eq!(interleavings(&[1, 1, 1]).len(), 6);
        assert_eq!(interleavings(&[3]).len(), 1);
        let all = interleavings(&[2, 1]);
        assert_eq!(all, vec![vec![0, 0, 1], vec![0, 1, 0], vec![1, 0, 0]]);
    }

    #[test]
    fn isomorphic_shapes_canonicalize_identically() {
        // Same shape through a core swap + location rename + value
        // renumbering.
        let a = Prog {
            cores: vec![
                vec![st(0, 1), st(1, 1)],
                vec![Inst::Ld { loc: 0 }, st(1, 2)],
            ],
        };
        let b = Prog {
            cores: vec![
                vec![Inst::Ld { loc: 1 }, st(0, 7)],
                vec![st(1, 3), st(0, 9)],
            ],
        };
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    #[test]
    fn canonicalization_is_idempotent() {
        for p in generate(&GenBounds {
            cores: 2,
            locs: 2,
            max_insts: 2,
            max_shapes: usize::MAX,
        }) {
            assert_eq!(canonicalize(&p), p);
        }
    }

    #[test]
    fn dedup_is_order_independent() {
        let bounds = GenBounds {
            cores: 2,
            locs: 2,
            max_insts: 2,
            max_shapes: 64,
        };
        let mut raw = enumerate_raw(&bounds);
        let reference = dedup_and_cap(&raw, bounds.max_shapes);
        // Fisher-Yates shuffle of the generation order.
        let mut rng = SplitMix64::new(0xD150_4DE5);
        for i in (1..raw.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            raw.swap(i, j);
        }
        assert_eq!(dedup_and_cap(&raw, bounds.max_shapes), reference);
    }

    /// Brute-force reference: every *ordered* tuple of live per-core
    /// sequences, core permutations included, through the two filters
    /// written out directly.
    fn ordered_tuple_raw(bounds: &GenBounds) -> Vec<Prog> {
        let seqs = core_sequences(bounds.locs, bounds.max_insts);
        let mut out = Vec::new();
        let mut pick = vec![0usize; bounds.cores];
        'tuples: loop {
            let mut p = Prog {
                cores: pick.iter().map(|&i| seqs[i].clone()).collect(),
            };
            let stores = p.stores();
            let loads_ok = p.cores.iter().enumerate().all(|(c, insts)| {
                insts.iter().all(|i| match *i {
                    Inst::Ld { loc } => stores.iter().any(|s| s.loc == loc && s.core != c),
                    _ => true,
                })
            });
            if (2..=MAX_GEN_STORES).contains(&stores.len()) && loads_ok {
                assign_values(&mut p);
                out.push(p);
            }
            for digit in pick.iter_mut().rev() {
                *digit += 1;
                if *digit < seqs.len() {
                    continue 'tuples;
                }
                *digit = 0;
            }
            return out;
        }
    }

    #[test]
    fn skipping_core_permutations_keeps_the_ordered_tuple_suite() {
        for (cores, locs, max_insts) in [(2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)] {
            let bounds = |max_shapes| GenBounds {
                cores,
                locs,
                max_insts,
                max_shapes,
            };
            let reference = ordered_tuple_raw(&bounds(usize::MAX));
            let raw = enumerate_raw(&bounds(usize::MAX));
            assert!(
                raw.len() < reference.len(),
                "{cores} cores: {} multiset picks of {} ordered tuples",
                raw.len(),
                reference.len()
            );
            for max_shapes in [usize::MAX, 96, 7] {
                let shapes = generate(&bounds(max_shapes));
                let what = format!(
                    "{cores} cores, {locs} locations, {max_insts} instructions, cap {max_shapes}"
                );
                assert_eq!(shapes, dedup_and_cap(&reference, max_shapes), "{what}");
                assert_eq!(shapes, dedup_and_cap(&raw, max_shapes), "{what}");
            }
        }
    }

    #[test]
    fn generated_shapes_respect_bounds() {
        let bounds = GenBounds {
            cores: 2,
            locs: 2,
            max_insts: 3,
            max_shapes: 128,
        };
        let shapes = generate(&bounds);
        assert!(shapes.len() <= bounds.max_shapes);
        assert!(shapes.len() >= 64, "space is rich: got {}", shapes.len());
        for p in &shapes {
            assert_eq!(p.num_cores(), bounds.cores);
            assert!(p.num_locs() <= bounds.locs);
            assert!(p
                .cores
                .iter()
                .all(|c| (1..=bounds.max_insts).contains(&c.len())));
            let stores = p.stores().len();
            assert!((2..=MAX_GEN_STORES).contains(&stores));
        }
    }

    #[test]
    fn smoke_suite_is_large_enough_for_the_gate() {
        let shapes = generate_suite(&GenBounds::smoke_suite());
        assert!(shapes.len() >= 200, "suite has {} shapes", shapes.len());
        // All distinct even across bounds boxes.
        let set: std::collections::BTreeSet<_> = shapes.iter().collect();
        assert_eq!(set.len(), shapes.len());
    }
}
