//! YCSB-style key-value service at server scale (extension).
//!
//! A fixed-slot KV store over millions of keys, driven the way a loaded
//! server sees traffic rather than the paper's uniform microbenchmark
//! loops:
//!
//! * **Zipfian key choice** — an O(1) alias-table sampler
//!   ([`bbb_sim::ZipfSampler`], s = 0.99 by default; its table is built
//!   once per process and shared by every point) concentrates traffic
//!   on a hot set, which is precisely where persistency modes separate:
//!   hot lines coalesce in a bbPB but are flushed over and over by
//!   software strict persistency.
//! * **Read/update/insert mixes** — YCSB-style A/B/C request mixes
//!   ([`KvMix`]).
//! * **Open-loop bursty arrivals** — requests come in bursts separated by
//!   think-time [`Op::Compute`] gaps, so store buffers and persist
//!   buffers see the bursty pressure of real frontends instead of a
//!   smooth closed loop.
//! * **Multi-tenant interleaving** — the keyspace is partitioned into
//!   tenants and every core round-robins across them, so cores share hot
//!   lines and bbPB entries migrate.
//!
//! Each request is one [`Workload`] batch, generated from per-core state
//! that is a PRNG and a handful of cursors, so memory is O(live keys) for
//! the table plus O(cores), independent of how many ops a run executes.
//! [`Batched`](bbb_core::Batched) feeds the requests to the run loop one
//! op at a time.
//!
//! # Slot layout and crash discipline
//!
//! Each key owns one 64-byte slot (its own cache line):
//!
//! ```text
//! +0  tag      KV_TAG ^ global_key_index   (written once; publish-last on insert)
//! +8  version  monotonically increasing    (update publish word)
//! +16 payload  payload_of(key, version)    (written before version)
//! ```
//!
//! Updates write payload then version; inserts write payload, version,
//! then the tag. Under strict persistency a crash can lose only a suffix,
//! so a recovered slot always shows `payload_of(key, v)` for a version
//! `v` within a small window of the recovered version word (concurrent
//! hot-key updates by different cores can interleave between the two
//! stores — see [`RACE_WINDOW`]).

use bbb_core::Workload;
use bbb_cpu::Op;
use bbb_mem::{ByteStore, NvmImage, PAGE_BYTES};
use bbb_sim::{Addr, SplitMix64, ZipfSampler};

/// High-bits tag marking a live KV slot (`"KVBB"` in ASCII-ish hex).
pub const KV_TAG: u64 = 0x4B56_4242_0000_0000;

/// Slot stride: one cache line per key.
pub const SLOT_BYTES: u64 = 64;

/// The odd multiplier that scatters logical key indices over a tenant's
/// slots (see [`KvLayout::slot_addr`]).
const SCATTER_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// `SCATTER_MUL⁻¹ mod 2⁶⁴`. Any odd `m` is its own inverse mod 8, and each
/// Newton step `x ← x·(2 − m·x)` doubles the correct low bits (3 → 96).
/// Reducing mod a power-of-two capacity keeps it an inverse there too.
const SCATTER_INV: u64 = {
    let mut x = SCATTER_MUL;
    let mut step = 0;
    while step < 5 {
        x = x.wrapping_mul(2u64.wrapping_sub(SCATTER_MUL.wrapping_mul(x)));
        step += 1;
    }
    x
};
const _: () = assert!(SCATTER_MUL.wrapping_mul(SCATTER_INV) == 1);

/// How far the payload's version may run ahead of (or behind) the
/// version word in a consistent image. Concurrent updates of the same
/// hot key from different cores interleave their payload/version store
/// pairs; each core writes a pair computed from the same read, so the
/// divergence is bounded by the core count. 8 cores is the paper's
/// machine; 2× that is a comfortable margin and still leaves a ~2⁻⁵⁹
/// chance of accepting random corruption.
pub const RACE_WINDOW: u64 = 16;

/// Burst sizes are 1..=BURST_MAX requests (open-loop arrivals).
pub(crate) const BURST_MAX: u64 = 8;
/// Think-time gap between bursts: BASE + uniform(SPREAD) cycles.
pub(crate) const GAP_BASE: u32 = 120;
pub(crate) const GAP_SPREAD: u64 = 400;

/// SplitMix64 finalizer: the deterministic value hash behind tags and
/// payloads (self-identifying values, like the array workloads' TAG|i).
#[must_use]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Appends a persisting store, followed by `clwb`+`sfence` when
/// `instrument` is on (the PMEM baseline).
pub(crate) fn push_store(ops: &mut Vec<Op>, instrument: bool, addr: Addr, value: u64) {
    ops.push(Op::store_u64(addr, value));
    if instrument {
        ops.extend([Op::Clwb { addr }, Op::Fence]);
    }
}

/// Ops a request's `Vec` has room for up front. Every KV request and
/// every uninstrumented WAL append, with an epoch fence, fits, so the
/// vector is allocated once per request instead of regrown from empty.
const REQUEST_CAPACITY: usize = 16;

/// Starts a request's ops: a think-time gap opens each burst of
/// 1..=`BURST_MAX` requests (open-loop arrivals).
pub(crate) fn open_request(rng: &mut SplitMix64, burst_left: &mut u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(REQUEST_CAPACITY);
    if *burst_left == 0 {
        *burst_left = 1 + rng.next_below(BURST_MAX);
        let gap = GAP_BASE + rng.next_below(GAP_SPREAD) as u32;
        ops.push(Op::Compute { cycles: gap });
    }
    *burst_left -= 1;
    ops
}

/// YCSB-style request mixes (read% / update% / insert%).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KvMix {
    /// Write-heavy: 50% read, 40% update, 10% insert.
    A,
    /// Read-mostly: 95% read, 4% update, 1% insert.
    B,
    /// Read-only: 100% read.
    C,
}

impl KvMix {
    /// `(read%, update%)` — insert% is the remainder.
    #[must_use]
    pub const fn percentages(self) -> (u64, u64) {
        match self {
            KvMix::A => (50, 40),
            KvMix::B => (95, 4),
            KvMix::C => (100, 0),
        }
    }

    /// Mix letter for names/reports.
    #[must_use]
    pub const fn letter(self) -> &'static str {
        match self {
            KvMix::A => "a",
            KvMix::B => "b",
            KvMix::C => "c",
        }
    }
}

/// Keyspace geometry shared by the workload and the recovery checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvLayout {
    /// First slot address (block-aligned).
    pub base: Addr,
    /// Tenant count (keyspace partitions).
    pub tenants: usize,
    /// Slot capacity per tenant (power of two; includes insert headroom).
    pub cap_per_tenant: u64,
    /// Keys per tenant populated at setup.
    pub initial_per_tenant: u64,
}

impl KvLayout {
    /// Lays out `keys` initial keys across `tenants` partitions starting
    /// at `base`, with headroom for up to `max_inserts` inserted keys.
    ///
    /// # Panics
    ///
    /// Panics if `keys` or `tenants` is zero.
    #[must_use]
    pub fn new(base: Addr, keys: u64, tenants: usize, max_inserts: u64) -> Self {
        assert!(keys > 0 && tenants > 0, "empty keyspace");
        let initial_per_tenant = (keys / tenants as u64).max(1);
        let headroom = max_inserts / tenants as u64 + 1;
        let cap_per_tenant = (initial_per_tenant + headroom).next_power_of_two();
        Self {
            base: base.next_multiple_of(SLOT_BYTES),
            tenants,
            cap_per_tenant,
            initial_per_tenant,
        }
    }

    /// Total bytes of slot storage.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        self.tenants as u64 * self.cap_per_tenant * SLOT_BYTES
    }

    /// Global key index of `(tenant, idx)` — the identity baked into tags
    /// and payloads.
    #[must_use]
    pub fn global_key(&self, tenant: usize, idx: u64) -> u64 {
        tenant as u64 * self.cap_per_tenant + idx
    }

    /// Slot address of `(tenant, idx)`. Logical indices are scattered
    /// across the tenant's region by an odd-multiplier bijection so the
    /// Zipfian hot set is spread over the address space instead of
    /// packed at the region start.
    #[must_use]
    pub fn slot_addr(&self, tenant: usize, idx: u64) -> Addr {
        let scattered = idx.wrapping_mul(SCATTER_MUL) & (self.cap_per_tenant - 1);
        self.position_addr(tenant, scattered)
    }

    /// Address of scattered position `s` of `tenant`'s region.
    fn position_addr(&self, tenant: usize, s: u64) -> Addr {
        self.base + (tenant as u64 * self.cap_per_tenant + s) * SLOT_BYTES
    }

    /// The key at scattered position `s` of a tenant's region:
    /// `idx = s·M⁻¹ mod cap`, the inverse of [`KvLayout::slot_addr`]'s
    /// odd-multiplier scatter.
    #[must_use]
    pub fn key_at(&self, s: u64) -> u64 {
        s.wrapping_mul(SCATTER_INV) & (self.cap_per_tenant - 1)
    }

    /// Every slot of the keyspace, insert headroom included, as one
    /// [`PageRun`] per page and tenant, in ascending address order.
    /// Tenant regions are contiguous, so the walk goes tenant by tenant,
    /// and within one over scattered positions `s = 0, 1, …`; a page that
    /// two tenants' regions share yields one run for each. Set-up and the
    /// recovery oracle both work a run at a time, one page lookup each.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not slot-aligned ([`KvLayout::new`] aligns it).
    pub fn page_runs(&self) -> impl Iterator<Item = PageRun> {
        const PAGE: u64 = PAGE_BYTES as u64;
        assert_eq!(self.base % SLOT_BYTES, 0, "slots are block-aligned");
        let layout = *self;
        (0..layout.tenants).flat_map(move |tenant| {
            let mut first = 0;
            std::iter::from_fn(move || {
                (first < layout.cap_per_tenant).then(|| {
                    let addr = layout.position_addr(tenant, first);
                    let offset = addr % PAGE;
                    let slots = ((PAGE - offset) / SLOT_BYTES).min(layout.cap_per_tenant - first);
                    let run = PageRun {
                        tenant,
                        first,
                        slots,
                        page: addr - offset,
                        offset: offset as usize,
                    };
                    first += slots;
                    run
                })
            })
        })
    }

    /// Expected tag word of a live slot.
    #[must_use]
    pub fn tag_of(&self, tenant: usize, idx: u64) -> u64 {
        KV_TAG ^ self.global_key(tenant, idx)
    }

    /// Payload word for `(tenant, idx)` at `version`.
    #[must_use]
    pub fn payload_of(&self, tenant: usize, idx: u64, version: u64) -> u64 {
        payload_at(self.global_key(tenant, idx), version)
    }
}

/// Payload word of global key `key` at `version`.
fn payload_at(key: u64, version: u64) -> u64 {
    mix64(key ^ version.rotate_left(17))
}

/// One tenant's slots on one page ([`KvLayout::page_runs`]): scattered
/// positions `first..first + slots` of `tenant`'s region, in address
/// order, starting `offset` bytes into the page at `page`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    /// The tenant whose region holds the run.
    pub tenant: usize,
    /// Scattered position of the run's first slot.
    pub first: u64,
    /// Slots in the run (at least one).
    pub slots: u64,
    /// Base address of the page holding the run.
    pub page: Addr,
    /// Byte offset of the run's first slot within that page.
    pub offset: usize,
}

impl PageRun {
    /// The byte range of the run within its page.
    #[must_use]
    pub fn bytes(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.slots as usize * SLOT
    }
}

/// [`SLOT_BYTES`] as a slice length.
const SLOT: usize = SLOT_BYTES as usize;

/// The little-endian word at field `i` (0 tag, 1 version, 2 payload) of a
/// slot's bytes.
fn field(slot: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(slot[8 * i..8 * i + 8].try_into().expect("8-byte field"))
}

/// Construction parameters for [`KvWorkload`].
#[derive(Debug, Clone, Copy)]
pub struct KvSpec {
    /// Initial keys across all tenants (≥ 1M for the server-scale runs).
    pub keys: u64,
    /// Keyspace partitions interleaved across cores.
    pub tenants: usize,
    /// Zipf exponent (0.99 = YCSB default; 0 = uniform).
    pub zipf_s: f64,
    /// Request mix.
    pub mix: KvMix,
    /// Requests each core serves before its stream ends.
    pub per_core_requests: u64,
    /// Master seed.
    pub seed: u64,
    /// Emit `clwb`+`sfence` after each persisting store (PMEM baseline).
    pub instrument: bool,
}

/// The server-scale KV workload. See module docs.
#[derive(Debug)]
pub struct KvWorkload {
    name: String,
    layout: KvLayout,
    spec: KvSpec,
    zipf: ZipfSampler,
    /// Live key count per tenant (inserts append; generation-time state).
    live: Vec<u64>,
    // Per-core generation state.
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    burst_left: Vec<u64>,
    req_seq: Vec<u64>,
}

impl KvWorkload {
    /// Builds the workload for a `cores`-core machine with slots at
    /// `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the layout's tenant partitions are empty.
    #[must_use]
    pub fn new(layout: KvLayout, spec: KvSpec, cores: usize) -> Self {
        assert!(layout.initial_per_tenant > 0, "empty tenant partition");
        let mut master = SplitMix64::new(spec.seed);
        let rngs = (0..cores).map(|_| master.split()).collect();
        Self {
            name: format!("kv-{}", spec.mix.letter()),
            zipf: ZipfSampler::new(layout.initial_per_tenant, spec.zipf_s),
            live: vec![layout.initial_per_tenant; layout.tenants],
            rngs,
            remaining: vec![spec.per_core_requests; cores],
            burst_left: vec![0; cores],
            req_seq: (0..cores as u64).collect(),
            layout,
            spec,
        }
    }

    /// The keyspace geometry (for recovery checks and reports).
    #[must_use]
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    /// The ops of `core`'s next request.
    fn generate_request(&mut self, core: usize, arch: &ByteStore) -> Vec<Op> {
        let mut ops = open_request(&mut self.rngs[core], &mut self.burst_left[core]);
        let (layout, instrument) = (self.layout, self.spec.instrument);

        // Multi-tenant interleaving: successive requests rotate tenants,
        // offset by core so tenants are shared across cores.
        let tenant = (self.req_seq[core] % layout.tenants as u64) as usize;
        self.req_seq[core] += layout.tenants as u64 - 1; // coprime walk
        let (read_pct, update_pct) = self.spec.mix.percentages();
        let roll = self.rngs[core].next_below(100);
        let rank = self.zipf.sample(&mut self.rngs[core]);

        if roll < read_pct {
            // Read: version + payload loads.
            let slot = layout.slot_addr(tenant, rank);
            ops.extend([Op::load_u64(slot + 8), Op::load_u64(slot + 16)]);
        } else if roll < read_pct + update_pct || self.live[tenant] >= layout.cap_per_tenant {
            // Update (inserts degrade to updates once headroom is spent):
            // read the committed version, publish payload then version.
            let slot = layout.slot_addr(tenant, rank);
            let v = arch.read_u64(slot + 8) + 1;
            ops.push(Op::load_u64(slot + 8));
            let payload = layout.payload_of(tenant, rank, v);
            push_store(&mut ops, instrument, slot + 16, payload);
            push_store(&mut ops, instrument, slot + 8, v);
        } else {
            // Insert: claim the next logical index (generation-time state,
            // so concurrent cores never claim the same slot), publish the
            // tag last — a torn insert leaves tag 0 and is simply absent.
            let idx = self.live[tenant];
            self.live[tenant] += 1;
            let slot = layout.slot_addr(tenant, idx);
            let payload = layout.payload_of(tenant, idx, 1);
            push_store(&mut ops, instrument, slot + 16, payload);
            push_store(&mut ops, instrument, slot + 8, 1);
            push_store(&mut ops, instrument, slot, layout.tag_of(tenant, idx));
        }
        ops
    }
}

impl Workload for KvWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    /// Populates the initial keys page by page ([`KvLayout::page_runs`]):
    /// each run holding a live slot takes its page once through
    /// [`ByteStore::page_mut`] and has its live slots' tag, version and
    /// payload words written straight into it. Bytes outside those
    /// 24-byte prefixes keep their contents, and a page with no live slot
    /// is never written, so the result — contents and resident pages
    /// alike — equals writing each slot's three words in place.
    fn setup(&mut self, arch: &mut ByteStore) {
        let layout = self.layout;
        let live = |s: u64| layout.key_at(s) < layout.initial_per_tenant;
        for run in layout.page_runs() {
            if !(run.first..run.first + run.slots).any(live) {
                continue;
            }
            let page = &mut arch.page_mut(run.page)[run.bytes()];
            for (s, slot) in (run.first..).zip(page.chunks_exact_mut(SLOT)) {
                let idx = layout.key_at(s);
                if idx >= layout.initial_per_tenant {
                    continue;
                }
                let key = layout.global_key(run.tenant, idx);
                let words = [KV_TAG ^ key, 1, payload_at(key, 1)];
                for (bytes, word) in slot.chunks_exact_mut(8).zip(words) {
                    bytes.copy_from_slice(&word.to_le_bytes());
                }
            }
        }
    }

    fn next_batch(&mut self, core: usize, arch: &mut ByteStore) -> Option<Vec<Op>> {
        if self.remaining[core] == 0 {
            return None;
        }
        self.remaining[core] -= 1;
        Some(self.generate_request(core, arch))
    }
}

/// Verifies a post-crash image against the KV slot invariants. Every
/// initially-populated slot, and every inserted slot whose tag was
/// published, must hold `payload_of(key, v)` for a `v` within
/// [`RACE_WINDOW`] of the recovered version word. Returns the number of
/// live slots verified.
///
/// The walk goes page by page in address order ([`KvLayout::page_runs`]):
/// each run looks its page up once ([`NvmImage::page`]; an absent page
/// reads as zeros) and reads tag, version and payload straight from the
/// page's bytes. The payload is tried against the version word itself
/// before the rest of the window: that is the usual match, and it lies in
/// the window, so trying it first changes no verdict.
///
/// # Errors
///
/// Returns a description of the lowest-address inconsistent slot —
/// expected for uninstrumented PMEM images, never for battery-backed
/// modes.
pub fn check_kv_recovery(image: &NvmImage, layout: &KvLayout) -> Result<u64, String> {
    static ABSENT: [u8; PAGE_BYTES] = [0; PAGE_BYTES];
    let mut recovered = 0u64;
    for run in layout.page_runs() {
        let tenant = run.tenant;
        let page = image.page(run.page).unwrap_or(&ABSENT);
        for (s, slot) in (run.first..).zip(page[run.bytes()].chunks_exact(SLOT)) {
            let idx = layout.key_at(s);
            let key = layout.global_key(tenant, idx);
            let tag = field(slot, 0);
            if tag == 0 {
                // Never populated (insert headroom, or a torn insert whose
                // publish-last tag did not land).
                if idx < layout.initial_per_tenant {
                    return Err(format!(
                        "tenant {tenant} key {idx}: initial slot lost its tag"
                    ));
                }
                continue;
            }
            if tag != KV_TAG ^ key {
                let at = layout.position_addr(tenant, s);
                return Err(format!(
                    "tenant {tenant} key {idx}: bad tag {tag:#x} at {at:#x}"
                ));
            }
            let (version, payload) = (field(slot, 1), field(slot, 2));
            if version == 0 {
                return Err(format!(
                    "tenant {tenant} key {idx}: tagged slot at version 0"
                ));
            }
            let consistent = payload_at(key, version) == payload || {
                let lo = version.saturating_sub(RACE_WINDOW);
                let hi = version.saturating_add(RACE_WINDOW);
                (lo..=hi).any(|v| payload_at(key, v) == payload)
            };
            if !consistent {
                return Err(format!(
                    "tenant {tenant} key {idx}: payload {payload:#x} matches no version near {version}"
                ));
            }
            recovered += 1;
        }
    }
    Ok(recovered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue_feed::QueueFeed;
    use bbb_core::{PersistencyMode, System};
    use bbb_sim::{AddressMap, SimConfig};

    fn small_layout(cfg: &SimConfig) -> KvLayout {
        let map = AddressMap::new(cfg);
        KvLayout::new(map.persistent_base(), 256, 4, 128)
    }

    fn spec(mix: KvMix) -> KvSpec {
        KvSpec {
            keys: 256,
            tenants: 4,
            zipf_s: 0.99,
            mix,
            per_core_requests: 64,
            seed: 0xB0B,
            instrument: false,
        }
    }

    #[test]
    fn layout_fits_and_scatters_bijectively() {
        let layout = KvLayout::new(0x1000, 1000, 4, 100);
        assert!(layout.cap_per_tenant.is_power_of_two());
        assert!(layout.cap_per_tenant >= layout.initial_per_tenant);
        // The odd-multiplier scatter is a bijection on 0..cap.
        let mut seen = std::collections::HashSet::new();
        for idx in 0..layout.cap_per_tenant {
            assert!(seen.insert(layout.slot_addr(0, idx)));
        }
    }

    /// The reference warm start: three in-place word writes per initial
    /// key, in logical order.
    fn setup_per_slot(layout: &KvLayout, arch: &mut ByteStore) {
        for tenant in 0..layout.tenants {
            for idx in 0..layout.initial_per_tenant {
                let slot = layout.slot_addr(tenant, idx);
                arch.write_u64(slot, layout.tag_of(tenant, idx));
                arch.write_u64(slot + 8, 1);
                arch.write_u64(slot + 16, layout.payload_of(tenant, idx, 1));
            }
        }
    }

    /// Layouts covering unaligned bases, odd tenant counts, tenant regions
    /// smaller than a page, partitions that are not powers of two, and
    /// headroom so wide that most pages hold no live slot.
    fn layouts() -> Vec<KvLayout> {
        let mut out = Vec::new();
        for k in [0, 1, 37, 63] {
            for tenants in [1, 3, 4] {
                for (keys, inserts) in [(7, 0), (1000, 100), (3000, 5000), (10, 20_000)] {
                    out.push(KvLayout::new(0x1000 + 64 * k, keys, tenants, inserts));
                }
            }
        }
        out
    }

    /// The reference address walk: every slot of the keyspace, insert
    /// headroom included, as `(tenant, idx, slot_addr)` in ascending
    /// address order, each key computed from its scattered position.
    fn slots_by_address(layout: &KvLayout) -> impl Iterator<Item = (usize, u64, Addr)> + '_ {
        (0..layout.tenants).flat_map(move |tenant| {
            let region = layout.base + tenant as u64 * layout.cap_per_tenant * SLOT_BYTES;
            (0..layout.cap_per_tenant)
                .map(move |s| (tenant, layout.key_at(s), region + s * SLOT_BYTES))
        })
    }

    #[test]
    fn address_walk_visits_every_slot_once_in_order() {
        for layout in layouts() {
            let walk: Vec<(usize, u64, Addr)> = slots_by_address(&layout).collect();
            assert_eq!(
                walk.len() as u64,
                layout.tenants as u64 * layout.cap_per_tenant
            );
            assert!(walk.windows(2).all(|w| w[0].2 < w[1].2), "{layout:?}");
            let mut keys = std::collections::HashSet::new();
            for &(tenant, idx, slot) in &walk {
                assert_eq!(slot, layout.slot_addr(tenant, idx), "{layout:?}");
                assert!(
                    keys.insert((tenant, idx)),
                    "{layout:?}: ({tenant}, {idx}) twice"
                );
            }
        }
    }

    #[test]
    fn page_runs_tile_the_address_walk() {
        for layout in layouts() {
            let mut walk = slots_by_address(&layout);
            let mut last = None;
            for run in layout.page_runs() {
                assert!(run.slots > 0 && run.bytes().end <= PAGE_BYTES, "{run:?}");
                // One run per page and tenant.
                assert_ne!(
                    last.replace((run.tenant, run.page)),
                    Some((run.tenant, run.page))
                );
                for s in run.first..run.first + run.slots {
                    let at = run.page + (run.offset + (s - run.first) as usize * SLOT) as u64;
                    let key = (run.tenant, layout.key_at(s), at);
                    assert_eq!(walk.next(), Some(key), "{layout:?} {run:?}");
                }
            }
            assert_eq!(walk.next(), None, "{layout:?}");
        }
    }

    #[test]
    fn page_order_setup_matches_per_slot_writes() {
        let fill = [0xA5u8; 2 * PAGE_BYTES];
        for layout in layouts() {
            // Non-zero bytes before and after the region, on its edge pages
            // (and beyond), and inside one slot's unused tail: all must
            // survive.
            let mut reference = ByteStore::new();
            reference.write(layout.base - PAGE_BYTES as u64, &fill[..PAGE_BYTES]);
            reference.write(layout.base + layout.bytes(), &fill);
            reference.write(layout.slot_addr(0, 0) + 24, &fill[..40]);
            let mut paged = reference.clone();

            setup_per_slot(&layout, &mut reference);
            let spec = KvSpec {
                keys: layout.initial_per_tenant * layout.tenants as u64,
                tenants: layout.tenants,
                ..spec(KvMix::A)
            };
            KvWorkload::new(layout, spec, 2).setup(&mut paged);

            assert_eq!(
                paged.resident_pages(),
                reference.resident_pages(),
                "{layout:?}"
            );
            assert!(paged == reference, "{layout:?}: contents differ");
        }
    }

    /// The reference oracle: the word-by-word walk of the reference
    /// address order, one page-memoized read per field, the whole race
    /// window scanned from its low end.
    fn check_by_word(image: &NvmImage, layout: &KvLayout) -> Result<u64, String> {
        let mut reader = image.reader();
        let mut recovered = 0u64;
        for (tenant, idx, slot) in slots_by_address(layout) {
            let tag = reader.read_u64(slot);
            if tag == 0 {
                if idx < layout.initial_per_tenant {
                    return Err(format!(
                        "tenant {tenant} key {idx}: initial slot lost its tag"
                    ));
                }
                continue;
            }
            if tag != layout.tag_of(tenant, idx) {
                return Err(format!(
                    "tenant {tenant} key {idx}: bad tag {tag:#x} at {slot:#x}"
                ));
            }
            let version = reader.read_u64(slot + 8);
            let payload = reader.read_u64(slot + 16);
            if version == 0 {
                return Err(format!(
                    "tenant {tenant} key {idx}: tagged slot at version 0"
                ));
            }
            let lo = version.saturating_sub(RACE_WINDOW);
            let hi = version.saturating_add(RACE_WINDOW);
            let consistent = (lo..=hi).any(|v| layout.payload_of(tenant, idx, v) == payload);
            if !consistent {
                return Err(format!(
                    "tenant {tenant} key {idx}: payload {payload:#x} matches no version near {version}"
                ));
            }
            recovered += 1;
        }
        Ok(recovered)
    }

    /// Publishes up to three inserted keys per tenant, each at a random
    /// version with a payload inside its race window.
    fn publish_inserts(layout: &KvLayout, store: &mut ByteStore, rng: &mut SplitMix64) {
        for tenant in 0..layout.tenants {
            let end = layout.cap_per_tenant.min(layout.initial_per_tenant + 3);
            for idx in layout.initial_per_tenant..end {
                let slot = layout.slot_addr(tenant, idx);
                let version = 1 + rng.next_below(100);
                let v = (version + rng.next_below(RACE_WINDOW + 1))
                    .saturating_sub(rng.next_below(RACE_WINDOW + 1));
                store.write_u64(slot + 16, layout.payload_of(tenant, idx, v));
                store.write_u64(slot + 8, version);
                store.write_u64(slot, layout.tag_of(tenant, idx));
            }
        }
    }

    /// `store` with the page holding `addr` absent.
    fn without_page(store: &ByteStore, addr: Addr) -> ByteStore {
        let gone = addr & !(PAGE_BYTES as u64 - 1);
        let mut out = ByteStore::new();
        for (page, bytes) in store.iter_pages().filter(|&(page, _)| page != gone) {
            out.write(page, bytes);
        }
        out
    }

    /// `clean` with zero to three corruptions: random words, zeroed tags,
    /// versions 0 and near `u64::MAX`, payloads at version ±16 (inside
    /// the race window) and ±17 (just outside), tags published on
    /// headroom slots, zeroed and absent pages.
    fn corrupt(layout: &KvLayout, clean: &ByteStore, rng: &mut SplitMix64) -> NvmImage {
        let mut store = clean.clone();
        for _ in 0..rng.next_below(4) {
            let tenant = rng.next_index(layout.tenants);
            let idx = if rng.chance(1, 2) {
                rng.next_below(layout.initial_per_tenant)
            } else {
                rng.next_below(layout.cap_per_tenant)
            };
            let slot = layout.slot_addr(tenant, idx);
            let version = store.read_u64(slot + 8);
            let payload = |v: u64| layout.payload_of(tenant, idx, v);
            match rng.next_below(9) {
                0 => store.write_u64(slot + 8 * rng.next_below(8), rng.next_u64()),
                1 => store.write_u64(slot, 0),
                2 => store.write_u64(slot + 8, 0),
                3 => {
                    let top = u64::MAX - rng.next_below(2 * RACE_WINDOW + 2);
                    store.write_u64(slot + 8, top);
                    if rng.chance(1, 2) {
                        let v = u64::MAX - rng.next_below(3 * RACE_WINDOW);
                        store.write_u64(slot + 16, payload(v));
                    }
                }
                4 => {
                    let d = RACE_WINDOW + rng.next_below(2);
                    let v = if rng.chance(1, 2) {
                        version.wrapping_add(d)
                    } else {
                        version.wrapping_sub(d)
                    };
                    store.write_u64(slot + 16, payload(v));
                }
                5 => {
                    let v = 1 + rng.next_below(40);
                    store.write_u64(slot + 8, v);
                    let w =
                        (v + rng.next_below(2 * RACE_WINDOW + 4)).saturating_sub(RACE_WINDOW + 2);
                    store.write_u64(slot + 16, payload(w));
                    store.write_u64(slot, layout.tag_of(tenant, idx));
                }
                6 => store.write(slot & !(PAGE_BYTES as u64 - 1), &[0; PAGE_BYTES]),
                _ => store = without_page(&store, slot),
            }
        }
        NvmImage::from_store(store)
    }

    /// A clean image of `layout` with some inserts published.
    fn clean_image(layout: &KvLayout, rng: &mut SplitMix64) -> ByteStore {
        let mut store = ByteStore::new();
        setup_per_slot(layout, &mut store);
        publish_inserts(layout, &mut store, rng);
        store
    }

    #[test]
    fn page_walk_matches_the_word_by_word_oracle() {
        let mut rng = SplitMix64::new(0x0DD5_EED5);
        let (mut images, mut failing) = (0, 0);
        for layout in layouts() {
            let clean = clean_image(&layout, &mut rng);
            for _ in 0..24 {
                let image = corrupt(&layout, &clean, &mut rng);
                let want = check_by_word(&image, &layout);
                assert_eq!(check_kv_recovery(&image, &layout), want, "{layout:?}");
                images += 1;
                failing += usize::from(want.is_err());
            }
        }
        // Both verdicts, in bulk.
        assert!(
            failing > images / 4 && failing < images * 3 / 4,
            "{failing} of {images}"
        );
    }

    /// The default-scale geometry: set-up equals the per-slot writer,
    /// and the page walk agrees with the reference oracle on corrupted
    /// images. Run in release by CI (`--include-ignored`).
    #[test]
    #[ignore = "1M-key geometry; slow in debug builds"]
    fn full_geometry_setup_and_oracle_match_the_references() {
        // The heap `paper_config` sizes for 1M keys and 2 000 ops per core.
        let cfg = SimConfig {
            persistent_heap_bytes: 1 << 30,
            ..SimConfig::default()
        };
        let params = crate::suite::WorkloadParams {
            initial: 1_000_000,
            per_core_ops: 2_000,
            ..crate::suite::WorkloadParams::smoke()
        };
        let layout = crate::suite::kv_geometry(&cfg, params);
        assert_eq!((layout.tenants, layout.initial_per_tenant), (4, 250_000));

        let mut reference = ByteStore::new();
        setup_per_slot(&layout, &mut reference);
        let mut paged = ByteStore::new();
        let spec = KvSpec {
            keys: params.initial,
            tenants: layout.tenants,
            ..spec(KvMix::A)
        };
        KvWorkload::new(layout, spec, cfg.cores).setup(&mut paged);
        assert_eq!(paged.resident_pages(), reference.resident_pages());
        assert!(paged == reference, "set-up contents differ");

        let mut rng = SplitMix64::new(0xF011_0E0F);
        let clean = clean_image(&layout, &mut rng);
        for _ in 0..8 {
            let image = corrupt(&layout, &clean, &mut rng);
            assert_eq!(
                check_kv_recovery(&image, &layout),
                check_by_word(&image, &layout)
            );
        }
    }

    #[test]
    fn recovery_names_the_lowest_address_bad_slot() {
        let layout = KvLayout::new(0x1000, 1000, 3, 100);
        let mut store = ByteStore::new();
        setup_per_slot(&layout, &mut store);
        let n = check_kv_recovery(&NvmImage::from_store(store.clone()), &layout);
        assert_eq!(n, Ok(layout.initial_per_tenant * 3));

        // Corrupt two initial slots' payloads; the error names the one at
        // the lower address, whatever their logical order.
        let (a, b) = ((1, 5), (1, 6));
        let (lo, hi) = if layout.slot_addr(a.0, a.1) < layout.slot_addr(b.0, b.1) {
            (a, b)
        } else {
            (b, a)
        };
        for (tenant, idx) in [lo, hi] {
            store.write_u64(layout.slot_addr(tenant, idx) + 16, 0xBAD);
        }
        let err = check_kv_recovery(&NvmImage::from_store(store), &layout).unwrap_err();
        assert!(
            err.starts_with(&format!("tenant {} key {}:", lo.0, lo.1)),
            "{err}"
        );
    }

    #[test]
    fn version_word_near_the_top_of_u64_is_rejected() {
        // A tagged slot whose version word sits within the race window of
        // `u64::MAX` gets a verdict: the window's upper end saturates.
        let layout = KvLayout::new(0x1000, 100, 1, 10);
        let mut store = ByteStore::new();
        setup_per_slot(&layout, &mut store);
        store.write_u64(layout.slot_addr(0, 3) + 8, u64::MAX - 3);
        let err = check_kv_recovery(&NvmImage::from_store(store), &layout).unwrap_err();
        assert!(err.starts_with("tenant 0 key 3:"), "{err}");
    }

    #[test]
    fn runs_and_recovers_under_bbb() {
        for mix in [KvMix::A, KvMix::B, KvMix::C] {
            let cfg = SimConfig::small_for_tests();
            let layout = small_layout(&cfg);
            let mut kv = KvWorkload::new(layout, spec(mix), cfg.cores);
            let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
            sys.prepare(&mut kv);
            let summary = sys.run(&mut kv, u64::MAX);
            assert!(summary.completed, "{mix:?}");
            assert!(summary.ops > 0);
            let img = sys.crash_now();
            let n = check_kv_recovery(&img, &layout).unwrap_or_else(|e| panic!("{mix:?}: {e}"));
            assert!(n >= 256, "{mix:?}: only {n} slots recovered");
        }
    }

    #[test]
    fn mix_c_is_read_only() {
        let cfg = SimConfig::small_for_tests();
        let layout = small_layout(&cfg);
        let mut kv = KvWorkload::new(layout, spec(KvMix::C), cfg.cores);
        let mut sys = System::new(cfg, PersistencyMode::Eadr).unwrap();
        sys.prepare(&mut kv);
        sys.run(&mut kv, u64::MAX);
        assert_eq!(sys.stats().get("cores.stores"), 0);
    }

    #[test]
    fn fixed_seed_stream_is_reproducible() {
        let cfg = SimConfig::small_for_tests();
        let layout = small_layout(&cfg);
        let run = || {
            let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
            let mut sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
            sys.prepare(&mut kv);
            sys.run(&mut kv, u64::MAX);
            sys.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stream_matches_batch_adapter() {
        // `run` feeds the workload through `Batched`; the reference feed
        // is an independent queue per core.
        let cfg = SimConfig::small_for_tests();
        let layout = small_layout(&cfg);
        let mut stream_sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        let kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
        let mut stream = QueueFeed::new(kv, cfg.cores);
        stream_sys.prepare_stream(&mut stream);
        let streamed = stream_sys.run_stream(&mut stream, u64::MAX);

        let mut batch_sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
        batch_sys.prepare(&mut kv);
        assert_eq!(batch_sys.run(&mut kv, u64::MAX), streamed);

        assert_eq!(stream_sys.stats(), batch_sys.stats());
    }

    #[test]
    fn inserts_grow_live_set_and_recover() {
        let cfg = SimConfig::small_for_tests();
        let layout = small_layout(&cfg);
        let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare(&mut kv);
        sys.run(&mut kv, u64::MAX);
        let inserted: u64 =
            kv.live.iter().sum::<u64>() - layout.initial_per_tenant * layout.tenants as u64;
        assert!(inserted > 0, "mix A must insert");
        sys.drain_all_store_buffers();
        let img = sys.crash_now();
        let n = check_kv_recovery(&img, &layout).expect("consistent");
        assert_eq!(
            n,
            layout.initial_per_tenant * layout.tenants as u64 + inserted,
            "every published insert recovers after a full drain"
        );
    }
}
