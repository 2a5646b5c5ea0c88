//! YCSB-style key-value service at server scale (extension).
//!
//! A fixed-slot KV store over millions of keys, driven the way a loaded
//! server sees traffic rather than the paper's uniform microbenchmark
//! loops:
//!
//! * **Zipfian key choice** — an O(1) alias-table sampler
//!   ([`bbb_sim::ZipfSampler`], s = 0.99 by default) concentrates traffic
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
//! The workload is stream-native ([`OpStream`]): per-core state is a
//! PRNG, a handful of cursors, and one bounded op buffer — memory is
//! O(live keys) for the table plus O(cores), independent of how many ops
//! a run executes. [`StreamWorkload`](bbb_core::StreamWorkload) adapts it
//! to the batch interface where needed.
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

use bbb_core::OpStream;
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

/// Maximum ops a single request expands to. The KV worst case is an
/// instrumented insert inside a fresh burst with an epoch fence (1 gap +
/// 3×(store,clwb,fence) + 1 = 11); the WAL worst case is an instrumented
/// append that also truncates and group-commits (1 gap + 6 stores × 3 +
/// 1 = 20).
pub(crate) const MAX_REQUEST_OPS: usize = 24;

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

/// A fixed-capacity per-core op buffer: one request's expansion, no heap
/// allocation in steady state (the streaming path's whole point).
#[derive(Debug, Clone)]
pub(crate) struct OpBuf {
    ops: [Op; MAX_REQUEST_OPS],
    head: usize,
    len: usize,
}

impl OpBuf {
    pub(crate) fn new() -> Self {
        Self {
            ops: [Op::Fence; MAX_REQUEST_OPS],
            head: 0,
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, op: Op) {
        assert!(self.len < MAX_REQUEST_OPS, "request exceeds op buffer");
        self.ops[(self.head + self.len) % MAX_REQUEST_OPS] = op;
        self.len += 1;
    }

    pub(crate) fn pop(&mut self) -> Option<Op> {
        if self.len == 0 {
            return None;
        }
        let op = self.ops[self.head];
        self.head = (self.head + 1) % MAX_REQUEST_OPS;
        self.len -= 1;
        Some(op)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
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
        self.base + (tenant as u64 * self.cap_per_tenant + scattered) * SLOT_BYTES
    }

    /// Every slot of the keyspace, insert headroom included, as
    /// `(tenant, idx, slot_addr)` in ascending address order. Tenant
    /// regions are contiguous, so the walk goes tenant by tenant; within
    /// one it visits scattered positions `s = 0, 1, …`, whose key is
    /// `idx = s·M⁻¹ mod cap` — the inverse of [`KvLayout::slot_addr`]'s
    /// odd-multiplier scatter. Consecutive items share a page, which is
    /// what lets set-up and the recovery oracle work page by page.
    pub fn slots_by_address(&self) -> impl Iterator<Item = (usize, u64, Addr)> {
        let Self {
            base,
            tenants,
            cap_per_tenant: cap,
            ..
        } = *self;
        (0..tenants).flat_map(move |tenant| {
            let region = base + tenant as u64 * cap * SLOT_BYTES;
            (0..cap).map(move |s| {
                let idx = s.wrapping_mul(SCATTER_INV) & (cap - 1);
                (tenant, idx, region + s * SLOT_BYTES)
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
        mix64(self.global_key(tenant, idx) ^ version.rotate_left(17))
    }
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
    /// Emit an epoch fence after each request (BEP discipline).
    pub epochs: bool,
}

/// The streaming KV workload. See module docs.
#[derive(Debug)]
pub struct KvWorkload {
    name: String,
    layout: KvLayout,
    spec: KvSpec,
    zipf: ZipfSampler,
    /// Live key count per tenant (inserts append; generation-time state).
    live: Vec<u64>,
    // Per-core streaming state.
    rngs: Vec<SplitMix64>,
    remaining: Vec<u64>,
    burst_left: Vec<u64>,
    req_seq: Vec<u64>,
    bufs: Vec<OpBuf>,
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
            bufs: vec![OpBuf::new(); cores],
            layout,
            spec,
        }
    }

    /// The keyspace geometry (for recovery checks and reports).
    #[must_use]
    pub fn layout(&self) -> KvLayout {
        self.layout
    }

    fn push_store(&mut self, core: usize, addr: Addr, value: u64) {
        self.bufs[core].push(Op::store_u64(addr, value));
        if self.spec.instrument {
            self.bufs[core].push(Op::Clwb { addr });
            self.bufs[core].push(Op::Fence);
        }
    }

    /// Expands one request into the core's op buffer.
    fn generate_request(&mut self, core: usize, arch: &mut ByteStore) {
        // Open-loop arrivals: a think-time gap starts each burst.
        if self.burst_left[core] == 0 {
            self.burst_left[core] = 1 + self.rngs[core].next_below(BURST_MAX);
            let gap = GAP_BASE + self.rngs[core].next_below(GAP_SPREAD) as u32;
            self.bufs[core].push(Op::Compute { cycles: gap });
        }
        self.burst_left[core] -= 1;

        // Multi-tenant interleaving: successive requests rotate tenants,
        // offset by core so tenants are shared across cores.
        let tenant = (self.req_seq[core] % self.layout.tenants as u64) as usize;
        self.req_seq[core] += self.layout.tenants as u64 - 1; // coprime walk
        let (read_pct, update_pct) = self.spec.mix.percentages();
        let roll = self.rngs[core].next_below(100);
        let rank = self.zipf.sample(&mut self.rngs[core]);

        if roll < read_pct {
            // Read: version + payload loads.
            let slot = self.layout.slot_addr(tenant, rank);
            self.bufs[core].push(Op::load_u64(slot + 8));
            self.bufs[core].push(Op::load_u64(slot + 16));
        } else if roll < read_pct + update_pct || self.live[tenant] >= self.layout.cap_per_tenant {
            // Update (inserts degrade to updates once headroom is spent):
            // read the committed version, publish payload then version.
            let slot = self.layout.slot_addr(tenant, rank);
            let v = arch.read_u64(slot + 8) + 1;
            self.bufs[core].push(Op::load_u64(slot + 8));
            self.push_store(core, slot + 16, self.layout.payload_of(tenant, rank, v));
            self.push_store(core, slot + 8, v);
        } else {
            // Insert: claim the next logical index (generation-time state,
            // so concurrent cores never claim the same slot), publish the
            // tag last — a torn insert leaves tag 0 and is simply absent.
            let idx = self.live[tenant];
            self.live[tenant] += 1;
            let slot = self.layout.slot_addr(tenant, idx);
            self.push_store(core, slot + 16, self.layout.payload_of(tenant, idx, 1));
            self.push_store(core, slot + 8, 1);
            self.push_store(core, slot, self.layout.tag_of(tenant, idx));
        }
        if self.spec.epochs {
            self.bufs[core].push(Op::Fence);
        }
    }
}

impl OpStream for KvWorkload {
    fn name(&self) -> &str {
        &self.name
    }

    /// Populates the initial keys page by page: each page holding a live
    /// slot is read into a local buffer, its live slots' tag, version and
    /// payload words are overlaid, and it is stored back with one
    /// full-page write. Bytes outside those 24-byte prefixes keep their
    /// contents, and a page with no live slot is never written, so the
    /// result — contents and resident pages alike — equals writing each
    /// slot's three words in place.
    fn setup(&mut self, arch: &mut ByteStore) {
        let layout = self.layout;
        let mut page = [0u8; PAGE_BYTES];
        let mut page_base = None;
        for (tenant, idx, slot) in layout.slots_by_address() {
            if idx >= layout.initial_per_tenant {
                continue;
            }
            let base = slot & !(PAGE_BYTES as u64 - 1);
            if page_base != Some(base) {
                if let Some(done) = page_base.replace(base) {
                    arch.write(done, &page);
                }
                arch.read(base, &mut page);
            }
            // Slots are block-aligned, so the 24 bytes never straddle pages.
            let off = (slot - base) as usize;
            let words = [
                layout.tag_of(tenant, idx),
                1,
                layout.payload_of(tenant, idx, 1),
            ];
            for (field, word) in page[off..off + 24].chunks_exact_mut(8).zip(words) {
                field.copy_from_slice(&word.to_le_bytes());
            }
        }
        if let Some(done) = page_base {
            arch.write(done, &page);
        }
    }

    fn next_op(&mut self, core: usize, arch: &mut ByteStore) -> Option<Op> {
        if self.bufs[core].is_empty() {
            if self.remaining[core] == 0 {
                return None;
            }
            self.remaining[core] -= 1;
            self.generate_request(core, arch);
        }
        self.bufs[core].pop()
    }
}

/// Verifies a post-crash image against the KV slot invariants. Every
/// initially-populated slot, and every inserted slot whose tag was
/// published, must hold `payload_of(key, v)` for a `v` within
/// [`RACE_WINDOW`] of the recovered version word. Returns the number of
/// live slots verified.
///
/// Slots are visited in address order ([`KvLayout::slots_by_address`])
/// through a page-memoizing [`NvmImage::reader`], so each page is looked
/// up once rather than once per field.
///
/// # Errors
///
/// Returns a description of the lowest-address inconsistent slot —
/// expected for uninstrumented PMEM images, never for battery-backed
/// modes.
pub fn check_kv_recovery(image: &NvmImage, layout: &KvLayout) -> Result<u64, String> {
    let mut reader = image.reader();
    let mut recovered = 0u64;
    for (tenant, idx, slot) in layout.slots_by_address() {
        let tag = reader.read_u64(slot);
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
        let hi = version + RACE_WINDOW;
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

#[cfg(test)]
mod tests {
    use super::*;
    use bbb_core::{PersistencyMode, StreamWorkload, System};
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
            epochs: false,
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

    #[test]
    fn address_walk_visits_every_slot_once_in_order() {
        for layout in layouts() {
            let walk: Vec<(usize, u64, Addr)> = layout.slots_by_address().collect();
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
    fn runs_and_recovers_under_bbb() {
        for mix in [KvMix::A, KvMix::B, KvMix::C] {
            let cfg = SimConfig::small_for_tests();
            let layout = small_layout(&cfg);
            let mut kv = KvWorkload::new(layout, spec(mix), cfg.cores);
            let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
            sys.prepare_stream(&mut kv);
            let summary = sys.run_stream(&mut kv, u64::MAX);
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
        sys.prepare_stream(&mut kv);
        sys.run_stream(&mut kv, u64::MAX);
        assert_eq!(sys.stats().get("cores.stores"), 0);
    }

    #[test]
    fn fixed_seed_stream_is_reproducible() {
        let cfg = SimConfig::small_for_tests();
        let layout = small_layout(&cfg);
        let run = || {
            let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
            let mut sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
            sys.prepare_stream(&mut kv);
            sys.run_stream(&mut kv, u64::MAX);
            sys.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stream_matches_batch_adapter() {
        let cfg = SimConfig::small_for_tests();
        let layout = small_layout(&cfg);
        let mut stream_sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
        stream_sys.prepare_stream(&mut kv);
        stream_sys.run_stream(&mut kv, u64::MAX);

        let mut batch_sys = System::new(cfg.clone(), PersistencyMode::BbbMemorySide).unwrap();
        let mut wrapped = StreamWorkload(KvWorkload::new(layout, spec(KvMix::A), cfg.cores));
        batch_sys.prepare(&mut wrapped);
        batch_sys.run(&mut wrapped, u64::MAX);

        assert_eq!(stream_sys.stats(), batch_sys.stats());
    }

    #[test]
    fn inserts_grow_live_set_and_recover() {
        let cfg = SimConfig::small_for_tests();
        let layout = small_layout(&cfg);
        let mut kv = KvWorkload::new(layout, spec(KvMix::A), cfg.cores);
        let mut sys = System::new(cfg, PersistencyMode::BbbMemorySide).unwrap();
        sys.prepare_stream(&mut kv);
        sys.run_stream(&mut kv, u64::MAX);
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
