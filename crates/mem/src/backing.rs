//! Sparse functional byte storage with copy-on-write snapshots.
//!
//! [`ByteStore`] backs both the device media and the architectural memory
//! workloads execute against: a sparse map of 4 KiB pages, so an 8 GB
//! address space costs memory only for pages actually touched. Pages are
//! reference-counted ([`Arc`]) and copied only when written while shared:
//! a clone (a crash-sweep snapshot) costs O(resident pages) pointer bumps,
//! and the warm start shares each preloaded architectural page with media.
//! A store writes architectural memory at commit, before any write-back
//! reaches media, so architectural memory takes that copy; its own
//! copy-on-write count is exported by no statistic.

use std::collections::hash_map::Entry;
use std::sync::Arc;

use bbb_sim::{Addr, BlockAddr, FxHashMap, BLOCK_BYTES};

const PAGE_SHIFT: u32 = 12;
/// Bytes per copy-on-write page (4 KiB).
pub const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

pub(crate) type Page = [u8; PAGE_BYTES];

/// A sparse, byte-addressable memory with zero-fill semantics: reading an
/// address that was never written returns zero.
///
/// Cloning is cheap (copy-on-write): the clone shares every materialized
/// page with the original, and a page is deep-copied only when either
/// side writes it while it is still shared. [`ByteStore::cow_page_copies`]
/// counts those forced copies; [`ByteStore::shared_pages`] reports how
/// many resident pages are currently shared with another store.
///
/// # Examples
///
/// ```
/// use bbb_mem::ByteStore;
/// let mut m = ByteStore::new();
/// m.write_u64(0x1000, 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x1000), 0xDEAD_BEEF);
/// assert_eq!(m.read_u64(0x2000), 0); // untouched => zero
///
/// let snap = m.clone();              // O(pages) pointer bumps
/// m.write_u64(0x1000, 1);            // breaks sharing for that page only
/// assert_eq!(snap.read_u64(0x1000), 0xDEAD_BEEF);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ByteStore {
    /// Sparse page table. Keyed by the fast unkeyed [`bbb_sim::FxHasher`]:
    /// this lookup sits under every simulated memory access *and* every
    /// recovery-checker read, and never reaches observable output by
    /// iteration order.
    pages: FxHashMap<u64, Arc<Page>>,
    /// Pages deep-copied because a write hit a page still shared with a
    /// snapshot. Clones inherit their ancestor's count at fork time.
    cow_page_copies: u64,
}

impl PartialEq for ByteStore {
    /// Content equality: same materialized pages with the same bytes.
    /// The COW bookkeeping counter is not observable state.
    fn eq(&self, other: &Self) -> bool {
        self.pages == other.pages
    }
}

impl Eq for ByteStore {}

impl ByteStore {
    /// Creates an empty (all-zero) store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of 4 KiB pages materialized so far.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of resident pages currently shared with another store (a
    /// clone, or one that took a page through [`ByteStore::share_page`]).
    #[must_use]
    pub fn shared_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(p) > 1)
            .count()
    }

    /// Pages deep-copied by copy-on-write over this store's history
    /// (a write landing on a page still shared with another store).
    #[must_use]
    pub fn cow_page_copies(&self) -> u64 {
        self.cow_page_copies
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    #[inline]
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + buf.len() <= PAGE_BYTES {
            // Single-page access — the overwhelmingly common shape (u64
            // field reads, 64-byte block transfers): one table lookup,
            // no loop.
            match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => buf.copy_from_slice(&p[off..off + buf.len()]),
                None => buf.fill(0),
            }
            return;
        }
        self.read_multi(addr, buf);
    }

    /// The page-straddling slow path of [`ByteStore::read`].
    fn read_multi(&self, addr: Addr, buf: &mut [u8]) {
        let mut pos = 0;
        while pos < buf.len() {
            let a = addr + pos as u64;
            let page = a >> PAGE_SHIFT;
            let off = (a as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(buf.len() - pos);
            match self.pages.get(&page) {
                Some(p) => buf[pos..pos + n].copy_from_slice(&p[off..off + n]),
                None => buf[pos..pos + n].fill(0),
            }
            pos += n;
        }
    }

    /// Writes `data` starting at `addr`, materializing pages as needed.
    /// A write to a page shared with a snapshot copies the page first
    /// (copy-on-write); a page-aligned full-page write never pays for a
    /// zero fill or a stale copy — the page is built straight from the
    /// source bytes.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let mut pos = 0;
        while pos < data.len() {
            let a = addr + pos as u64;
            let page = a >> PAGE_SHIFT;
            let off = (a as usize) & (PAGE_BYTES - 1);
            let n = (PAGE_BYTES - off).min(data.len() - pos);
            let src = &data[pos..pos + n];
            match self.pages.entry(page) {
                Entry::Occupied(mut e) => {
                    let slot = e.get_mut();
                    if n == PAGE_BYTES {
                        // Full overwrite: nothing of the old page survives,
                        // so never copy it — write in place when unshared,
                        // otherwise swap in a fresh page built from `src`.
                        match Arc::get_mut(slot) {
                            Some(p) => p.copy_from_slice(src),
                            None => *slot = Arc::new(page_from(src)),
                        }
                    } else {
                        // One uniqueness check: write through an unshared
                        // page, copy a shared one first.
                        let p = match Arc::get_mut(slot) {
                            Some(p) => p,
                            None => {
                                self.cow_page_copies += 1;
                                Arc::make_mut(slot)
                            }
                        };
                        p[off..off + n].copy_from_slice(src);
                    }
                }
                Entry::Vacant(v) => {
                    if n == PAGE_BYTES {
                        v.insert(Arc::new(page_from(src)));
                    } else {
                        let mut p = Arc::new([0u8; PAGE_BYTES]);
                        Arc::get_mut(&mut p).expect("freshly allocated")[off..off + n]
                            .copy_from_slice(src);
                        v.insert(p);
                    }
                }
            }
            pos += n;
        }
    }

    /// Reads one 64-byte cache block.
    #[must_use]
    pub fn read_block(&self, block: BlockAddr) -> [u8; BLOCK_BYTES] {
        let mut buf = [0u8; BLOCK_BYTES];
        self.read(block.base(), &mut buf);
        buf
    }

    /// Writes one 64-byte cache block.
    pub fn write_block(&mut self, block: BlockAddr, data: &[u8; BLOCK_BYTES]) {
        self.write(block.base(), data);
    }

    /// Reads a little-endian `u64` at `addr` (need not be aligned).
    #[inline]
    #[must_use]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// The shared page holding `addr`, if materialized (page-granular
    /// access for [`crate::image::ImageReader`]'s memoized fast path and
    /// [`crate::NvmImage::page`]).
    #[inline]
    pub(crate) fn page_for(&self, addr: Addr) -> Option<&Arc<Page>> {
        self.pages.get(&(addr >> PAGE_SHIFT))
    }

    /// The page holding `addr`, for writing in place: an absent page is
    /// materialized zeroed, and a page shared with another store is copied
    /// first, counted in [`Self::cow_page_copies`].
    pub fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_BYTES] {
        let slot = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Arc::new([0; PAGE_BYTES]));
        if Arc::get_mut(slot).is_none() {
            self.cow_page_copies += 1;
        }
        Arc::make_mut(slot)
    }

    /// Puts `page` at the page holding `addr`, as it is: the crash
    /// imager's way to lay a built page into a media snapshot.
    pub(crate) fn set_page(&mut self, addr: Addr, page: Arc<Page>) {
        self.pages.insert(addr >> PAGE_SHIFT, page);
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Makes the page holding `addr` share `src`'s page, copied when either
    /// store next writes it.
    ///
    /// # Panics
    ///
    /// If `src` has no page materialized at `addr`.
    pub fn share_page(&mut self, src: &ByteStore, addr: Addr) {
        let page = src.page_for(addr).expect("materialized source page");
        self.pages.insert(addr >> PAGE_SHIFT, Arc::clone(page));
    }

    /// Iterates `(page_base_address, page_bytes)` over materialized pages,
    /// in ascending address order (bulk mirroring into device media).
    pub fn iter_pages(&self) -> impl Iterator<Item = (Addr, &[u8])> {
        let mut keys: Vec<u64> = self.pages.keys().copied().collect();
        keys.sort_unstable();
        keys.into_iter().map(move |k| {
            let page = &self.pages[&k];
            ((k << PAGE_SHIFT), &page[..])
        })
    }
}

/// Builds a page directly from a page-sized slice (no zero fill).
fn page_from(src: &[u8]) -> Page {
    src.try_into().expect("page-sized slice")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_semantics() {
        let m = ByteStore::new();
        let mut buf = [0xFFu8; 32];
        m.read(0x1234, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_round_trip() {
        let mut m = ByteStore::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(0x7FF8, &data); // straddles a page boundary
        let mut out = vec![0u8; 256];
        m.read(0x7FF8, &mut out);
        assert_eq!(out, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn block_round_trip() {
        let mut m = ByteStore::new();
        let block = BlockAddr::containing(0x4040);
        let mut data = [0u8; BLOCK_BYTES];
        data[0] = 0xAA;
        data[63] = 0x55;
        m.write_block(block, &data);
        assert_eq!(m.read_block(block), data);
    }

    #[test]
    fn u64_round_trip_unaligned() {
        let mut m = ByteStore::new();
        m.write_u64(0x1003, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x1003), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn partial_overwrite_preserves_rest() {
        let mut m = ByteStore::new();
        m.write(0x100, &[1, 2, 3, 4]);
        m.write(0x102, &[9]);
        let mut out = [0u8; 4];
        m.read(0x100, &mut out);
        assert_eq!(out, [1, 2, 9, 4]);
    }

    #[test]
    fn clone_is_snapshot() {
        let mut m = ByteStore::new();
        m.write_u64(0, 1);
        let snap = m.clone();
        m.write_u64(0, 2);
        assert_eq!(snap.read_u64(0), 1);
        assert_eq!(m.read_u64(0), 2);
        // And the other direction: a write through the snapshot must not
        // leak back into the parent.
        let mut snap2 = m.clone();
        snap2.write_u64(0, 3);
        assert_eq!(m.read_u64(0), 2);
        assert_eq!(snap2.read_u64(0), 3);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut m = ByteStore::new();
        m.write_u64(0x0000, 1);
        m.write_u64(0x1000, 2);
        m.write_u64(0x2000, 3);
        assert_eq!(m.shared_pages(), 0);

        let snap = m.clone();
        assert_eq!(m.shared_pages(), 3, "all pages shared right after clone");
        assert_eq!(snap.shared_pages(), 3);
        assert_eq!(m.cow_page_copies(), 0);

        // A partial write to one shared page copies exactly that page.
        m.write_u64(0x1000, 99);
        assert_eq!(m.cow_page_copies(), 1);
        assert_eq!(m.shared_pages(), 2);
        assert_eq!(snap.read_u64(0x1000), 2, "snapshot unaffected");

        // Dropping the snapshot un-shares everything without copies.
        drop(snap);
        assert_eq!(m.shared_pages(), 0);
        assert_eq!(m.cow_page_copies(), 1);
    }

    /// Exactly the partial writes that land on a shared page count a
    /// copy, once per page and sharing: an unshared page, a fresh page
    /// and a full-page overwrite never do.
    #[test]
    fn cow_copies_count_shared_partial_writes_only() {
        let mut m = ByteStore::new();
        m.write_u64(0x0000, 1); // fresh pages: no copy
        m.write_u64(0x1000, 2);
        m.write_u64(0x2000, 3);
        m.write_u64(0x0008, 4); // unshared: in place
        assert_eq!(m.cow_page_copies(), 0);

        let snap = m.clone();
        m.write(0x0FFC, &[7; 8]); // straddles two shared pages
        assert_eq!(m.cow_page_copies(), 2);
        m.write_u64(0x0010, 5); // both now unshared
        m.write_u64(0x1010, 6);
        assert_eq!(m.cow_page_copies(), 2);
        m.write(0x2000, &[9; PAGE_BYTES]); // a full page replaces, unread
        m.write_u64(0x2008, 8); // ... and is unshared after
        assert_eq!(m.cow_page_copies(), 2);

        let mut other = ByteStore::new();
        other.share_page(&m, 0x1000);
        m.write_u64(0x1018, 9); // shared again, through `share_page`
        other.write_u64(0x1018, 9); // the other holder's copy is its own
        assert_eq!((m.cow_page_copies(), other.cow_page_copies()), (3, 0));
        assert_eq!(snap.read_u64(0x0008), 4);
        assert_eq!(m.read_u64(0x0FFC) & 0xFFFF_FFFF, 0x0707_0707);
    }

    #[test]
    fn divergent_clones_are_fully_independent() {
        let mut a = ByteStore::new();
        for i in 0..8u64 {
            a.write_u64(i * 0x1000, i + 1);
        }
        let mut b = a.clone();
        for i in 0..8u64 {
            b.write_u64(i * 0x1000, 100 + i);
        }
        for i in 0..8u64 {
            assert_eq!(a.read_u64(i * 0x1000), i + 1);
            assert_eq!(b.read_u64(i * 0x1000), 100 + i);
        }
        assert_ne!(a, b);
        assert_eq!(a, a.clone());
    }

    #[test]
    fn full_page_write_skips_zero_fill_and_cow_copy() {
        let page = vec![0xABu8; PAGE_BYTES];
        // Fresh page: built straight from the source.
        let mut m = ByteStore::new();
        m.write(0x3000, &page);
        assert_eq!(m.resident_pages(), 1);
        assert_eq!(m.read_u64(0x3000), u64::from_le_bytes([0xAB; 8]));

        // Full overwrite of a *shared* page replaces it without counting
        // (or performing) a copy-on-write of the stale contents.
        let snap = m.clone();
        let page2 = vec![0xCDu8; PAGE_BYTES];
        m.write(0x3000, &page2);
        assert_eq!(m.cow_page_copies(), 0);
        assert_eq!(m.read_u64(0x3000), u64::from_le_bytes([0xCD; 8]));
        assert_eq!(snap.read_u64(0x3000), u64::from_le_bytes([0xAB; 8]));

        // Unaligned page-sized writes still go through the partial path.
        let mut n = ByteStore::new();
        n.write(0x3008, &page);
        assert_eq!(n.resident_pages(), 2);
        assert_eq!(n.read_u64(0x3008), u64::from_le_bytes([0xAB; 8]));
        assert_eq!(n.read_u64(0x3000), 0);
    }

    #[test]
    fn shared_page_is_copied_by_whichever_store_writes_it() {
        let mut arch = ByteStore::new();
        arch.write_u64(0x5008, 1);
        let mut media = ByteStore::new();
        media.write_u64(0x5010, 9); // replaced wholesale by the share
        media.share_page(&arch, 0x5000);
        assert_eq!(media, arch);
        assert_eq!((arch.shared_pages(), media.shared_pages()), (1, 1));

        // The first writer copies; the other store keeps the old page.
        arch.write_u64(0x5008, 2);
        assert_eq!(arch.cow_page_copies(), 1);
        assert_eq!(media.read_u64(0x5008), 1);
        media.write_u64(0x5008, 3);
        assert_eq!(media.cow_page_copies(), 0, "media owned the page alone");
        assert_eq!(arch.read_u64(0x5008), 2);
    }

    #[test]
    #[should_panic(expected = "materialized source page")]
    fn sharing_an_absent_page_panics() {
        ByteStore::new().share_page(&ByteStore::new(), 0x5000);
    }

    #[test]
    fn page_mut_materializes_absent_pages_and_copies_shared_ones() {
        // Absent: a zeroed page, no copy.
        let mut m = ByteStore::new();
        let page = m.page_mut(0x3008);
        assert!(page.iter().all(|&b| b == 0));
        page[8] = 0xAA;
        assert_eq!((m.resident_pages(), m.cow_page_copies()), (1, 0));
        assert_eq!(m.read_u64(0x3008), 0xAA);

        // Unshared: written in place, no copy.
        m.page_mut(0x3FFF)[PAGE_BYTES - 1] = 0xBB;
        assert_eq!(m.cow_page_copies(), 0);
        let mut last = [0u8; 1];
        m.read(0x3FFF, &mut last);
        assert_eq!(last, [0xBB]);

        // Shared: copied once, keeping its bytes; the other holder keeps
        // the old page.
        let snap = m.clone();
        let page = m.page_mut(0x3000);
        assert_eq!(page[8], 0xAA);
        page[8] = 0xCC;
        assert_eq!(m.cow_page_copies(), 1);
        m.page_mut(0x3000)[9] = 0xDD;
        assert_eq!(m.cow_page_copies(), 1);
        assert_eq!(m.read_u64(0x3008), 0xDDCC);
        assert_eq!(snap.read_u64(0x3008), 0xAA);
        assert_eq!((m.shared_pages(), snap.shared_pages()), (0, 0));
    }

    #[test]
    fn equality_ignores_cow_bookkeeping() {
        let mut a = ByteStore::new();
        a.write_u64(0x10, 7);
        let mut b = a.clone();
        let snap = b.clone();
        b.write_u64(0x10, 8); // forces a COW copy in b
        b.write_u64(0x10, 7); // restore contents
        drop(snap);
        assert!(b.cow_page_copies() > a.cow_page_copies());
        assert_eq!(a, b, "equal contents, different COW history");
    }
}
