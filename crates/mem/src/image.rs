//! Post-crash NVMM images.
//!
//! When the simulator injects a power failure, whatever the active
//! persistence domain drained to media becomes an [`NvmImage`]: the exact
//! byte contents recovery code would see on reboot. Workload-specific
//! checkers (in `bbb-workloads`) validate structure invariants against it.

use std::sync::Arc;

use bbb_sim::{Addr, BlockAddr, FxHashMap, BLOCK_BYTES};

use crate::backing::{ByteStore, Page, PAGE_BYTES};

// A page's changed blocks fit one `u64` mask.
const _: () = assert!(PAGE_BYTES / BLOCK_BYTES == 64);

/// An immutable snapshot of NVMM media contents after a crash.
///
/// # Examples
///
/// ```
/// use bbb_mem::{ByteStore, NvmImage};
/// let mut media = ByteStore::new();
/// media.write_u64(0x100, 7);
/// let image = NvmImage::from_store(media);
/// assert_eq!(image.read_u64(0x100), 7);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NvmImage {
    store: ByteStore,
}

impl NvmImage {
    /// Wraps a snapshot of media contents.
    #[must_use]
    pub fn from_store(store: ByteStore) -> Self {
        Self { store }
    }

    /// Reads raw bytes.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        self.store.read(addr, buf);
    }

    /// Reads a little-endian `u64`.
    #[must_use]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        self.store.read_u64(addr)
    }

    /// Reads one cache block.
    #[must_use]
    pub fn read_block(&self, block: BlockAddr) -> [u8; BLOCK_BYTES] {
        self.store.read_block(block)
    }

    /// The page holding `addr` as this image has it, for checkers that
    /// read a page's fields straight from its bytes; `None` for an absent
    /// page, which reads as all zeros.
    ///
    /// # Examples
    ///
    /// ```
    /// use bbb_mem::{ByteStore, NvmImage, PAGE_BYTES};
    /// let mut media = ByteStore::new();
    /// media.write_u64(0x1008, 7);
    /// let image = NvmImage::from_store(media);
    /// let page = image.page(0x1FFF).expect("resident");
    /// assert_eq!(page.len(), PAGE_BYTES);
    /// assert_eq!(page[8], 7);
    /// assert!(image.page(0x2000).is_none());
    /// ```
    #[must_use]
    pub fn page(&self, addr: Addr) -> Option<&[u8; PAGE_BYTES]> {
        self.store.page_for(addr).map(|page| &**page)
    }

    /// Borrows the underlying store (for bulk comparisons in tests).
    #[must_use]
    pub fn as_store(&self) -> &ByteStore {
        &self.store
    }

    /// A page-memoizing reader over this image.
    ///
    /// Recovery checkers walk structures field by field — `node`,
    /// `node+8`, `node+16` — so consecutive reads overwhelmingly land on
    /// the page of the previous one. The reader resolves the page-table
    /// lookup once per page *run* instead of once per read, which is
    /// where a crash-point sweep spends most of its wall time.
    #[must_use]
    pub fn reader(&self) -> ImageReader<'_> {
        ImageReader {
            store: &self.store,
            page_base: u64::MAX,
            page: None,
        }
    }

    /// Holds the page containing `addr` as this image has it, so a later
    /// image can be diffed against it ([`PinnedPage::changed_blocks`]).
    #[must_use]
    pub fn pin(&self, addr: Addr) -> PinnedPage {
        PinnedPage(self.store.page_for(addr).cloned())
    }

    /// Unwraps into the underlying store.
    #[must_use]
    pub fn into_store(self) -> ByteStore {
        self.store
    }
}

impl From<ByteStore> for NvmImage {
    fn from(store: ByteStore) -> Self {
        Self::from_store(store)
    }
}

/// A cursor over an [`NvmImage`] that memoizes the last page it touched.
///
/// Reads give byte-for-byte the same answers as [`NvmImage::read`]; only
/// the page-table lookups are amortized. Cheap to construct — checkers
/// may keep one per traversal.
#[derive(Debug, Clone)]
pub struct ImageReader<'a> {
    store: &'a ByteStore,
    /// Base address of the cached page (`u64::MAX` = nothing cached).
    page_base: u64,
    /// The cached page's bytes; `None` for a cached *absent* (all-zero)
    /// page, which is as common as a present one in sparse heaps.
    page: Option<&'a [u8; PAGE_BYTES]>,
}

impl ImageReader<'_> {
    #[inline]
    fn load_page(&mut self, addr: Addr) {
        let base = addr & !(PAGE_BYTES as u64 - 1);
        if base != self.page_base {
            self.page_base = base;
            self.page = self.store.page_for(addr).map(|arc| &**arc);
        }
    }

    /// Reads raw bytes (must not straddle more pages than the store can
    /// serve; straddling reads fall back to the store's path).
    #[inline]
    pub fn read(&mut self, addr: Addr, buf: &mut [u8]) {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        if off + buf.len() <= PAGE_BYTES {
            self.load_page(addr);
            match self.page {
                Some(p) => buf.copy_from_slice(&p[off..off + buf.len()]),
                None => buf.fill(0),
            }
        } else {
            self.store.read(addr, buf);
        }
    }

    /// Reads a little-endian `u64` at `addr` (need not be aligned).
    #[inline]
    #[must_use]
    pub fn read_u64(&mut self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Reads one cache block.
    #[inline]
    #[must_use]
    pub fn read_block(&mut self, block: BlockAddr) -> [u8; BLOCK_BYTES] {
        let mut buf = [0u8; BLOCK_BYTES];
        self.read(block.base(), &mut buf);
        buf
    }
}

/// One write a crash lays over media: `len` bytes at `offset` of its
/// page, and the next write on the same page.
#[derive(Debug, Clone, Copy)]
struct Patch {
    offset: u16,
    len: u8,
    bytes: [u8; BLOCK_BYTES],
    next: u32,
}

impl Patch {
    /// True when `other` writes the same bytes at the same offset.
    fn same(&self, other: &Patch) -> bool {
        let len = usize::from(self.len);
        (self.offset, self.len) == (other.offset, other.len)
            && self.bytes[..len] == other.bytes[..len]
    }
}

/// The end of a page's write list.
const END: u32 = u32::MAX;

/// The writes of the list from `first` through [`Patch::next`].
fn writes(list: &[Patch], first: u32) -> impl Iterator<Item = &Patch> {
    let next = |&i: &u32| Some(list[i as usize].next).filter(|&n| n != END);
    std::iter::successors(Some(first), next).map(|i| &list[i as usize])
}

/// The writes an image lays on one page, and the page they made.
#[derive(Debug)]
struct Overlay {
    /// The page's writes in crash order: a list through [`Patch::next`]
    /// from `first` to `last`, `count` long.
    first: u32,
    last: u32,
    count: u32,
    /// The media page they were laid over (`None`: an absent page) and
    /// the page built, once built.
    media: Option<Arc<Page>>,
    built: Option<Arc<Page>>,
}

/// Builds crash images — media with the persistence domain's writes laid
/// over — and remembers the pages the last image built, so the next image
/// of the same machine and battery state shares them where nothing under
/// them changed.
///
/// A page keeps the last image's pointer when its media page is the same
/// `Arc` and the ordered writes landing on it are the same; every other
/// page with writes is built afresh from media's page and its writes, in
/// crash order. A fresh basis has no last image, so it builds every such
/// page: the one overlay definition, with or without a last image.
///
/// What a basis keeps pins memory — the pages it built and the media
/// pages under them — and the live media copies a pinned page on its next
/// write instead of writing it in place.
///
/// # Examples
///
/// ```
/// use bbb_mem::{ByteStore, ImageBasis};
/// let mut media = ByteStore::new();
/// media.write_u64(0x1000, 1);
/// let mut basis = ImageBasis::default();
/// basis.write(0x1008, &2u64.to_le_bytes());
/// let first = basis.build(media.clone());
/// assert_eq!((first.read_u64(0x1000), first.read_u64(0x1008)), (1, 2));
///
/// // The same writes over the same media page: the page is kept.
/// basis.write(0x1008, &2u64.to_le_bytes());
/// let second = basis.build(media.clone());
/// assert_eq!(first.pin(0x1000).changed_blocks(&second, 0x1000), None);
///
/// // Another write to it builds it again.
/// basis.write(0x1010, &3u64.to_le_bytes());
/// let third = basis.build(media.clone());
/// assert_eq!(second.pin(0x1000).changed_blocks(&third, 0x1000), Some(1));
/// ```
#[derive(Debug, Default)]
pub struct ImageBasis {
    /// The next image's writes, and the pages they land on.
    patches: Vec<Patch>,
    next: FxHashMap<Addr, Overlay>,
    /// The last image's writes, and the pages it built.
    last: Vec<Patch>,
    pages: FxHashMap<Addr, Overlay>,
    /// Media pages the last build laid writes over.
    overlaid: u64,
}

impl ImageBasis {
    /// Records a write of the next image: `data` at `addr`, after every
    /// write recorded before it.
    ///
    /// # Panics
    ///
    /// If `data` is longer than a block or crosses a page boundary.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let offset = (addr as usize) & (PAGE_BYTES - 1);
        assert!(
            data.len() <= BLOCK_BYTES && offset + data.len() <= PAGE_BYTES,
            "a crash write lies within one block"
        );
        let mut bytes = [0; BLOCK_BYTES];
        bytes[..data.len()].copy_from_slice(data);
        let at = self.patches.len() as u32;
        self.patches.push(Patch {
            offset: offset as u16,
            len: data.len() as u8,
            bytes,
            next: END,
        });
        let page = addr - offset as Addr;
        let run = self.next.entry(page).or_insert(Overlay {
            first: at,
            last: at,
            count: 0,
            media: None,
            built: None,
        });
        if run.count > 0 {
            self.patches[run.last as usize].next = at;
        }
        run.last = at;
        run.count += 1;
    }

    /// The crash image of `media`, a snapshot of the live media, with the
    /// writes recorded since the last build laid over it. The basis then
    /// describes this image.
    #[must_use]
    pub fn build(&mut self, mut media: ByteStore) -> NvmImage {
        let Self {
            patches,
            next,
            last,
            pages,
            overlaid,
        } = self;
        *overlaid = 0;
        // Pages are independent, so any order builds the same image.
        for (&page, run) in next.iter_mut() {
            let under = media.page_for(page).cloned();
            *overlaid += u64::from(under.is_some());
            let kept = pages.get(&page).filter(|old| {
                old.media.as_ref().map(Arc::as_ptr) == under.as_ref().map(Arc::as_ptr)
                    && old.count == run.count
                    && writes(last, old.first)
                        .zip(writes(patches, run.first))
                        .all(|(a, b)| a.same(b))
            });
            let built = match kept.and_then(|old| old.built.clone()) {
                Some(page) => page,
                None => {
                    let mut built = under.clone().unwrap_or_else(|| Arc::new([0; PAGE_BYTES]));
                    let bytes = Arc::make_mut(&mut built);
                    for p in writes(patches, run.first) {
                        let (at, len) = (usize::from(p.offset), usize::from(p.len));
                        bytes[at..at + len].copy_from_slice(&p.bytes[..len]);
                    }
                    built
                }
            };
            media.set_page(page, Arc::clone(&built));
            (run.media, run.built) = (under, Some(built));
        }
        std::mem::swap(pages, next);
        std::mem::swap(last, patches);
        // The image before the last pins nothing.
        next.clear();
        patches.clear();
        NvmImage::from_store(media)
    }

    /// Media pages the last [`ImageBasis::build`] laid writes over: the
    /// pages a build with no last image copies.
    #[must_use]
    pub fn overlaid(&self) -> u64 {
        self.overlaid
    }
}

/// One page of an image, held for diffing against later images.
///
/// A pinned page shares the image's copy-on-write page, so its bytes can
/// never change: whoever writes the page next (the live media, say)
/// copies it first. An image holding the *same* page therefore has the
/// same bytes, and only a page whose pointer differs needs comparing.
/// The price is that copy, once per pinned page the next writer touches.
#[derive(Clone, Default)]
pub struct PinnedPage(Option<Arc<Page>>);

impl PinnedPage {
    /// Reads the little-endian `u64` at `addr` of the pinned page, which
    /// must hold all 8 bytes; an absent page reads as zeros.
    #[must_use]
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let off = (addr as usize) & (PAGE_BYTES - 1);
        self.0.as_ref().map_or(0, |p| {
            u64::from_le_bytes(p[off..off + 8].try_into().expect("8 bytes"))
        })
    }

    /// The 64-byte blocks of the page at `addr` whose bytes in `image`
    /// differ from this pin's: bit `i` stands for block `i` of the page.
    /// `None`, without reading a byte, when `image` holds the pinned page
    /// itself (or neither has the page). An absent page reads as zeros.
    #[must_use]
    pub fn changed_blocks(&self, image: &NvmImage, addr: Addr) -> Option<u64> {
        fn block(page: Option<&Arc<Page>>, i: usize) -> &[u8] {
            const ZERO: [u8; BLOCK_BYTES] = [0; BLOCK_BYTES];
            page.map_or(&ZERO, |p| &p[i * BLOCK_BYTES..][..BLOCK_BYTES])
        }
        let (pinned, now) = (self.0.as_ref(), image.store.page_for(addr));
        match (pinned, now) {
            (None, None) => None,
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => None,
            _ => Some(
                (0..PAGE_BYTES / BLOCK_BYTES)
                    .filter(|&i| block(pinned, i) != block(now, i))
                    .fold(0, |mask, i| mask | 1 << i),
            ),
        }
    }
}

impl std::fmt::Debug for PinnedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.0.is_some() {
            "PinnedPage(resident)"
        } else {
            "PinnedPage(absent)"
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_reads_match_store() {
        let mut s = ByteStore::new();
        s.write(0x40, &[1, 2, 3]);
        let img: NvmImage = s.clone().into();
        let mut buf = [0u8; 3];
        img.read(0x40, &mut buf);
        assert_eq!(buf, [1, 2, 3]);
        assert_eq!(img.read_block(BlockAddr::containing(0x40))[..3], [1, 2, 3]);
        assert_eq!(img.as_store(), &s);
        assert_eq!(img.into_store(), s);
    }

    #[test]
    fn pinned_page_reports_changed_blocks() {
        let mut s = ByteStore::new();
        s.write_u64(0x1000, 1);
        let first = NvmImage::from_store(s.clone());
        let pin = first.pin(0x1000);
        let absent = first.pin(0x5000);
        assert_eq!(pin.changed_blocks(&first, 0x1000), None);

        // A clone shares the page: nothing to compare.
        assert_eq!(pin.changed_blocks(&first.clone(), 0x1000), None);

        // Writes copy the pinned page; only the blocks whose bytes moved
        // are reported, and rewriting equal bytes reports nothing.
        s.write_u64(0x1000, 1);
        s.write_u64(0x1000 + 5 * 64 + 8, 9);
        s.write_u64(0x1000 + 63 * 64, 9);
        s.write_u64(0x5040, 3);
        let second = NvmImage::from_store(s);
        assert_eq!(pin.changed_blocks(&second, 0x1000), Some(1 << 5 | 1 << 63));
        assert_eq!(absent.changed_blocks(&second, 0x5000), Some(1 << 1));
        assert_eq!(
            second.pin(0x5000).changed_blocks(&first, 0x5000),
            Some(1 << 1)
        );
        assert_eq!(absent.changed_blocks(&second, 0x9000), None);

        // A copied page with equal bytes moved, but no block changed.
        let mut s = second.clone().into_store();
        s.write_u64(0x1000, 1);
        assert_eq!(
            second.pin(0x1000).changed_blocks(&s.into(), 0x1000),
            Some(0)
        );
    }
}
