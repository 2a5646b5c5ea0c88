//! Post-crash NVMM images.
//!
//! When the simulator injects a power failure, whatever the active
//! persistence domain drained to media becomes an [`NvmImage`]: the exact
//! byte contents recovery code would see on reboot. Workload-specific
//! checkers (in `bbb-workloads`) validate structure invariants against it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bbb_sim::{Addr, BlockAddr, FxHashMap, BLOCK_BYTES};

use crate::backing::{ByteStore, Page, PAGE_BYTES};
use crate::changes::{ChangeLog, LogMark};

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
#[derive(Debug, Clone)]
pub struct NvmImage {
    store: ByteStore,
    /// Set on the images an [`ImageBasis`] builds.
    lineage: Option<Lineage>,
}

impl PartialEq for NvmImage {
    /// Byte equality: where an image came from is no part of it.
    fn eq(&self, other: &Self) -> bool {
        self.store == other.store
    }
}

impl Eq for NvmImage {}

impl NvmImage {
    /// Wraps a snapshot of media contents.
    #[must_use]
    pub fn from_store(store: ByteStore) -> Self {
        Self {
            store,
            lineage: None,
        }
    }

    /// This image's place among its [`ImageBasis`]'s images; `None` for
    /// an image no basis built.
    #[must_use]
    pub fn id(&self) -> Option<ImageId> {
        self.lineage.as_ref().map(|l| l.id)
    }

    /// The blocks whose bytes may differ from image `last`'s, per page in
    /// ascending page order as a mask of the page's 64 blocks — when this
    /// image is the one its basis built right after `last` and built on
    /// it. `None` when anything may differ: `last` is unknown, another
    /// basis's or an earlier image, or this image was built in full.
    #[must_use]
    pub fn changes_since(&self, last: Option<ImageId>) -> Option<&[(Addr, u64)]> {
        let (lineage, last) = (self.lineage.as_ref()?, last?);
        let follows = lineage.id.basis == last.basis && lineage.id.seq == last.seq + 1;
        lineage.rebuilt.as_deref().filter(|_| follows)
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

/// Where an image stands among the images of its [`ImageBasis`]: the
/// basis, and how many images it had built with this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageId {
    basis: u64,
    seq: u64,
}

/// An image's place among its basis's images, and the blocks that may
/// differ from the image before it.
#[derive(Debug, Clone)]
struct Lineage {
    id: ImageId,
    /// Per page, ascending, the mask of the blocks rebuilt; `None` after
    /// a full build.
    rebuilt: Option<Arc<[(Addr, u64)]>>,
}

/// The page of zeros an absent page reads as.
static ZERO_PAGE: Page = [0; PAGE_BYTES];

/// One page of the image under construction.
#[derive(Debug)]
struct PageBuild {
    /// The blocks rebuilt from media and the writes (all of them in a
    /// full build).
    rebuilt: u64,
    /// The rebuilt blocks some write landed on.
    written: u64,
    /// The blocks the last image laid writes on that are not rebuilt:
    /// they keep them.
    kept: u64,
    /// The page the last image built here, taken from the basis.
    last: Option<Arc<Page>>,
    /// The page built, once a write landed.
    page: Option<Arc<Page>>,
}

impl PageBuild {
    /// The page to lay this build's writes on: the last image's page with
    /// the rebuilt blocks read back from `media` — in place when nothing
    /// else holds it — or a copy of `media`'s page when the last image
    /// laid nothing here.
    fn page(&mut self, media: Option<&Arc<Page>>) -> &mut Page {
        let Self {
            rebuilt,
            last,
            page,
            ..
        } = self;
        let page = page.get_or_insert_with(|| {
            let media: &Page = media.map_or(&ZERO_PAGE, |p| p);
            let Some(mut built) = last.take() else {
                return Arc::new(*media);
            };
            let bytes = Arc::make_mut(&mut built);
            let mut blocks = *rebuilt;
            while blocks != 0 {
                let at = blocks.trailing_zeros() as usize * BLOCK_BYTES;
                blocks &= blocks - 1;
                bytes[at..at + BLOCK_BYTES].copy_from_slice(&media[at..at + BLOCK_BYTES]);
            }
            built
        });
        Arc::make_mut(page)
    }
}

/// The persistence domain's writes of one image, laid page by page as
/// they come, in crash order.
#[derive(Debug)]
pub struct PageWrites {
    media: ByteStore,
    /// [`ImageBuild::rebuilt`].
    rebuilt: Option<Arc<[(Addr, u64)]>>,
    /// The pages written, and those the last image laid writes on that
    /// are rebuilt.
    pages: FxHashMap<Addr, PageBuild>,
}

impl PageWrites {
    /// Lays `data` at `addr` over everything laid before it. A partial
    /// build lays only writes on its rebuilt blocks: the caller filters.
    ///
    /// # Panics
    ///
    /// If `data` is longer than a block or crosses a page boundary, or if
    /// a partial build does not rebuild the page.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        let offset = (addr as usize) & (PAGE_BYTES - 1);
        assert!(
            data.len() <= BLOCK_BYTES && offset + data.len() <= PAGE_BYTES,
            "a crash write lies within one block"
        );
        let at = addr - offset as Addr;
        let Self {
            media,
            rebuilt,
            pages,
        } = self;
        // A page the last image laid nothing on joins at its first write.
        let build = pages.entry(at).or_insert_with(|| {
            let rebuilt = rebuilt.as_deref().map_or(!0, |masks| {
                let i = masks.binary_search_by_key(&at, |&(page, _)| page);
                masks[i.expect("a write on a rebuilt page")].1
            });
            PageBuild {
                rebuilt,
                written: 0,
                kept: 0,
                last: None,
                page: None,
            }
        });
        build.page(media.page_for(at))[offset..offset + data.len()].copy_from_slice(data);
        build.written |= 1 << (offset / BLOCK_BYTES);
    }
}

/// The next image of an [`ImageBasis`] under construction
/// ([`ImageBasis::start`]): the blocks it rebuilds, and the writes laid
/// so far.
#[derive(Debug)]
pub struct ImageBuild {
    /// The rebuilt blocks per page, ascending, as masks of the page's
    /// blocks; `None` in a full build.
    rebuilt: Option<Arc<[(Addr, u64)]>>,
    writes: PageWrites,
    /// Where the change log stands.
    mark: LogMark,
}

impl ImageBuild {
    /// The blocks to rebuild — per page in ascending page order, as a
    /// mask of the page's 64 blocks; `None` for every block (a full
    /// build) — and the sink for the persistence domain's writes on them,
    /// to be laid in crash order.
    pub fn parts(&mut self) -> (Option<&[(Addr, u64)]>, &mut PageWrites) {
        (self.rebuilt.as_deref(), &mut self.writes)
    }
}

/// Distinct pages a partial build rebuilds at most; a log naming more
/// (a bulk load, say) is built in full.
const MAX_REBUILT_PAGES: usize = 64;

/// Sets `masks` to the blocks of `since` per page, in ascending page
/// order, as masks; false past [`MAX_REBUILT_PAGES`] pages.
fn page_masks(since: impl Iterator<Item = BlockAddr>, masks: &mut Vec<(Addr, u64)>) -> bool {
    masks.clear();
    for block in since {
        let at = block.base() & !(PAGE_BYTES as Addr - 1);
        let bit = 1 << ((block.base() - at) / BLOCK_BYTES as Addr);
        let full = masks.len() == MAX_REBUILT_PAGES;
        // Consecutive blocks mostly share a page: search from the back.
        match masks.iter_mut().rev().find(|(page, _)| *page == at) {
            Some((_, mask)) => *mask |= bit,
            None if full => return false,
            None => masks.push((at, bit)),
        }
    }
    masks.sort_unstable_by_key(|&(page, _)| page);
    true
}

/// A page the last image laid writes on.
#[derive(Debug)]
struct Overlay {
    built: Arc<Page>,
    /// The blocks of the page some write landed on.
    written: u64,
    /// Whether media had the page (a build from media alone copies it).
    on_media: bool,
}

/// Builds crash images — media with the persistence domain's writes laid
/// over — and remembers the pages the last image laid writes on, so the
/// next image of the same machine and battery state rebuilds only what
/// changed.
///
/// A basis remembers where the machine's [`ChangeLog`] stood at its last
/// image. The next image is the last one with only the blocks logged
/// since rebuilt: media's bytes there plus the domain's writes on them,
/// in crash order. An image of media alone (the battery dropped) reads
/// only media's notes. Every other page keeps the last image's page, which
/// media and the writes under it left as they were. A fresh basis, or
/// one whose mark the log no longer holds, builds every page: the one
/// overlay definition, with or without a last image.
///
/// What a basis keeps pins memory — the pages it built — and a page it
/// rebuilds is rebuilt in place once nothing else holds it. The image it
/// returns names its rebuilt blocks ([`NvmImage::changes_since`]).
///
/// # Examples
///
/// ```
/// use bbb_mem::{ByteStore, Change, ChangeLog, ImageBasis};
/// use bbb_sim::BlockAddr;
/// let mut log = ChangeLog::default();
/// let mut media = ByteStore::new();
/// media.write_u64(0x1000, 1);
/// let mut basis = ImageBasis::default();
/// let lay = |basis: &mut ImageBasis, media: &ByteStore, log: &ChangeLog, v: u64| {
///     let mut build = basis.start(log, media.clone(), true);
///     let (only, writes) = build.parts();
///     // Block 0 of page 0x1000 holds the write.
///     if only.map_or(true, |pages| pages.contains(&(0x1000, 1))) {
///         writes.write(0x1008, &v.to_le_bytes());
///     }
///     basis.finish(build)
/// };
/// let first = lay(&mut basis, &media, &log, 2);
/// assert_eq!((first.read_u64(0x1000), first.read_u64(0x1008)), (1, 2));
///
/// // Nothing logged: the page is kept.
/// let second = lay(&mut basis, &media, &log, 2);
/// assert_eq!(first.pin(0x1000).changed_blocks(&second, 0x1000), None);
/// assert_eq!(second.changes_since(first.id()), Some(&[][..]));
///
/// // A logged write rebuilds its block.
/// log.note(BlockAddr::containing(0x1008), Change::Domain);
/// let third = lay(&mut basis, &media, &log, 3);
/// assert_eq!(third.read_u64(0x1008), 3);
/// assert_eq!(third.changes_since(second.id()), Some(&[(0x1000, 1)][..]));
/// ```
#[derive(Debug, Default)]
pub struct ImageBasis {
    /// Given at the first image.
    id: Option<u64>,
    /// Images built so far.
    images: u64,
    /// Where the change log stood at the last image; `None` before the
    /// first, and while a build is under way.
    mark: Option<LogMark>,
    /// The last image's pages with writes on them.
    pages: FxHashMap<Addr, Overlay>,
    /// Media pages under them.
    overlaid: u64,
    /// Empty buffers kept for the next build.
    spare: FxHashMap<Addr, PageBuild>,
    masks: Vec<(Addr, u64)>,
}

impl ImageBasis {
    /// Starts the next image over `media`, a snapshot of the live media,
    /// with `log` the machine's change log: a build of the blocks logged
    /// since the last image — media's, and the persistence domain's when
    /// `domain` lays its writes — or of every block. The pages it
    /// rebuilds leave the basis until [`ImageBasis::finish`], so a build
    /// dropped unfinished leaves the next one building in full.
    #[must_use]
    pub fn start(&mut self, log: &ChangeLog, media: ByteStore, domain: bool) -> ImageBuild {
        let since = self.mark.take().and_then(|mark| log.since(mark, domain));
        let partial = since.is_some_and(|since| page_masks(since, &mut self.masks));
        let mut pages = std::mem::take(&mut self.spare);
        let rebuilt = partial.then(|| {
            for &(at, mask) in &self.masks {
                if let Some(last) = self.pages.remove(&at) {
                    let build = PageBuild {
                        rebuilt: mask,
                        written: 0,
                        kept: last.written & !mask,
                        last: Some(last.built),
                        page: None,
                    };
                    pages.insert(at, build);
                }
            }
            Arc::from(&self.masks[..])
        });
        ImageBuild {
            rebuilt: rebuilt.clone(),
            writes: PageWrites {
                media,
                rebuilt,
                pages,
            },
            mark: log.mark(),
        }
    }

    /// The image `build` laid; the basis then describes it.
    #[must_use]
    pub fn finish(&mut self, build: ImageBuild) -> NvmImage {
        let ImageBuild {
            rebuilt,
            writes:
                PageWrites {
                    mut media,
                    mut pages,
                    ..
                },
            mark,
        } = build;
        if rebuilt.is_none() {
            self.pages.clear();
        }
        // Pages are independent, so any order builds the same image.
        for (at, mut page) in pages.drain() {
            let written = page.kept | page.written;
            if written == 0 {
                continue;
            }
            let under = media.page_for(at).cloned();
            page.page(under.as_ref());
            let overlay = Overlay {
                built: page.page.expect("built above"),
                written,
                on_media: under.is_some(),
            };
            self.pages.insert(at, overlay);
        }
        self.spare = pages;
        self.overlaid = 0;
        for (&at, overlay) in &self.pages {
            media.set_page(at, Arc::clone(&overlay.built));
            self.overlaid += u64::from(overlay.on_media);
        }
        self.mark = Some(mark);
        self.images += 1;
        let id = ImageId {
            basis: *self.id.get_or_insert_with(|| {
                static NEXT: AtomicU64 = AtomicU64::new(0);
                NEXT.fetch_add(1, Ordering::Relaxed)
            }),
            seq: self.images,
        };
        NvmImage {
            store: media,
            lineage: Some(Lineage { id, rebuilt }),
        }
    }

    /// Media pages the last image laid writes over: the pages a build
    /// with no last image copies.
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
        self.changed_blocks_in(image, addr, !0)
    }

    /// [`PinnedPage::changed_blocks`] reading only the blocks of `mask`:
    /// for a caller that knows the others are unchanged
    /// ([`NvmImage::changes_since`]).
    #[must_use]
    pub fn changed_blocks_in(&self, image: &NvmImage, addr: Addr, mask: u64) -> Option<u64> {
        fn block(page: Option<&Arc<Page>>, i: usize) -> &[u8] {
            page.map_or(&ZERO_PAGE[..BLOCK_BYTES], |p| {
                &p[i * BLOCK_BYTES..][..BLOCK_BYTES]
            })
        }
        let (pinned, now) = (self.0.as_ref(), image.store.page_for(addr));
        match (pinned, now) {
            (None, None) => None,
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => None,
            _ => {
                let (mut left, mut changed) = (mask, 0);
                while left != 0 {
                    let i = left.trailing_zeros() as usize;
                    left &= left - 1;
                    if block(pinned, i) != block(now, i) {
                        changed |= 1 << i;
                    }
                }
                Some(changed)
            }
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
