//! Post-crash NVMM images.
//!
//! When the simulator injects a power failure, whatever the active
//! persistence domain drained to media becomes an [`NvmImage`]: the exact
//! byte contents recovery code would see on reboot. Workload-specific
//! checkers (in `bbb-workloads`) validate structure invariants against it.

use std::sync::Arc;

use bbb_sim::{Addr, BlockAddr, BLOCK_BYTES};

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
