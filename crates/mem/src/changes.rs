//! The bounded log of blocks whose crash image may have changed.
//!
//! A crash image is NVMM media with the persistence domain's writes laid
//! over it, so its bytes at a block can change only when media at that
//! block changes or when a persist-domain structure — a cache line, a
//! persist-buffer entry, a store-buffer entry — of that block changes.
//! Every such mutation appends its block to one [`ChangeLog`] (the NVMM
//! controller's). A crash-image builder remembers where the log stood at
//! its last image ([`ChangeLog::mark`]) and at the next one rebuilds only
//! the pages of the blocks logged since ([`ChangeLog::since`]).
//!
//! Reporting a block whose bytes did not change is safe: it costs a
//! rebuild. Missing one is a bug. The log keeps the last
//! [`ChangeLog::CAPACITY`] blocks; a reader whose mark fell out of them,
//! or a mark taken before [`ChangeLog::overflow`], learns only that
//! anything may have changed. Until a reader takes its first mark the
//! log records nothing, so a run that builds no image pays one branch
//! per change.

use std::sync::atomic::{AtomicU64, Ordering};

use bbb_sim::{Addr, BlockAddr, BLOCK_BYTES};

use crate::backing::PAGE_BYTES;

/// A distinct id for every log that is read, clones included; never 0.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// The last [`ChangeLog::CAPACITY`] blocks whose crash bytes may have
/// changed (see the module docs).
///
/// # Examples
///
/// ```
/// use bbb_mem::ChangeLog;
/// use bbb_sim::BlockAddr;
/// let mut log = ChangeLog::default();
/// let first = log.mark();
/// log.note(BlockAddr::from_index(1));
/// assert_eq!(log.since(first).map(Iterator::count), Some(1));
/// let mark = log.mark();
/// log.note(BlockAddr::from_index(3));
/// log.note(BlockAddr::from_index(3));
/// let since: Vec<_> = log.since(mark).expect("in the log").collect();
/// assert_eq!(since, [BlockAddr::from_index(3)]);
///
/// // A mark between two notes of one block keeps both.
/// let again = log.mark();
/// log.note(BlockAddr::from_index(3));
/// assert_eq!(log.since(again).map(Iterator::count), Some(1));
///
/// for i in 0..ChangeLog::CAPACITY as u64 {
///     log.note(BlockAddr::from_index(2 * i));
/// }
/// assert!(log.since(mark).is_none(), "fell out of the log");
/// let mark = log.mark();
/// log.overflow();
/// assert!(log.since(mark).is_none());
/// assert!(log.since(log.mark()).is_some());
/// ```
#[derive(Debug)]
pub struct ChangeLog {
    /// Given at the first mark; 0 before.
    id: AtomicU64,
    /// The readable blocks, position `p` at `ring[p % CAPACITY]`; grown
    /// on demand up to the capacity.
    ring: Vec<BlockAddr>,
    /// Blocks recorded so far.
    total: u64,
    /// The oldest readable position.
    start: u64,
    /// Where the last mark was taken ([`UNREAD`] before the first): a
    /// repeat of the block just recorded is dropped only when no mark
    /// lies between the two.
    marked: AtomicU64,
}

/// [`ChangeLog::marked`] of a log no reader has marked: nothing it would
/// record could ever be read, so it records nothing.
const UNREAD: u64 = u64::MAX;

/// Where a [`ChangeLog`] stood: the blocks recorded after it are
/// [`ChangeLog::since`] it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogMark {
    log: u64,
    at: u64,
}

impl Default for ChangeLog {
    fn default() -> Self {
        Self {
            id: AtomicU64::new(0),
            ring: Vec::new(),
            total: 0,
            start: 0,
            marked: AtomicU64::new(UNREAD),
        }
    }
}

impl Clone for ChangeLog {
    /// A clone is another log: the two record different futures, so a
    /// mark of one reads nothing of the other.
    fn clone(&self) -> Self {
        Self::default()
    }
}

impl ChangeLog {
    /// Blocks the log keeps.
    pub const CAPACITY: usize = 4096;

    /// Records that `block`'s crash bytes may have changed. A repeat of
    /// the block just recorded is dropped, unless a mark was taken in
    /// between; so is everything before the first mark.
    #[inline]
    pub fn note(&mut self, block: BlockAddr) {
        let marked = *self.marked.get_mut();
        if marked == UNREAD {
            return;
        }
        let cap = Self::CAPACITY as u64;
        let repeat = self.total > marked
            && self.total > self.start
            && self.ring[((self.total - 1) % cap) as usize] == block;
        if repeat {
            return;
        }
        let at = (self.total % cap) as usize;
        if at < self.ring.len() {
            self.ring[at] = block;
        } else {
            // Most readers' windows are short: grow from a modest start.
            self.ring.reserve(256);
            self.ring.resize(at + 1, block);
        }
        self.total += 1;
        self.start = self.start.max(self.total.saturating_sub(cap));
    }

    /// Records every block of the page holding `addr`.
    pub fn note_page(&mut self, addr: Addr) {
        if *self.marked.get_mut() == UNREAD {
            return;
        }
        let first = BlockAddr::containing(addr & !(PAGE_BYTES as Addr - 1));
        for i in 0..(PAGE_BYTES / BLOCK_BYTES) as u64 {
            self.note(BlockAddr::from_index(first.index() + i));
        }
    }

    /// Records that anything may have changed: no mark taken before reads
    /// the log.
    pub fn overflow(&mut self) {
        self.total += 1;
        self.start = self.total;
    }

    /// Where the log stands now.
    #[must_use]
    pub fn mark(&self) -> LogMark {
        let mut log = self.id.load(Ordering::Relaxed);
        if log == 0 {
            log = next_id();
            self.id.store(log, Ordering::Relaxed);
        }
        self.marked.store(self.total, Ordering::Relaxed);
        LogMark {
            log,
            at: self.total,
        }
    }

    /// The blocks recorded after `mark`, oldest first and possibly
    /// repeated; `None` when `mark` is another log's or no longer readable.
    #[must_use]
    pub fn since(&self, mark: LogMark) -> Option<impl Iterator<Item = BlockAddr> + '_> {
        let readable = mark.log == self.id.load(Ordering::Relaxed)
            && mark.at >= self.start
            && mark.at <= self.total;
        let cap = Self::CAPACITY as u64;
        readable.then(|| (mark.at..self.total).map(move |p| self.ring[(p % cap) as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pages_wrap_and_clones_keep_every_reader_exact() {
        let mut log = ChangeLog::default();
        let mark = log.mark();
        log.note_page(0x1FFF);
        let blocks: Vec<_> = log.since(mark).expect("bounded").collect();
        assert_eq!(blocks.len(), 64);
        assert_eq!(blocks[0], BlockAddr::containing(0x1000));
        assert_eq!(blocks[63], BlockAddr::containing(0x1FC0));

        // Past the capacity the ring wraps: a recent mark still reads
        // exactly what came after it.
        for i in 0..3 * ChangeLog::CAPACITY as u64 {
            log.note(BlockAddr::from_index(i));
        }
        let mark = log.mark();
        log.note(BlockAddr::from_index(7));
        log.note(BlockAddr::from_index(9));
        let since: Vec<_> = log.since(mark).expect("recent").collect();
        assert_eq!(since, [BlockAddr::from_index(7), BlockAddr::from_index(9)]);

        // A clone is another log.
        let other = log.clone();
        assert!(other.since(mark).is_none());
        assert!(other.since(other.mark()).is_some());
    }
}
