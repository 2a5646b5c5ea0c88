//! The one record of what a crash image depends on.
//!
//! A crash image is NVMM media with the persistence domain's writes laid
//! over it, so its bytes at a block change only when media or a
//! persist-domain structure (a cache line, a persist-buffer or
//! store-buffer entry) of that block changes. Every such mutation notes
//! its block and its [`Change`] kind in one [`ChangeLog`], the NVMM
//! controller's.
//!
//! The log counts every note of each kind, always ([`ChangeLog::notes`]),
//! so no note is skipped while nobody reads: media's count alone
//! fingerprints a battery-dropped crash image, media's plus the domain's
//! a healthy one. Once a reader marks the log ([`ChangeLog::mark`]), it
//! also keeps the noted blocks, and an image builder rebuilds only the
//! blocks noted since its last image ([`ChangeLog::since`]) — media's
//! alone for a dropped image.
//!
//! Reporting a block whose bytes did not change is safe: it costs a
//! rebuild. Missing one is a bug. The log keeps the last
//! [`ChangeLog::CAPACITY`] blocks; a reader whose mark fell out of them,
//! or a mark taken before [`ChangeLog::overflow`], learns only that
//! anything may have changed.

use std::sync::atomic::{AtomicU64, Ordering};

use bbb_sim::{Addr, BlockAddr, BLOCK_BYTES};

use crate::backing::PAGE_BYTES;

/// A distinct id for every log that is read, clones included; never 0.
fn next_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// What a [`ChangeLog`] note says changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Change {
    /// NVMM media: the controller's own writes, loads and page shares.
    Media,
    /// The persistence domain above media: a cache line, persist-buffer
    /// entry or store-buffer entry that a crash with the battery healthy
    /// writes to media ([`MemoryPort::note_change`](bbb_sim::MemoryPort::note_change)).
    Domain,
}

/// Every change a crash image depends on: counted always, and the last
/// [`ChangeLog::CAPACITY`] blocks kept once a reader marks (see the
/// module docs).
///
/// # Examples
///
/// ```
/// use bbb_mem::{Change, ChangeLog};
/// use bbb_sim::BlockAddr;
/// let mut log = ChangeLog::default();
/// let first = log.mark();
/// log.note(BlockAddr::from_index(1), Change::Media);
/// assert_eq!(log.since(first, true).map(Iterator::count), Some(1));
/// let mark = log.mark();
/// log.note(BlockAddr::from_index(3), Change::Domain);
/// log.note(BlockAddr::from_index(3), Change::Domain);
/// let since: Vec<_> = log.since(mark, true).expect("in the log").collect();
/// assert_eq!(since, [BlockAddr::from_index(3)]);
/// // A reader of media alone skips the domain's notes; every note counts.
/// assert_eq!(log.since(mark, false).map(Iterator::count), Some(0));
/// assert_eq!((log.notes(false), log.notes(true)), (1, 3));
///
/// // A mark between two notes of one block keeps both.
/// let again = log.mark();
/// log.note(BlockAddr::from_index(3), Change::Media);
/// assert_eq!(log.since(again, false).map(Iterator::count), Some(1));
///
/// for i in 0..ChangeLog::CAPACITY as u64 {
///     log.note(BlockAddr::from_index(2 * i), Change::Media);
/// }
/// assert!(log.since(mark, true).is_none(), "fell out of the log");
/// let mark = log.mark();
/// log.overflow();
/// assert!(log.since(mark, true).is_none());
/// assert!(log.since(log.mark(), true).is_some());
/// ```
#[derive(Debug)]
pub struct ChangeLog {
    /// Given at the first mark; 0 before.
    id: AtomicU64,
    /// The readable records, position `p` at `ring[p % CAPACITY]`; grown
    /// on demand up to the capacity.
    ring: Vec<(BlockAddr, Change)>,
    /// Records kept so far.
    total: u64,
    /// The oldest readable position.
    start: u64,
    /// Where the last mark was taken ([`UNREAD`] before the first): a
    /// repeat of the block just recorded is dropped only when no mark
    /// lies between the two.
    marked: AtomicU64,
    /// Notes of media changes over the machine's life, a clone's
    /// original's included.
    media_notes: u64,
    /// Notes of domain changes, likewise.
    domain_notes: u64,
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
            media_notes: 0,
            domain_notes: 0,
        }
    }
}

impl Clone for ChangeLog {
    /// A clone is another log: the two record different futures, so a
    /// mark of one reads nothing of the other. The counts carry over: a
    /// clone starts at its original's [`ChangeLog::notes`].
    fn clone(&self) -> Self {
        Self {
            media_notes: self.media_notes,
            domain_notes: self.domain_notes,
            ..Self::default()
        }
    }
}

impl ChangeLog {
    /// Blocks the log keeps.
    pub const CAPACITY: usize = 4096;

    /// Notes that `block`'s crash bytes may have changed, in media or in
    /// the domain. The note is counted, and its block recorded for the
    /// readers; a repeat of the block just recorded with no mark in
    /// between adds no record (a media note makes that record media's).
    #[inline]
    pub fn note(&mut self, block: BlockAddr, change: Change) {
        match change {
            Change::Media => self.media_notes += 1,
            Change::Domain => self.domain_notes += 1,
        }
        self.record(block, change);
    }

    /// Notes a media change of every block of the page holding `addr`.
    pub fn note_page(&mut self, addr: Addr) {
        self.media_notes += 1;
        if *self.marked.get_mut() == UNREAD {
            return;
        }
        let first = BlockAddr::containing(addr & !(PAGE_BYTES as Addr - 1));
        for i in 0..(PAGE_BYTES / BLOCK_BYTES) as u64 {
            self.record(BlockAddr::from_index(first.index() + i), Change::Media);
        }
    }

    /// Records `block` for the readers (see [`ChangeLog::note`]); nothing
    /// before the first mark.
    #[inline]
    fn record(&mut self, block: BlockAddr, change: Change) {
        let marked = *self.marked.get_mut();
        if marked == UNREAD {
            return;
        }
        let cap = Self::CAPACITY as u64;
        if self.total > marked && self.total > self.start {
            let last = &mut self.ring[((self.total - 1) % cap) as usize];
            if last.0 == block {
                if change == Change::Media {
                    last.1 = Change::Media;
                }
                return;
            }
        }
        let at = (self.total % cap) as usize;
        if at < self.ring.len() {
            self.ring[at] = (block, change);
        } else {
            // Most readers' windows are short: grow from a modest start.
            self.ring.reserve(256);
            self.ring.resize(at + 1, (block, change));
        }
        self.total += 1;
        self.start = self.start.max(self.total.saturating_sub(cap));
    }

    /// Notes that anything in the domain may have changed — a destructive
    /// crash emptied it: no mark taken before reads the log.
    pub fn overflow(&mut self) {
        self.domain_notes += 1;
        self.total += 1;
        self.start = self.total;
    }

    /// The notes taken so far: media's, plus the domain's when `domain`.
    /// The counts only grow, so an unchanged count proves that nothing
    /// it counts was noted in between.
    #[must_use]
    pub fn notes(&self, domain: bool) -> u64 {
        self.media_notes + if domain { self.domain_notes } else { 0 }
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

    /// The blocks recorded after `mark` — media's, and the domain's when
    /// `domain` — oldest first and possibly repeated; `None` when `mark`
    /// is another log's or no longer readable.
    #[must_use]
    pub fn since(
        &self,
        mark: LogMark,
        domain: bool,
    ) -> Option<impl Iterator<Item = BlockAddr> + '_> {
        let readable = mark.log == self.id.load(Ordering::Relaxed)
            && mark.at >= self.start
            && mark.at <= self.total;
        let cap = Self::CAPACITY as u64;
        readable.then(|| {
            (mark.at..self.total)
                .map(move |p| self.ring[(p % cap) as usize])
                .filter(move |&(_, change)| domain || change == Change::Media)
                .map(|(block, _)| block)
        })
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
        let blocks: Vec<_> = log.since(mark, false).expect("bounded").collect();
        assert_eq!(blocks.len(), 64);
        assert_eq!(blocks[0], BlockAddr::containing(0x1000));
        assert_eq!(blocks[63], BlockAddr::containing(0x1FC0));

        // Past the capacity the ring wraps: a recent mark still reads
        // exactly what came after it.
        for i in 0..3 * ChangeLog::CAPACITY as u64 {
            log.note(BlockAddr::from_index(i), Change::Domain);
        }
        let mark = log.mark();
        log.note(BlockAddr::from_index(7), Change::Domain);
        log.note(BlockAddr::from_index(9), Change::Media);
        let since: Vec<_> = log.since(mark, true).expect("recent").collect();
        assert_eq!(since, [BlockAddr::from_index(7), BlockAddr::from_index(9)]);

        // A clone is another log, at its original's counts.
        let other = log.clone();
        assert!(other.since(mark, true).is_none());
        assert!(other.since(other.mark(), true).is_some());
        assert_eq!(other.notes(false), log.notes(false));
        assert_eq!(other.notes(true), log.notes(true));
    }

    #[test]
    fn every_note_counts_and_a_media_repeat_reaches_every_reader() {
        let mut log = ChangeLog::default();
        // Unread: no block is kept, but every note counts.
        log.note(BlockAddr::from_index(1), Change::Media);
        log.note(BlockAddr::from_index(1), Change::Domain);
        log.note_page(0x1000);
        assert_eq!((log.notes(false), log.notes(true)), (2, 3));
        let mark = log.mark();
        assert_eq!(log.since(mark, true).map(Iterator::count), Some(0));

        // A domain note repeated by a media one keeps one record, which
        // a reader of media alone reads too.
        log.note(BlockAddr::from_index(5), Change::Domain);
        log.note(BlockAddr::from_index(5), Change::Media);
        log.note(BlockAddr::from_index(5), Change::Domain);
        let media: Vec<_> = log.since(mark, false).expect("in the log").collect();
        assert_eq!(media, [BlockAddr::from_index(5)]);
        assert_eq!(log.since(mark, true).map(Iterator::count), Some(1));

        // A destructive crash moves the domain's count alone.
        let (media, all) = (log.notes(false), log.notes(true));
        log.overflow();
        assert_eq!((log.notes(false), log.notes(true)), (media, all + 1));
    }
}
