//! Storage engines behind the ring: one trait, interchangeable backings.
//!
//! Ring code addresses storage by *ring-relative byte offset*; a backing
//! maps those to real bytes. [`MemBacking`] is plain memory (tests, and
//! the shape `bbb-workloads`' simulator backing mirrors so crashfuzz can
//! crash-sweep the protocol). [`FileBacking`] is a real file, durable
//! across process restarts. The `persist` hook is how the
//! [`FlushShim`](crate::FlushShim) reaches the engine's durability
//! primitive: cache-line flushes on hardware, `File::sync_data` here.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;

/// A byte store the ring persists into. Offsets are ring-relative; all
/// accesses are 8-byte words at 8-aligned offsets (the ring's own
/// alignment discipline guarantees this).
pub trait PBacking {
    /// Reads the word at `off`.
    ///
    /// # Errors
    ///
    /// Returns a description of an engine failure (I/O error,
    /// out-of-range offset).
    fn read_u64(&mut self, off: u64) -> Result<u64, String>;

    /// Writes the word at `off`. A plain store: durability comes from
    /// [`PBacking::persist`] or from the machine's battery.
    ///
    /// # Errors
    ///
    /// Returns a description of an engine failure.
    fn write_u64(&mut self, off: u64, value: u64) -> Result<(), String>;

    /// Makes prior writes to the listed 64-byte blocks durable, then
    /// fences: nothing written after this call may become durable before
    /// the listed blocks are. An empty list is a pure ordering fence.
    ///
    /// # Errors
    ///
    /// Returns a description of an engine failure.
    fn persist(&mut self, blocks: &[u64]) -> Result<(), String>;
}

/// An in-memory backing: fast, crash-free, counts persist calls so tests
/// can assert the shim's flush behavior.
#[derive(Debug, Clone)]
pub struct MemBacking {
    bytes: Vec<u8>,
    persist_calls: u64,
}

impl MemBacking {
    /// A zeroed backing of `len` bytes.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            bytes: vec![0; len],
            persist_calls: 0,
        }
    }

    /// How many times [`PBacking::persist`] ran (flushes or fences).
    #[must_use]
    pub fn persist_calls(&self) -> u64 {
        self.persist_calls
    }
}

impl PBacking for MemBacking {
    fn read_u64(&mut self, off: u64) -> Result<u64, String> {
        let i = off as usize;
        let end = i.checked_add(8).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("read past backing end: off {off}"))?;
        let mut w = [0u8; 8];
        w.copy_from_slice(&self.bytes[i..end]);
        Ok(u64::from_le_bytes(w))
    }

    fn write_u64(&mut self, off: u64, value: u64) -> Result<(), String> {
        let i = off as usize;
        let end = i.checked_add(8).filter(|&e| e <= self.bytes.len());
        let end = end.ok_or_else(|| format!("write past backing end: off {off}"))?;
        self.bytes[i..end].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn persist(&mut self, _blocks: &[u64]) -> Result<(), String> {
        self.persist_calls += 1;
        Ok(())
    }
}

/// A file backing: each ring word lives at the same offset in the file,
/// and `persist` maps to `File::sync_data`.
///
/// `std` exposes no ranged sync, so the shim's dirty-block list — the
/// range a `sync_file_range`-style call would take — collapses to one
/// conservative whole-file `sync_data` per barrier. The *count* of
/// barriers still matches the minimal protocol (two per commit), which is
/// what dominates on a real disk.
#[derive(Debug)]
pub struct FileBacking {
    file: File,
    syncs: u64,
}

impl FileBacking {
    /// Opens (creating if absent) the ring file at `path`, sized to hold
    /// `len` bytes. An existing longer file is left untouched beyond a
    /// size check.
    ///
    /// # Errors
    ///
    /// Returns a description of the I/O failure.
    pub fn open(path: &Path, len: u64) -> Result<Self, String> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        let cur = file
            .metadata()
            .map_err(|e| format!("stat {}: {e}", path.display()))?
            .len();
        if cur < len {
            file.set_len(len)
                .map_err(|e| format!("grow {}: {e}", path.display()))?;
        }
        Ok(Self { file, syncs: 0 })
    }

    /// `sync_data` calls issued so far.
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

impl PBacking for FileBacking {
    fn read_u64(&mut self, off: u64) -> Result<u64, String> {
        self.file
            .seek(SeekFrom::Start(off))
            .map_err(|e| format!("seek {off}: {e}"))?;
        let mut w = [0u8; 8];
        self.file
            .read_exact(&mut w)
            .map_err(|e| format!("read {off}: {e}"))?;
        Ok(u64::from_le_bytes(w))
    }

    fn write_u64(&mut self, off: u64, value: u64) -> Result<(), String> {
        self.file
            .seek(SeekFrom::Start(off))
            .map_err(|e| format!("seek {off}: {e}"))?;
        self.file
            .write_all(&value.to_le_bytes())
            .map_err(|e| format!("write {off}: {e}"))
    }

    fn persist(&mut self, _blocks: &[u64]) -> Result<(), String> {
        self.syncs += 1;
        self.file.sync_data().map_err(|e| format!("sync_data: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backing_round_trips_words() {
        let mut b = MemBacking::new(128);
        b.write_u64(8, 0xDEAD_BEEF_u64).unwrap();
        assert_eq!(b.read_u64(8).unwrap(), 0xDEAD_BEEF);
        assert_eq!(b.read_u64(16).unwrap(), 0);
        assert!(b.read_u64(128).is_err());
        assert!(b.write_u64(121, 1).is_err());
    }

    #[test]
    fn file_backing_round_trips_and_syncs() {
        let dir = std::env::temp_dir().join("bbb-pstore-backing-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.dat");
        let _ = std::fs::remove_file(&path);
        {
            let mut b = FileBacking::open(&path, 4096).unwrap();
            b.write_u64(256, 42).unwrap();
            b.persist(&[4]).unwrap();
            assert_eq!(b.syncs(), 1);
        }
        let mut b = FileBacking::open(&path, 4096).unwrap();
        assert_eq!(b.read_u64(256).unwrap(), 42, "durable across reopen");
        let _ = std::fs::remove_file(&path);
    }
}
