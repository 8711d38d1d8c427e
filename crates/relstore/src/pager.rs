//! The on-disk page file: where "blocks touched" becomes real I/O.
//!
//! A [`PageFile`] is a single file holding a checksummed 64-byte header
//! followed by fixed-size *frames*. Each frame stores one serialized
//! [`crate::page::Page`] image (or one chunk of the snapshot metadata
//! stream) behind a CRC-32, so a torn or bit-flipped frame is detected at
//! read time rather than decoded into garbage. The exact byte layout is
//! specified in `docs/STORAGE.md`.
//!
//! Frames are append-allocated. A checkpoint (see [`crate::snapshot`])
//! writes every table page into frames `0..n` and the metadata stream after
//! them, into a fresh file. Nothing else writes frames: between checkpoints
//! DML reaches disk only through the WAL, so the page file is exactly the
//! last checkpoint.
//!
//! All methods take `&self`: the file handle and header state live behind a
//! mutex, so a shared `Arc<PageFile>` can be read from any context.
//!
//! All physical I/O goes through a [`Vfs`] (see [`crate::vfs`]); the
//! convenience constructors [`PageFile::create`]/[`PageFile::open`] use the
//! real filesystem, while `create_with`/`open_with` accept any
//! implementation (fault injection in tests).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dataspread_types::{DsError, DsResult};

use crate::crc::crc32;
use crate::page::PAGE_SIZE;
use crate::vfs::{os_vfs, Vfs, VfsFile};

/// Magic bytes opening a page file: `"DSPF"`.
pub const PAGE_FILE_MAGIC: [u8; 4] = *b"DSPF";
/// On-disk format version this build reads and writes.
pub const PAGE_FILE_VERSION: u16 = 1;
/// Size of the page-file header in bytes.
pub const HEADER_SIZE: u64 = 64;
/// Maximum payload bytes per frame. A compacted page image needs at most
/// `PAGE_SIZE + 6` bytes (see [`crate::page::Page::to_image`]); the slack
/// rounds the frame to a stable size.
pub const FRAME_PAYLOAD: usize = PAGE_SIZE + 64;
/// Per-frame on-disk header: payload length, CRC-32, reserved.
pub const FRAME_HEADER: usize = 16;
/// Total on-disk bytes per frame.
pub const FRAME_SIZE: u64 = (FRAME_HEADER + FRAME_PAYLOAD) as u64;
/// Sentinel for "no metadata stream" in the header.
const META_NONE: u64 = u64::MAX;

/// Identity of a frame within a page file.
pub type FrameId = u64;

/// Physical I/O counters for a [`PageFile`].
#[derive(Debug, Default)]
pub struct PageFileStats {
    /// Frames written (checkpoint pages and metadata).
    pub frames_written: AtomicU64,
    /// Frames read back (recovery and snapshot load).
    pub frames_read: AtomicU64,
    /// Payload bytes written (excludes frame padding).
    pub bytes_written: AtomicU64,
    /// `fsync` calls issued.
    pub syncs: AtomicU64,
}

/// Point-in-time copy of [`PageFileStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PageFileSnapshot {
    /// Frames written since the file was opened.
    pub frames_written: u64,
    /// Frames read since the file was opened.
    pub frames_read: u64,
    /// Payload bytes written since the file was opened.
    pub bytes_written: u64,
    /// `fsync` calls since the file was opened.
    pub syncs: u64,
}

impl PageFileStats {
    /// One-pass copy of the counters.
    pub fn snapshot(&self) -> PageFileSnapshot {
        PageFileSnapshot {
            frames_written: self.frames_written.load(Ordering::Relaxed),
            frames_read: self.frames_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
        }
    }
}

struct Inner {
    file: Box<dyn VfsFile>,
    frame_count: u64,
    meta_first: u64,
    meta_len: u64,
    generation: u64,
}

/// A frame-addressed page file with a checksummed header.
pub struct PageFile {
    path: PathBuf,
    inner: Mutex<Inner>,
    stats: PageFileStats,
}

impl std::fmt::Debug for PageFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageFile")
            .field("path", &self.path)
            .field("frames_written", &self.stats.frames_written)
            .finish()
    }
}

impl Inner {
    fn encode_header(&self) -> [u8; HEADER_SIZE as usize] {
        let mut h = [0u8; HEADER_SIZE as usize];
        h[0..4].copy_from_slice(&PAGE_FILE_MAGIC);
        h[4..6].copy_from_slice(&PAGE_FILE_VERSION.to_le_bytes());
        // h[6..8] flags, zero.
        h[8..16].copy_from_slice(&self.frame_count.to_le_bytes());
        h[16..24].copy_from_slice(&self.meta_first.to_le_bytes());
        h[24..32].copy_from_slice(&self.meta_len.to_le_bytes());
        h[32..40].copy_from_slice(&self.generation.to_le_bytes());
        // h[40..60] reserved, zero.
        let crc = crc32(&h[0..60]);
        h[60..64].copy_from_slice(&crc.to_le_bytes());
        h
    }

    fn write_header(&mut self, path: &Path) -> DsResult<()> {
        let h = self.encode_header();
        self.file
            .write_all_at(0, &h)
            .map_err(|e| DsError::io("page file header write", path, Some(0), &e))
    }
}

impl PageFile {
    /// Create (or truncate) a page file at `path` with an empty frame region.
    pub fn create(path: impl AsRef<Path>, generation: u64) -> DsResult<PageFile> {
        Self::create_with(&os_vfs(), path, generation)
    }

    /// [`PageFile::create`] against an explicit [`Vfs`].
    pub fn create_with(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        generation: u64,
    ) -> DsResult<PageFile> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .create(&path)
            .map_err(|e| DsError::io("page file create", &path, None, &e))?;
        let mut inner = Inner {
            file,
            frame_count: 0,
            meta_first: META_NONE,
            meta_len: 0,
            generation,
        };
        inner.write_header(&path)?;
        Ok(PageFile {
            path,
            inner: Mutex::new(inner),
            stats: PageFileStats::default(),
        })
    }

    /// Open an existing page file, validating magic, version, and header CRC.
    pub fn open(path: impl AsRef<Path>) -> DsResult<PageFile> {
        Self::open_with(&os_vfs(), path)
    }

    /// [`PageFile::open`] against an explicit [`Vfs`].
    pub fn open_with(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> DsResult<PageFile> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .open(&path)
            .map_err(|e| DsError::io("page file open", &path, None, &e))?;
        let mut h = [0u8; HEADER_SIZE as usize];
        file.read_exact_at(0, &mut h)
            .map_err(|e| DsError::io("page file header read", &path, Some(0), &e))?;
        if h[0..4] != PAGE_FILE_MAGIC {
            return Err(DsError::Storage("page file: bad magic".into()));
        }
        let version = crate::codec::u16_le(&h[4..6]);
        if version != PAGE_FILE_VERSION {
            return Err(DsError::Storage(format!(
                "page file: unsupported version {version}"
            )));
        }
        let stored_crc = crate::codec::u32_le(&h[60..64]);
        if crc32(&h[0..60]) != stored_crc {
            return Err(DsError::Storage(
                "page file: header checksum mismatch".into(),
            ));
        }
        let inner = Inner {
            file,
            frame_count: crate::codec::u64_le(&h[8..16]),
            meta_first: crate::codec::u64_le(&h[16..24]),
            meta_len: crate::codec::u64_le(&h[24..32]),
            generation: crate::codec::u64_le(&h[32..40]),
        };
        Ok(PageFile {
            path,
            inner: Mutex::new(inner),
            stats: PageFileStats::default(),
        })
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The file this pager writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Checkpoint generation stamped in the header (matched against the WAL).
    pub fn generation(&self) -> u64 {
        self.inner().generation
    }

    /// Frames currently allocated (written by the checkpoint).
    pub fn frame_count(&self) -> u64 {
        self.inner().frame_count
    }

    /// Physical I/O counters.
    pub fn stats(&self) -> &PageFileStats {
        &self.stats
    }

    fn write_frame_locked(
        inner: &mut Inner,
        path: &Path,
        id: FrameId,
        payload: &[u8],
    ) -> DsResult<()> {
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(&0u64.to_le_bytes());
        frame.extend_from_slice(payload);
        let offset = HEADER_SIZE + id * FRAME_SIZE;
        inner
            .file
            .write_all_at(offset, &frame)
            .map_err(|e| DsError::io("frame write", path, Some(offset), &e))
    }

    /// Allocate a fresh frame, write `payload` into it, and return its id.
    /// The header is persisted on the next [`PageFile::sync`].
    pub fn append_frame(&self, payload: &[u8]) -> DsResult<FrameId> {
        if payload.len() > FRAME_PAYLOAD {
            return Err(DsError::Storage(format!(
                "frame payload of {} bytes exceeds {FRAME_PAYLOAD}",
                payload.len()
            )));
        }
        let mut inner = self.inner();
        let id = inner.frame_count;
        Self::write_frame_locked(&mut inner, &self.path, id, payload)?;
        inner.frame_count += 1;
        self.stats.frames_written.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_written
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        Ok(id)
    }

    /// Read a frame's payload, validating its length and CRC.
    pub fn read_frame(&self, id: FrameId) -> DsResult<Vec<u8>> {
        let inner = self.inner();
        if id >= inner.frame_count {
            return Err(DsError::Storage(format!(
                "frame {id} out of range ({} frames)",
                inner.frame_count
            )));
        }
        let offset = HEADER_SIZE + id * FRAME_SIZE;
        let mut head = [0u8; FRAME_HEADER];
        inner
            .file
            .read_exact_at(offset, &mut head)
            .map_err(|e| DsError::io("frame header read", &self.path, Some(offset), &e))?;
        let len = crate::codec::u32_le(&head[0..4]) as usize;
        let stored_crc = crate::codec::u32_le(&head[4..8]);
        if len > FRAME_PAYLOAD {
            return Err(DsError::Storage(format!(
                "frame {id}: corrupt length {len}"
            )));
        }
        let mut payload = vec![0u8; len];
        inner
            .file
            .read_exact_at(offset + FRAME_HEADER as u64, &mut payload)
            .map_err(|e| DsError::io("frame payload read", &self.path, Some(offset), &e))?;
        if crc32(&payload) != stored_crc {
            return Err(DsError::Storage(format!("frame {id}: checksum mismatch")));
        }
        self.stats.frames_read.fetch_add(1, Ordering::Relaxed);
        Ok(payload)
    }

    /// Write the snapshot metadata stream, chunked into frames appended after
    /// the data frames. Call once per checkpoint, after all page frames.
    pub fn write_meta(&self, meta: &[u8]) -> DsResult<()> {
        let first = {
            let inner = self.inner();
            inner.frame_count
        };
        if meta.is_empty() {
            let mut inner = self.inner();
            inner.meta_first = META_NONE;
            inner.meta_len = 0;
            return Ok(());
        }
        for chunk in meta.chunks(FRAME_PAYLOAD) {
            self.append_frame(chunk)?;
        }
        let mut inner = self.inner();
        inner.meta_first = first;
        inner.meta_len = meta.len() as u64;
        Ok(())
    }

    /// Read back the metadata stream written by [`PageFile::write_meta`].
    pub fn read_meta(&self) -> DsResult<Vec<u8>> {
        let (first, len) = {
            let inner = self.inner();
            (inner.meta_first, inner.meta_len)
        };
        if first == META_NONE {
            return Ok(Vec::new());
        }
        let mut out = Vec::with_capacity(len as usize);
        let mut id = first;
        while (out.len() as u64) < len {
            let chunk = self.read_frame(id)?;
            out.extend_from_slice(&chunk);
            id += 1;
        }
        if out.len() as u64 != len {
            return Err(DsError::Storage(
                "page file: metadata stream length mismatch".into(),
            ));
        }
        Ok(out)
    }

    /// Persist the header and `fsync` the file.
    pub fn sync(&self) -> DsResult<()> {
        let mut inner = self.inner();
        inner.write_header(&self.path)?;
        inner
            .file
            .sync()
            .map_err(|e| DsError::io("page file sync", &self.path, None, &e))?;
        self.stats.syncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("dsp-pager-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn frames_round_trip_across_reopen() {
        let path = tmp("roundtrip");
        let pf = PageFile::create(&path, 7).unwrap();
        let a = pf.append_frame(b"alpha").unwrap();
        let b = pf.append_frame(&vec![9u8; FRAME_PAYLOAD]).unwrap();
        pf.write_meta(b"meta-bytes").unwrap();
        pf.sync().unwrap();
        drop(pf);

        let pf = PageFile::open(&path).unwrap();
        assert_eq!(pf.generation(), 7);
        assert_eq!(pf.read_frame(a).unwrap(), b"alpha");
        assert_eq!(pf.read_frame(b).unwrap(), vec![9u8; FRAME_PAYLOAD]);
        assert_eq!(pf.read_meta().unwrap(), b"meta-bytes");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn oversized_payload_rejected() {
        let path = tmp("oversize");
        let pf = PageFile::create(&path, 1).unwrap();
        assert!(pf.append_frame(&vec![0u8; FRAME_PAYLOAD + 1]).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_frame_detected() {
        let path = tmp("corrupt");
        let pf = PageFile::create(&path, 1).unwrap();
        let id = pf.append_frame(b"precious bytes").unwrap();
        pf.sync().unwrap();
        drop(pf);
        // Flip one payload byte on disk.
        let mut raw = std::fs::read(&path).unwrap();
        let off = (HEADER_SIZE + FRAME_HEADER as u64 + 3) as usize;
        raw[off] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let pf = PageFile::open(&path).unwrap();
        assert!(pf.read_frame(id).is_err(), "checksum must catch the flip");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_header_detected() {
        let path = tmp("badheader");
        let pf = PageFile::create(&path, 1).unwrap();
        pf.sync().unwrap();
        drop(pf);
        let mut raw = std::fs::read(&path).unwrap();
        raw[10] ^= 0x01; // inside frame_count
        std::fs::write(&path, &raw).unwrap();
        assert!(PageFile::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn large_meta_spans_frames() {
        let path = tmp("bigmeta");
        let pf = PageFile::create(&path, 1).unwrap();
        let meta: Vec<u8> = (0..3 * FRAME_PAYLOAD + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        pf.write_meta(&meta).unwrap();
        pf.sync().unwrap();
        drop(pf);
        let pf = PageFile::open(&path).unwrap();
        assert_eq!(pf.read_meta().unwrap(), meta);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stats_count_physical_io() {
        let path = tmp("stats");
        let pf = PageFile::create(&path, 1).unwrap();
        pf.append_frame(b"x").unwrap();
        pf.append_frame(b"yy").unwrap();
        pf.read_frame(0).unwrap();
        pf.sync().unwrap();
        let s = pf.stats().snapshot();
        assert_eq!(s.frames_written, 2);
        assert_eq!(s.frames_read, 1);
        assert_eq!(s.bytes_written, 3);
        assert_eq!(s.syncs, 1);
        std::fs::remove_file(&path).unwrap();
    }
}
