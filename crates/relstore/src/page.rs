//! Slotted pages: the unit of "disk blocks touched".
//!
//! Each page is a fixed-budget byte arena with a slot directory. Fragments
//! are inserted at the free pointer; updates rewrite in place when the new
//! bytes fit the old slot, otherwise they re-append (compacting the page when
//! fragmentation would otherwise force an overflow). Deletes tombstone the
//! slot. This mirrors the classic heap-page design closely enough that page
//! counts are an honest proxy for the paper's disk-block accounting
//! (substitution #3 in `DESIGN.md`).

use dataspread_types::{DsError, DsResult};

/// Fixed page budget in bytes (a classic 4 KiB block).
pub const PAGE_SIZE: usize = 4096;

/// Slot index within a page.
pub type SlotId = u16;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Slot {
    Live { off: u32, len: u32 },
    Dead,
}

/// A slotted heap page.
#[derive(Clone, Debug)]
pub struct Page {
    data: Vec<u8>,
    slots: Vec<Slot>,
    /// Bytes occupied by live fragments (excludes directory bookkeeping).
    live_bytes: usize,
}

impl Default for Page {
    fn default() -> Self {
        Page::new()
    }
}

/// Per-slot directory overhead charged against the page budget.
const SLOT_OVERHEAD: usize = 8;

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        Page {
            data: Vec::new(),
            slots: Vec::new(),
            live_bytes: 0,
        }
    }

    /// Bytes a new fragment of `len` bytes would consume (payload + slot).
    fn cost(len: usize) -> usize {
        len + SLOT_OVERHEAD
    }

    /// Can a fragment of `len` bytes fit, possibly after compaction?
    pub fn has_room(&self, len: usize) -> bool {
        self.live_bytes + self.slots.len() * SLOT_OVERHEAD + Self::cost(len) <= PAGE_SIZE
    }

    /// Free bytes available without compaction.
    fn append_room(&self) -> usize {
        PAGE_SIZE.saturating_sub(self.data.len() + self.slots.len() * SLOT_OVERHEAD)
    }

    /// Insert a fragment; returns its slot. Errors if the page is full even
    /// after compaction.
    pub fn insert(&mut self, bytes: &[u8]) -> DsResult<SlotId> {
        if !self.has_room(bytes.len()) {
            return Err(DsError::Storage("page full".into()));
        }
        if Self::cost(bytes.len()) > self.append_room() {
            self.compact();
        }
        let off = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        self.live_bytes += bytes.len();
        // Reuse a dead slot if available (keeps the directory bounded).
        if let Some(i) = self.slots.iter().position(|s| *s == Slot::Dead) {
            self.slots[i] = Slot::Live {
                off,
                len: bytes.len() as u32,
            };
            Ok(i as SlotId)
        } else {
            self.slots.push(Slot::Live {
                off,
                len: bytes.len() as u32,
            });
            Ok((self.slots.len() - 1) as SlotId)
        }
    }

    /// Release the buffers' growth slack. A table calls this on its last
    /// page once that page is full and a new one takes the appends: a
    /// buffer that doubled to fit its last fragment is otherwise up to
    /// half empty for good.
    pub fn shrink_to_fit(&mut self) {
        self.data.shrink_to_fit();
        self.slots.shrink_to_fit();
    }

    /// Read a live fragment.
    pub fn read(&self, slot: SlotId) -> DsResult<&[u8]> {
        match self.slots.get(slot as usize) {
            Some(Slot::Live { off, len }) => Ok(&self.data[*off as usize..(*off + *len) as usize]),
            _ => Err(DsError::Storage(format!(
                "read of dead/missing slot {slot}"
            ))),
        }
    }

    /// Replace a fragment in place. Returns `false` (leaving the slot
    /// unchanged) if the new bytes cannot fit this page even after
    /// compaction — the caller must then relocate the fragment.
    pub fn update(&mut self, slot: SlotId, bytes: &[u8]) -> DsResult<bool> {
        let (off, len) = match self.slots.get(slot as usize) {
            Some(Slot::Live { off, len }) => (*off as usize, *len as usize),
            _ => {
                return Err(DsError::Storage(format!(
                    "update of dead/missing slot {slot}"
                )))
            }
        };
        if bytes.len() <= len {
            // Shrinking or same-size rewrite in place.
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            self.slots[slot as usize] = Slot::Live {
                off: off as u32,
                len: bytes.len() as u32,
            };
            self.live_bytes -= len - bytes.len();
            return Ok(true);
        }
        // Growing: does the page have room for the new copy at all?
        if self.live_bytes - len + self.slots.len() * SLOT_OVERHEAD + bytes.len() > PAGE_SIZE {
            return Ok(false);
        }
        // Tombstone the old copy, re-append (compact first if needed).
        self.slots[slot as usize] = Slot::Dead;
        self.live_bytes -= len;
        if bytes.len() > self.append_room() {
            self.compact();
        }
        let off = self.data.len() as u32;
        self.data.extend_from_slice(bytes);
        self.live_bytes += bytes.len();
        self.slots[slot as usize] = Slot::Live {
            off,
            len: bytes.len() as u32,
        };
        Ok(true)
    }

    /// Tombstone a fragment.
    pub fn delete(&mut self, slot: SlotId) -> DsResult<()> {
        match self.slots.get(slot as usize) {
            Some(Slot::Live { len, .. }) => {
                self.live_bytes -= *len as usize;
                self.slots[slot as usize] = Slot::Dead;
                Ok(())
            }
            _ => Err(DsError::Storage(format!(
                "delete of dead/missing slot {slot}"
            ))),
        }
    }

    /// Rewrite the byte arena dropping dead space. Slot ids are stable.
    pub fn compact(&mut self) {
        let mut new_data = Vec::with_capacity(self.live_bytes);
        for s in &mut self.slots {
            if let Slot::Live { off, len } = s {
                let start = *off as usize;
                let end = start + *len as usize;
                let new_off = new_data.len() as u32;
                new_data.extend_from_slice(&self.data[start..end]);
                *off = new_off;
            }
        }
        self.data = new_data;
    }

    /// Number of live (non-tombstoned) fragments.
    pub fn live_count(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Live { .. }))
            .count()
    }

    /// Bytes occupied by live fragments.
    pub fn live_bytes(&self) -> usize {
        self.live_bytes
    }

    /// True when no live fragment remains.
    pub fn is_empty(&self) -> bool {
        self.live_bytes == 0
    }

    /// Serialize the page into its on-disk image (see `docs/STORAGE.md`):
    /// slot directory (dead slots kept — slot ids are stable identity) then
    /// the byte arena. The page budget guarantees the image fits a pager
    /// frame: `data.len() + 8·slots ≤ PAGE_SIZE` always holds, so the image
    /// is at most `PAGE_SIZE + 6` bytes.
    pub fn to_image(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(6 + self.slots.len() * 8 + self.data.len());
        buf.extend_from_slice(&(self.slots.len() as u16).to_le_bytes());
        for s in &self.slots {
            let (off, len) = match s {
                Slot::Live { off, len } => (*off, *len),
                Slot::Dead => (u32::MAX, 0),
            };
            buf.extend_from_slice(&off.to_le_bytes());
            buf.extend_from_slice(&len.to_le_bytes());
        }
        buf.extend_from_slice(&(self.data.len() as u32).to_le_bytes());
        buf.extend_from_slice(&self.data);
        buf
    }

    /// Rebuild a page from an on-disk image, validating the directory
    /// against the arena bounds.
    pub fn from_image(image: &[u8]) -> DsResult<Page> {
        let mut cur = crate::codec::Cursor::new(image);
        let nslots = cur.u16()? as usize;
        let mut slots = Vec::with_capacity(nslots);
        for _ in 0..nslots {
            let off = cur.u32()?;
            let len = cur.u32()?;
            slots.push(if off == u32::MAX {
                Slot::Dead
            } else {
                Slot::Live { off, len }
            });
        }
        let data_len = cur.u32()? as usize;
        let data = cur.bytes(data_len)?.to_vec();
        if !cur.is_empty() {
            return Err(DsError::Storage("trailing bytes after page image".into()));
        }
        let mut live_bytes = 0usize;
        for s in &slots {
            if let Slot::Live { off, len } = s {
                let end = *off as usize + *len as usize;
                if end > data.len() {
                    return Err(DsError::Storage("page image: slot out of bounds".into()));
                }
                live_bytes += *len as usize;
            }
        }
        if data.len() + slots.len() * SLOT_OVERHEAD > PAGE_SIZE {
            return Err(DsError::Storage("page image exceeds page budget".into()));
        }
        Ok(Page {
            data,
            slots,
            live_bytes,
        })
    }

    /// Iterate live slots.
    pub fn iter_live(&self) -> impl Iterator<Item = (SlotId, &[u8])> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, s)| match s {
                Slot::Live { off, len } => Some((
                    i as SlotId,
                    &self.data[*off as usize..(*off + *len) as usize],
                )),
                Slot::Dead => None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_read_round_trip() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.read(a).unwrap(), b"hello");
        assert_eq!(p.read(b).unwrap(), b"world!");
        assert_eq!(p.live_count(), 2);
    }

    #[test]
    fn fill_page_to_capacity() {
        let mut p = Page::new();
        let frag = [7u8; 100];
        let mut n = 0;
        while p.has_room(frag.len()) {
            p.insert(&frag).unwrap();
            n += 1;
        }
        assert!(
            n >= PAGE_SIZE / (100 + 16),
            "fit at least a conservative bound, got {n}"
        );
        assert!(p.insert(&frag).is_err(), "full page rejects");
    }

    #[test]
    fn delete_frees_room_for_reuse() {
        let mut p = Page::new();
        let frag = [1u8; 400];
        let mut slots = Vec::new();
        while p.has_room(frag.len()) {
            slots.push(p.insert(&frag).unwrap());
        }
        let first = slots[0];
        p.delete(first).unwrap();
        assert!(p.has_room(frag.len()));
        let again = p.insert(&frag).unwrap();
        assert_eq!(again, first, "dead slot id reused");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut p = Page::new();
        let s = p.insert(&[9u8; 50]).unwrap();
        assert!(p.update(s, &[1u8; 50]).unwrap());
        assert_eq!(p.read(s).unwrap(), &[1u8; 50][..]);
        assert!(p.update(s, &[2u8; 20]).unwrap(), "shrink ok");
        assert_eq!(p.read(s).unwrap(), &[2u8; 20][..]);
        assert!(p.update(s, &[3u8; 200]).unwrap(), "grow ok");
        assert_eq!(p.read(s).unwrap(), &[3u8; 200][..]);
    }

    #[test]
    fn update_grow_compacts_when_fragmented() {
        let mut p = Page::new();
        // Fill with 8 × ~480-byte fragments.
        let mut slots = Vec::new();
        for _ in 0..8 {
            slots.push(p.insert(&[5u8; 480]).unwrap());
        }
        // Delete every other one: plenty of live room but fragmented.
        for &s in slots.iter().step_by(2) {
            p.delete(s).unwrap();
        }
        // Growing the survivor needs compaction to succeed.
        assert!(p.update(slots[1], &[6u8; 900]).unwrap());
        assert_eq!(p.read(slots[1]).unwrap(), &[6u8; 900][..]);
        // Other survivors intact after compaction.
        assert_eq!(p.read(slots[3]).unwrap(), &[5u8; 480][..]);
    }

    #[test]
    fn update_too_big_reports_no_fit() {
        let mut p = Page::new();
        let s = p.insert(&[0u8; 100]).unwrap();
        assert!(!p.update(s, &vec![0u8; PAGE_SIZE]).unwrap());
        // Slot unchanged on refusal.
        assert_eq!(p.read(s).unwrap(), &[0u8; 100][..]);
    }

    #[test]
    fn iter_live_skips_tombstones() {
        let mut p = Page::new();
        let a = p.insert(b"a").unwrap();
        let _b = p.insert(b"b").unwrap();
        p.delete(a).unwrap();
        let live: Vec<&[u8]> = p.iter_live().map(|(_, b)| b).collect();
        assert_eq!(live, vec![b"b" as &[u8]]);
    }

    #[test]
    fn image_round_trips_with_tombstones() {
        let mut p = Page::new();
        let a = p.insert(b"alpha").unwrap();
        let b = p.insert(b"beta").unwrap();
        let c = p.insert(b"gamma").unwrap();
        p.delete(b).unwrap();
        let back = Page::from_image(&p.to_image()).unwrap();
        assert_eq!(back.read(a).unwrap(), b"alpha");
        assert!(back.read(b).is_err(), "tombstone survives the image");
        assert_eq!(back.read(c).unwrap(), b"gamma");
        assert_eq!(back.live_bytes(), p.live_bytes());
        assert_eq!(back.live_count(), 2);
    }

    #[test]
    fn image_fits_frame_even_when_full() {
        let mut p = Page::new();
        while p.has_room(100) {
            p.insert(&[1u8; 100]).unwrap();
        }
        assert!(p.to_image().len() <= PAGE_SIZE + 6);
    }

    #[test]
    fn corrupt_image_rejected() {
        let mut p = Page::new();
        p.insert(b"x").unwrap();
        let img = p.to_image();
        assert!(
            Page::from_image(&img[..img.len() - 1]).is_err(),
            "truncated"
        );
        let mut grown = img.clone();
        grown.push(0);
        assert!(Page::from_image(&grown).is_err(), "trailing bytes");
        // A live slot pointing past the arena must be rejected.
        let mut oob = img;
        oob[2..6].copy_from_slice(&1000u32.to_le_bytes());
        assert!(Page::from_image(&oob).is_err(), "slot out of bounds");
    }

    #[test]
    fn dead_slot_access_errors() {
        let mut p = Page::new();
        let a = p.insert(b"x").unwrap();
        p.delete(a).unwrap();
        assert!(p.read(a).is_err());
        assert!(p.delete(a).is_err());
        assert!(p.update(a, b"y").is_err());
        assert!(p.read(99).is_err());
    }
}
