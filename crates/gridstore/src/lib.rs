//! The *interface storage manager* (paper §3).
//!
//! > "This interface data requires special treatment as it does not have a
//! > schema. The interface storage component stores this data as a collection
//! > of cells. To enable efficient retrieval for a given range, the component
//! > groups the cells together by proximity and splits the groups into data
//! > blocks as required by the underlying storage. To enable efficient
//! > access, the blocks are further indexed by a two-dimensional indexing
//! > method."
//!
//! Three implementations of the same [`CellStore`] interface:
//!
//! * [`TiledGrid`] — cells grouped into fixed-extent tiles addressed directly
//!   by coordinate arithmetic, each tile holding only its occupied cells.
//!   The production path for sheets.
//! * [`BlockGrid`] — the paper-faithful variant: cells grouped by *proximity*
//!   into variable-extent blocks, indexed by an [`rtree::RTree`].
//! * [`NaiveGrid`] — one hash entry per cell, no grouping: the baseline that
//!   shows why block grouping matters (experiment `C5`).
//!
//! Every store counts block-level touches in [`StoreStats`], standing in for
//! the paper's "disk blocks" accounting (substitution #3 in `DESIGN.md`).

pub mod block;
pub mod naive;
pub mod rtree;
pub mod tiled;

pub use block::BlockGrid;
pub use naive::NaiveGrid;
pub use rtree::{RTree, Rect};
pub use tiled::{TileConfig, TiledGrid};

use std::sync::atomic::{AtomicU64, Ordering};

use dataspread_types::{CellAddr, Range};

/// Block-level access counters. Reads are counted on `&self` paths, hence
/// the interior mutability — atomics (relaxed), so a store can be shared
/// across threads. "Block" means tile ([`TiledGrid`]), proximity block
/// ([`BlockGrid`]), or individual cell ([`NaiveGrid`] — per-cell storage *is*
/// its block granularity).
#[derive(Debug, Default)]
pub struct StoreStats {
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    cells_scanned: AtomicU64,
}

impl StoreStats {
    pub fn blocks_read(&self) -> u64 {
        self.blocks_read.load(Ordering::Relaxed)
    }
    pub fn blocks_written(&self) -> u64 {
        self.blocks_written.load(Ordering::Relaxed)
    }
    pub fn cells_scanned(&self) -> u64 {
        self.cells_scanned.load(Ordering::Relaxed)
    }
    pub fn reset(&self) {
        self.blocks_read.store(0, Ordering::Relaxed);
        self.blocks_written.store(0, Ordering::Relaxed);
        self.cells_scanned.store(0, Ordering::Relaxed);
    }
    pub(crate) fn add_read(&self, n: u64) {
        self.blocks_read.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn add_write(&self, n: u64) {
        self.blocks_written.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn add_scanned(&self, n: u64) {
        self.cells_scanned.fetch_add(n, Ordering::Relaxed);
    }
}

/// A sparse two-dimensional cell store.
///
/// Contract notes:
/// * `for_each_in_range` visits cells in an *unspecified order* (each store
///   uses its natural block order; [`TiledGrid`]'s is row-major);
///   [`CellStore::cells_in_range`] sorts row-major.
/// * Structural row/column edits shift cell contents like a spreadsheet
///   insert/delete does; cells inside a deleted band are dropped.
pub trait CellStore<T> {
    /// Read one cell.
    fn get(&self, addr: CellAddr) -> Option<&T>;

    /// Write one cell, returning the previous content.
    fn set(&mut self, addr: CellAddr, value: T) -> Option<T>;

    /// Clear one cell, returning its content.
    fn remove(&mut self, addr: CellAddr) -> Option<T>;

    /// Number of non-empty cells.
    fn cell_count(&self) -> usize;

    /// Visit every non-empty cell within `range` (unordered).
    fn for_each_in_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &T));

    /// Tight bounding box of all non-empty cells.
    fn used_bounds(&self) -> Option<Range>;

    /// Shift every cell at `row >= at` down by `count` rows.
    fn insert_rows(&mut self, at: u32, count: u32);

    /// Delete `count` rows starting at `at`: their cells vanish, cells below
    /// shift up.
    fn delete_rows(&mut self, at: u32, count: u32);

    /// Shift every cell at `col >= at` right by `count` columns.
    fn insert_cols(&mut self, at: u32, count: u32);

    /// Delete `count` columns starting at `at`.
    fn delete_cols(&mut self, at: u32, count: u32);

    /// Block-touch counters.
    fn stats(&self) -> &StoreStats;

    /// Number of storage blocks currently allocated.
    fn block_count(&self) -> usize;

    /// All cells in `range`, sorted row-major. Convenience over
    /// [`CellStore::for_each_in_range`].
    fn cells_in_range(&self, range: Range) -> Vec<(CellAddr, T)>
    where
        T: Clone,
    {
        let mut out = Vec::new();
        self.for_each_in_range(range, &mut |a, v| out.push((a, v.clone())));
        out.sort_by_key(|(a, _)| *a);
        out
    }

    /// Remove every cell in `range`, returning how many were removed.
    fn clear_range(&mut self, range: Range) -> usize {
        let mut addrs = Vec::new();
        self.for_each_in_range(range, &mut |a, _| addrs.push(a));
        let n = addrs.len();
        for a in addrs {
            self.remove(a);
        }
        n
    }
}

/// Shift helper shared by the rebuild-style structural edits: maps an address
/// through a row insert/delete, `None` when the cell falls in a deleted band.
pub(crate) fn shift_addr_rows(
    addr: CellAddr,
    at: u32,
    count: u32,
    insert: bool,
) -> Option<CellAddr> {
    if insert {
        if addr.row >= at {
            Some(CellAddr::new(addr.row + count, addr.col))
        } else {
            Some(addr)
        }
    } else {
        if addr.row >= at && addr.row < at + count {
            None
        } else if addr.row >= at + count {
            Some(CellAddr::new(addr.row - count, addr.col))
        } else {
            Some(addr)
        }
    }
}

pub(crate) fn shift_addr_cols(
    addr: CellAddr,
    at: u32,
    count: u32,
    insert: bool,
) -> Option<CellAddr> {
    if insert {
        if addr.col >= at {
            Some(CellAddr::new(addr.row, addr.col + count))
        } else {
            Some(addr)
        }
    } else {
        if addr.col >= at && addr.col < at + count {
            None
        } else if addr.col >= at + count {
            Some(CellAddr::new(addr.row, addr.col - count))
        } else {
            Some(addr)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_rows_insert_and_delete() {
        let a = CellAddr::new(5, 2);
        assert_eq!(shift_addr_rows(a, 3, 2, true), Some(CellAddr::new(7, 2)));
        assert_eq!(shift_addr_rows(a, 6, 2, true), Some(a));
        assert_eq!(shift_addr_rows(a, 5, 1, false), None);
        assert_eq!(shift_addr_rows(a, 3, 2, false), Some(CellAddr::new(3, 2)));
        assert_eq!(shift_addr_rows(a, 6, 2, false), Some(a));
    }

    #[test]
    fn shift_cols_insert_and_delete() {
        let a = CellAddr::new(5, 2);
        assert_eq!(shift_addr_cols(a, 1, 3, true), Some(CellAddr::new(5, 5)));
        assert_eq!(shift_addr_cols(a, 2, 1, false), None);
        assert_eq!(shift_addr_cols(a, 0, 1, false), Some(CellAddr::new(5, 1)));
    }
}
