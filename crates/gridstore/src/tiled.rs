//! Fixed-extent tile store: the production layout for sheet data.
//!
//! Cells are grouped into `tile_rows × tile_cols` tiles ("data blocks");
//! a window fetch touches exactly the tiles overlapping the window, so the
//! cost is O(window area / tile area) block reads regardless of how much data
//! lives elsewhere on the sheet. Tile extent is a measured trade-off
//! (ablation #2 in DESIGN.md): small tiles waste less space on sparse sheets,
//! large tiles scan faster on dense ones.
//!
//! Unlike the [`CellStore`] contract, which leaves range order unspecified,
//! a `TiledGrid` range walk is **row-major**: it fetches one band of tiles
//! (one tile row) at a time and crosses it row by row. Formula aggregates
//! rely on that order for their first-error and float-summation semantics.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dataspread_types::{CellAddr, Range};

use crate::{shift_addr_cols, shift_addr_rows, CellStore, StoreStats};

/// Tile extent configuration.
#[derive(Clone, Copy, Debug)]
pub struct TileConfig {
    pub tile_rows: u32,
    pub tile_cols: u32,
}

impl Default for TileConfig {
    fn default() -> Self {
        // 32×32 = 1024 slots ≈ a few KB per tile for typical payloads,
        // matching the disk-block framing of the paper.
        TileConfig {
            tile_rows: 32,
            tile_cols: 32,
        }
    }
}

#[derive(Debug)]
struct Tile<T> {
    slots: Vec<Option<T>>,
    occupied: u32,
}

impl<T> Tile<T> {
    fn new(capacity: usize) -> Self {
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, || None);
        Tile { slots, occupied: 0 }
    }
}

/// Sparse grid of fixed-extent tiles.
#[derive(Debug)]
pub struct TiledGrid<T> {
    cfg: TileConfig,
    tiles: HashMap<(u32, u32), Tile<T>>,
    cells: usize,
    stats: StoreStats,
}

impl<T> Default for TiledGrid<T> {
    fn default() -> Self {
        TiledGrid::new(TileConfig::default())
    }
}

impl<T> TiledGrid<T> {
    pub fn new(cfg: TileConfig) -> Self {
        assert!(cfg.tile_rows > 0 && cfg.tile_cols > 0);
        TiledGrid {
            cfg,
            tiles: HashMap::new(),
            cells: 0,
            stats: StoreStats::default(),
        }
    }

    pub fn config(&self) -> TileConfig {
        self.cfg
    }

    #[inline]
    fn tile_coord(&self, addr: CellAddr) -> (u32, u32) {
        (addr.row / self.cfg.tile_rows, addr.col / self.cfg.tile_cols)
    }

    #[inline]
    fn slot_index(&self, addr: CellAddr) -> usize {
        let r = addr.row % self.cfg.tile_rows;
        let c = addr.col % self.cfg.tile_cols;
        (r * self.cfg.tile_cols + c) as usize
    }

    fn rebuild(
        &mut self,
        f: impl Fn(CellAddr) -> Option<CellAddr>,
        from: Option<u32>,
        axis_rows: bool,
    ) {
        // Only tiles that can contain affected cells need rebuilding; tiles
        // strictly before the edit point are untouched (the block-level
        // advantage over the naive store).
        let boundary_tile = from.map(|at| {
            if axis_rows {
                at / self.cfg.tile_rows
            } else {
                at / self.cfg.tile_cols
            }
        });
        let affected: Vec<(u32, u32)> = self
            .tiles
            .keys()
            .copied()
            .filter(|(tr, tc)| match boundary_tile {
                Some(b) => {
                    if axis_rows {
                        *tr >= b
                    } else {
                        *tc >= b
                    }
                }
                None => true,
            })
            .collect();
        let mut moved: Vec<(CellAddr, T)> = Vec::new();
        for coord in &affected {
            let Some(tile) = self.tiles.remove(coord) else {
                continue;
            };
            let base_row = coord.0 * self.cfg.tile_rows;
            let base_col = coord.1 * self.cfg.tile_cols;
            for (i, slot) in tile.slots.into_iter().enumerate() {
                if let Some(v) = slot {
                    let r = base_row + i as u32 / self.cfg.tile_cols;
                    let c = base_col + i as u32 % self.cfg.tile_cols;
                    self.cells -= 1;
                    if let Some(na) = f(CellAddr::new(r, c)) {
                        moved.push((na, v));
                    }
                }
            }
        }
        self.stats.add_write(affected.len() as u64);
        for (a, v) in moved {
            self.set_internal(a, v);
        }
    }

    fn set_internal(&mut self, addr: CellAddr, value: T) -> Option<T> {
        let coord = self.tile_coord(addr);
        let idx = self.slot_index(addr);
        let cap = (self.cfg.tile_rows * self.cfg.tile_cols) as usize;
        let tile = self.tiles.entry(coord).or_insert_with(|| Tile::new(cap));
        let old = tile.slots[idx].replace(value);
        if old.is_none() {
            tile.occupied += 1;
            self.cells += 1;
        }
        old
    }

    /// Visit every non-empty cell within `range` in row-major order,
    /// stopping as soon as `f` breaks. Each tile row of the range is one
    /// band: its tiles are fetched once (one `blocks_read` each, with the
    /// intersection's slots added to `cells_scanned`), then walked row by
    /// row across the band.
    pub fn try_for_each_in_range(
        &self,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let TileConfig {
            tile_rows,
            tile_cols,
        } = self.cfg;
        let (tr0, tc0) = self.tile_coord(range.start);
        let (tr1, tc1) = self.tile_coord(range.end);
        // The range's columns inside allocated tile `(tr, tc)`: first column,
        // its slot offset within a tile row, width, and the tile.
        let span = |tr: u32, tc: u32| {
            let tile = self.tiles.get(&(tr, tc))?;
            let base_col = tc * tile_cols;
            let c_lo = range.start.col.max(base_col);
            let c_hi = range.end.col.min(base_col + tile_cols - 1);
            Some((
                c_lo,
                (c_lo - base_col) as usize,
                (c_hi - c_lo + 1) as usize,
                tile,
            ))
        };
        // A one-tile-wide range (a column aggregate) needs no band buffer.
        let mut wide = Vec::new();
        for tr in tr0..=tr1 {
            let one;
            let band = if tc0 == tc1 {
                one = span(tr, tc0);
                one.as_slice()
            } else {
                wide.clear();
                wide.extend((tc0..=tc1).filter_map(|tc| span(tr, tc)));
                &wide[..]
            };
            if band.is_empty() {
                continue;
            }
            let base_row = tr * tile_rows;
            let r_lo = range.start.row.max(base_row);
            let r_hi = range.end.row.min(base_row + tile_rows - 1);
            let width: usize = band.iter().map(|&(_, _, w, _)| w).sum();
            self.stats.add_read(band.len() as u64);
            self.stats
                .add_scanned(width as u64 * u64::from(r_hi - r_lo + 1));
            for r in r_lo..=r_hi {
                let row = ((r - base_row) * tile_cols) as usize;
                for &(c_lo, off, w, tile) in band {
                    for (c, slot) in (c_lo..).zip(&tile.slots[row + off..row + off + w]) {
                        if let Some(v) = slot {
                            f(CellAddr::new(r, c), v)?;
                        }
                    }
                }
            }
        }
        ControlFlow::Continue(())
    }
}

impl<T> CellStore<T> for TiledGrid<T> {
    fn get(&self, addr: CellAddr) -> Option<&T> {
        self.stats.add_read(1);
        let tile = self.tiles.get(&self.tile_coord(addr))?;
        tile.slots[self.slot_index(addr)].as_ref()
    }

    fn set(&mut self, addr: CellAddr, value: T) -> Option<T> {
        self.stats.add_write(1);
        self.set_internal(addr, value)
    }

    fn remove(&mut self, addr: CellAddr) -> Option<T> {
        self.stats.add_write(1);
        let coord = self.tile_coord(addr);
        let idx = self.slot_index(addr);
        let tile = self.tiles.get_mut(&coord)?;
        let old = tile.slots[idx].take();
        if old.is_some() {
            tile.occupied -= 1;
            self.cells -= 1;
            if tile.occupied == 0 {
                self.tiles.remove(&coord);
            }
        }
        old
    }

    fn cell_count(&self) -> usize {
        self.cells
    }

    /// Row-major; see [`TiledGrid::try_for_each_in_range`].
    fn for_each_in_range(&self, range: Range, f: &mut dyn FnMut(CellAddr, &T)) {
        let _ = self.try_for_each_in_range(range, &mut |a, v| {
            f(a, v);
            ControlFlow::Continue(())
        });
    }

    fn used_bounds(&self) -> Option<Range> {
        let mut bounds: Option<Range> = None;
        for (coord, tile) in &self.tiles {
            let base_row = coord.0 * self.cfg.tile_rows;
            let base_col = coord.1 * self.cfg.tile_cols;
            for (i, slot) in tile.slots.iter().enumerate() {
                if slot.is_some() {
                    let a = CellAddr::new(
                        base_row + i as u32 / self.cfg.tile_cols,
                        base_col + i as u32 % self.cfg.tile_cols,
                    );
                    bounds = Some(match bounds {
                        Some(b) => b.union(&Range::cell(a)),
                        None => Range::cell(a),
                    });
                }
            }
        }
        bounds
    }

    fn insert_rows(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_rows(a, at, count, true), Some(at), true);
    }

    fn delete_rows(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_rows(a, at, count, false), Some(at), true);
    }

    fn insert_cols(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_cols(a, at, count, true), Some(at), false);
    }

    fn delete_cols(&mut self, at: u32, count: u32) {
        self.rebuild(|a| shift_addr_cols(a, at, count, false), Some(at), false);
    }

    fn stats(&self) -> &StoreStats {
        &self.stats
    }

    fn block_count(&self) -> usize {
        self.tiles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TiledGrid<i64> {
        TiledGrid::new(TileConfig {
            tile_rows: 4,
            tile_cols: 4,
        })
    }

    #[test]
    fn point_ops_cross_tiles() {
        let mut g = small();
        for i in 0..20u32 {
            assert_eq!(g.set(CellAddr::new(i, i), i as i64), None);
        }
        assert_eq!(g.cell_count(), 20);
        assert!(g.block_count() >= 5, "diagonal spans at least 5 tiles");
        for i in 0..20u32 {
            assert_eq!(g.get(CellAddr::new(i, i)), Some(&(i as i64)));
        }
        assert_eq!(g.get(CellAddr::new(0, 1)), None);
    }

    #[test]
    fn remove_drops_empty_tiles() {
        let mut g = small();
        g.set(CellAddr::new(0, 0), 1);
        g.set(CellAddr::new(100, 100), 2);
        assert_eq!(g.block_count(), 2);
        g.remove(CellAddr::new(100, 100));
        assert_eq!(g.block_count(), 1);
        assert_eq!(g.cell_count(), 1);
    }

    #[test]
    fn range_scan_touches_only_overlapping_tiles() {
        let mut g = small();
        // 3 distant clusters.
        for r in 0..4u32 {
            for c in 0..4u32 {
                g.set(CellAddr::new(r, c), 1);
                g.set(CellAddr::new(r + 100, c), 2);
                g.set(CellAddr::new(r, c + 100), 3);
            }
        }
        g.stats().reset();
        let got = g.cells_in_range(Range::from_bounds(0, 0, 3, 3));
        assert_eq!(got.len(), 16);
        assert_eq!(g.stats().blocks_read(), 1, "only one tile overlaps");
    }

    #[test]
    fn range_scan_is_sorted_row_major() {
        let mut g = small();
        g.set(CellAddr::new(1, 5), 1);
        g.set(CellAddr::new(0, 9), 2);
        g.set(CellAddr::new(1, 0), 3);
        let got = g.cells_in_range(Range::from_bounds(0, 0, 10, 10));
        let addrs: Vec<CellAddr> = got.iter().map(|(a, _)| *a).collect();
        let mut sorted = addrs.clone();
        sorted.sort();
        assert_eq!(addrs, sorted);
        assert_eq!(addrs[0], CellAddr::new(0, 9));
    }

    #[test]
    fn range_walk_is_row_major_across_tiles_and_can_stop() {
        let mut g = small();
        // Every third cell of a 14×14 square, except in tile (1, 1), which
        // stays unallocated.
        let mut tiles = std::collections::HashSet::new();
        for r in 0..14u32 {
            for c in 0..14u32 {
                if (r * 14 + c) % 3 == 0 && (r / 4, c / 4) != (1, 1) {
                    g.set(CellAddr::new(r, c), i64::from(r * 100 + c));
                    tiles.insert((r / 4, c / 4));
                }
            }
        }
        // Rows 2..=9 and cols 1..=10 cross 3×3 tiles.
        let range = Range::from_bounds(2, 1, 9, 10);
        let (mut blocks, mut scanned) = (0, 0);
        for tr in 0..=2u32 {
            for tc in 0..=2u32 {
                if tiles.contains(&(tr, tc)) {
                    let rows = (9u32.min(tr * 4 + 3) - 2u32.max(tr * 4) + 1) as u64;
                    let cols = (10u32.min(tc * 4 + 3) - 1u32.max(tc * 4) + 1) as u64;
                    blocks += 1;
                    scanned += rows * cols;
                }
            }
        }
        let sorted: Vec<CellAddr> = g.cells_in_range(range).iter().map(|(a, _)| *a).collect();
        g.stats().reset();
        let mut seen = Vec::new();
        let flow = g.try_for_each_in_range(range, &mut |a, v| {
            assert_eq!(*v, i64::from(a.row * 100 + a.col));
            seen.push(a);
            ControlFlow::Continue(())
        });
        assert_eq!(flow, ControlFlow::Continue(()));
        assert_eq!(seen, sorted, "visit order is row-major");
        assert!(seen.len() > 10);
        assert_eq!(g.stats().blocks_read(), blocks, "one read per tile");
        assert_eq!(g.stats().cells_scanned(), scanned, "every intersected slot");

        // A break stops the walk at once.
        let mut n = 0;
        let flow = g.try_for_each_in_range(range, &mut |_, _| {
            n += 1;
            if n == 5 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(n, 5);
    }

    #[test]
    fn insert_rows_shifts_only_below() {
        let mut g = small();
        g.set(CellAddr::new(1, 1), 10);
        g.set(CellAddr::new(9, 1), 90);
        g.insert_rows(4, 3);
        assert_eq!(g.get(CellAddr::new(1, 1)), Some(&10));
        assert_eq!(g.get(CellAddr::new(12, 1)), Some(&90));
        assert_eq!(g.cell_count(), 2);
    }

    #[test]
    fn delete_rows_drops_band() {
        let mut g = small();
        g.set(CellAddr::new(2, 0), 1);
        g.set(CellAddr::new(5, 0), 2);
        g.set(CellAddr::new(8, 0), 3);
        g.delete_rows(4, 3);
        assert_eq!(g.get(CellAddr::new(2, 0)), Some(&1));
        assert_eq!(g.get(CellAddr::new(5, 0)), Some(&3));
        assert_eq!(g.cell_count(), 2);
    }

    #[test]
    fn insert_cols_shifts() {
        let mut g = small();
        g.set(CellAddr::new(0, 2), 1);
        g.insert_cols(0, 4);
        assert_eq!(g.get(CellAddr::new(0, 6)), Some(&1));
    }

    #[test]
    fn used_bounds_after_edits() {
        let mut g = small();
        g.set(CellAddr::new(3, 3), 1);
        g.set(CellAddr::new(10, 1), 1);
        assert_eq!(g.used_bounds(), Some(Range::from_bounds(3, 1, 10, 3)));
        g.remove(CellAddr::new(10, 1));
        assert_eq!(g.used_bounds(), Some(Range::cell(CellAddr::new(3, 3))));
    }

    #[test]
    fn overwrite_keeps_count() {
        let mut g = small();
        g.set(CellAddr::new(0, 0), 1);
        assert_eq!(g.set(CellAddr::new(0, 0), 2), Some(1));
        assert_eq!(g.cell_count(), 1);
    }
}
