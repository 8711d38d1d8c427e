//! Fixed-extent tile store: the production layout for sheet data.
//!
//! Cells are grouped into `tile_rows × tile_cols` tiles ("data blocks");
//! a window fetch touches exactly the tiles overlapping the window, so the
//! cost is O(window area / tile area) block reads regardless of how much data
//! lives elsewhere on the sheet.
//!
//! A tile is packed: it holds its occupied cells, not a slot per address.
//! Its occupancy bitmap has one word per 64 slots, each paired with the
//! count of occupied slots before it, so a slot's rank (the index of its
//! value among the tile's values, kept in row-major slot order) is one
//! popcount. A default 32 × 32 tile costs 16 such words (256 B) plus the
//! values it holds, and an empty address costs one bit. Tile extent
//! therefore sets scan granularity and `blocks_read` only; it no longer
//! trades sparse-sheet space (ablation #2 in DESIGN.md). A range walk takes
//! each word's count as the rank of its first slot and counts only the
//! occupied slots it passes, so it pays no popcount per row.
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
        // 32×32 = 1024 slots: a 256 B occupancy bitmap per tile plus the
        // cells it holds, matching the disk-block framing of the paper.
        TileConfig {
            tile_rows: 32,
            tile_cols: 32,
        }
    }
}

/// Occupancy of 64 consecutive slots of a tile.
#[derive(Clone, Copy, Debug, Default)]
struct Word {
    /// Bit `i` is set when slot `64·w + i` holds a value.
    bits: u64,
    /// Occupied slots in the words before this one: the `vals` index of
    /// this word's first value.
    before: u32,
}

/// One tile: the occupancy bitmap over its slots and the occupied slots'
/// values in slot (row-major) order.
#[derive(Debug)]
struct Tile<T> {
    words: Box<[Word]>,
    vals: Vec<T>,
}

/// The bits at positions `>= k` of a word (none once `k >= 64`).
#[inline]
fn bits_from(k: usize) -> u64 {
    u64::MAX.checked_shl(k as u32).unwrap_or(0)
}

/// The occupied slots of a bitmap, ascending.
fn occupied(words: &[Word]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, word)| {
        let mut m = word.bits;
        std::iter::from_fn(move || {
            let b = m.trailing_zeros() as usize;
            m &= m.wrapping_sub(1);
            (b < 64).then_some(w * 64 + b)
        })
    })
}

impl<T> Tile<T> {
    fn new(slots: usize) -> Self {
        Tile {
            words: vec![Word::default(); slots.div_ceil(64)].into_boxed_slice(),
            vals: Vec::new(),
        }
    }

    /// The number of occupied slots before `slot`, in O(1).
    #[inline]
    fn rank(&self, slot: usize) -> usize {
        let w = self.words[slot / 64];
        w.before as usize + (w.bits & !bits_from(slot % 64)).count_ones() as usize
    }

    #[inline]
    fn holds(&self, slot: usize) -> bool {
        self.words[slot / 64].bits >> (slot % 64) & 1 == 1
    }

    fn get(&self, slot: usize) -> Option<&T> {
        let Word { bits, before } = self.words[slot / 64];
        let bit = 1 << (slot % 64);
        if bits & bit == 0 {
            return None;
        }
        self.vals
            .get(before as usize + (bits & (bit - 1)).count_ones() as usize)
    }

    /// An overwrite is O(1); a new cell shifts the values after its rank.
    fn set(&mut self, slot: usize, value: T) -> Option<T> {
        let rank = self.rank(slot);
        if self.holds(slot) {
            return Some(std::mem::replace(&mut self.vals[rank], value));
        }
        let w = slot / 64;
        self.words[w].bits |= 1 << (slot % 64);
        for word in &mut self.words[w + 1..] {
            word.before += 1;
        }
        self.vals.insert(rank, value);
        None
    }

    /// Append a value at a slot past every held one. Leaves the `before`
    /// counts stale until [`Tile::recount`].
    fn push(&mut self, slot: usize, value: T) {
        self.words[slot / 64].bits |= 1 << (slot % 64);
        self.vals.push(value);
    }

    /// Restore each word's `before` after a run of [`Tile::push`]es.
    fn recount(&mut self) {
        let mut before = 0;
        for w in self.words.iter_mut() {
            w.before = before;
            before += w.bits.count_ones();
        }
    }

    fn remove(&mut self, slot: usize) -> Option<T> {
        if !self.holds(slot) {
            return None;
        }
        let w = slot / 64;
        self.words[w].bits &= !(1 << (slot % 64));
        for word in &mut self.words[w + 1..] {
            word.before -= 1;
        }
        Some(self.vals.remove(self.rank(slot)))
    }

    /// Visit the occupied slots of word `w` that `wanted` selects, in slot
    /// order, as `(bit, value)`. A visited slot's rank is the word's
    /// `before` plus the occupied slots since the last visit, counted
    /// without a popcount when they are none, one, or every slot in between:
    /// the portable x86-64 target has no popcount instruction. Costs per
    /// visited slot.
    #[inline]
    fn visit_word<'a>(
        &'a self,
        w: usize,
        wanted: u64,
        mut f: impl FnMut(usize, &'a T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let Word { bits, before } = self.words[w];
        let mut hit = bits & wanted;
        // `rank` is the rank of bit `next`; `done` masks the bits below it.
        let (mut rank, mut next, mut done) = (before as usize, 0, 0u64);
        while hit != 0 {
            let low = hit & hit.wrapping_neg();
            let b = low.trailing_zeros() as usize;
            let span = (low - 1) & !done;
            let held = bits & span;
            rank += if held == span {
                b - next
            } else if held & held.wrapping_sub(1) == 0 {
                usize::from(held != 0)
            } else {
                held.count_ones() as usize
            };
            f(b, &self.vals[rank])?;
            (rank, next, done) = (rank + 1, b + 1, low | (low - 1));
            hit ^= low;
        }
        ControlFlow::Continue(())
    }

    /// Visit the occupied slots of local rows `r0..=r1` in `band`'s
    /// columns, in row-major order as `(row, col, value)`. Rather than one
    /// visit per row it takes the words of the whole row interval once,
    /// each under the band's mask, so it costs per word and per cell held.
    fn visit_band<'a>(
        &'a self,
        band: &BandMask,
        (r0, r1): (usize, usize),
        mut f: impl FnMut(usize, usize, &'a T) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let BandMask {
            cols,
            off,
            width,
            pattern,
            step,
        } = *band;
        let (start, end) = (r0 * cols + off, r1 * cols + off + width);
        let (first, last) = (start / 64, (end - 1) / 64);
        let (lo, hi) = (bits_from(start % 64), !bits_from(end - last * 64));
        // The column of the current word's first slot, and the row of the
        // last cell visited with the slot that starts the row after it.
        let mut phase = first * 64 % cols;
        let (mut row, mut next_row) = (r0, (r0 + 1) * cols);
        let mut mask = (pattern >> phase) as u64;
        for w in first..=last {
            let base = w * 64;
            let mut wanted = mask;
            if w == first {
                wanted &= lo;
            }
            if w == last {
                wanted &= hi;
            }
            self.visit_word(w, wanted, |b, v| {
                while base + b >= next_row {
                    (row, next_row) = (row + 1, next_row + cols);
                }
                f(row, base + b + cols - next_row, v)
            })?;
            // A tile width (`cols`) dividing 64, such as the default 32,
            // keeps one mask throughout.
            if step != 0 {
                phase += step;
                if phase >= cols {
                    phase -= cols;
                }
                mask = (pattern >> phase) as u64;
            }
        }
        ControlFlow::Continue(())
    }

    /// The packing invariant: each word's `before` is the popcount of the
    /// words ahead of it, and `vals` holds one value per set bit.
    #[cfg(test)]
    fn check(&self) {
        let mut before = 0;
        for w in self.words.iter() {
            assert_eq!(w.before, before, "rank prefix");
            before += w.bits.count_ones();
        }
        assert_eq!(self.vals.len(), before as usize, "one value per set bit");
    }
}

/// Columns `[off, off + width)` of a tile `cols <= 64` columns wide, as a
/// mask over its slots. They repeat every `cols` slots, so `pattern >>
/// phase` masks a word whose first slot sits at column `phase`, and the
/// next word's phase is `step` further on. Built once per range walk: the
/// bands of a one-tile-wide range all share it.
#[derive(Clone, Copy)]
struct BandMask {
    cols: usize,
    off: usize,
    width: usize,
    pattern: u128,
    step: usize,
}

impl BandMask {
    fn new(cols: usize, off: usize, width: usize) -> Self {
        let mut pattern = 0u128;
        for row in (0..128).step_by(cols) {
            pattern |= u128::from(!bits_from(width) << off) << row;
        }
        BandMask {
            cols,
            off,
            width,
            pattern,
            step: 64 % cols,
        }
    }
}

/// One allocated tile of a band: the range's first column in it, that
/// column's offset within a tile row, and the range's width there.
struct Span<'a, T> {
    c_lo: u32,
    off: usize,
    width: usize,
    tile: &'a Tile<T>,
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
        let mut affected: Vec<(u32, u32)> = self
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
        // Taken column-major, each tile column's cells come out in address
        // order, and a shift keeps that order: `moved` is one sorted run per
        // tile column.
        affected.sort_unstable_by_key(|&(tr, tc)| (tc, tr));
        let mut moved: Vec<(CellAddr, T)> = Vec::new();
        for coord in &affected {
            let Some(Tile { words, vals }) = self.tiles.remove(coord) else {
                continue;
            };
            let base_row = coord.0 * self.cfg.tile_rows;
            let base_col = coord.1 * self.cfg.tile_cols;
            self.cells -= vals.len();
            for (slot, v) in occupied(&words).zip(vals) {
                let r = base_row + slot as u32 / self.cfg.tile_cols;
                let c = base_col + slot as u32 % self.cfg.tile_cols;
                if let Some(na) = f(CellAddr::new(r, c)) {
                    moved.push((na, v));
                }
            }
        }
        self.stats.add_write(affected.len() as u64);
        // Every destination tile is a rebuilt one. Merged into address order,
        // the runs fill each of them in slot order, so each cell is appended.
        moved.sort_by_key(|&(a, _)| a);
        let cap = (self.cfg.tile_rows * self.cfg.tile_cols) as usize;
        let mut built = HashMap::new();
        let mut moved = moved.into_iter().peekable();
        while let Some(&(a, _)) = moved.peek() {
            let coord = self.tile_coord(a);
            let tile = built.entry(coord).or_insert_with(|| Tile::new(cap));
            while let Some((a, v)) = moved.next_if(|(a, _)| self.tile_coord(*a) == coord) {
                tile.push(self.slot_index(a), v);
            }
        }
        for (coord, mut tile) in built {
            tile.recount();
            self.cells += tile.vals.len();
            self.tiles.insert(coord, tile);
        }
        #[cfg(test)]
        self.check_packed();
    }

    /// Visit every non-empty cell within `range` in row-major order,
    /// stopping as soon as `f` breaks. Each tile row of the range is one
    /// band: its tiles are fetched once (one `blocks_read` each, with the
    /// intersection's slots added to `cells_scanned`; both are published
    /// when the walk ends), then walked row by row across the band. A band
    /// one tile wide (a column aggregate, a narrow window) walks its tile's
    /// occupancy words once instead.
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
        // The range inside allocated tile `(tr, tc)`.
        let span = |tr: u32, tc: u32| {
            let tile = self.tiles.get(&(tr, tc))?;
            let base_col = tc * tile_cols;
            let c_lo = range.start.col.max(base_col);
            let c_hi = range.end.col.min(base_col + tile_cols - 1);
            Some(Span {
                c_lo,
                off: (c_lo - base_col) as usize,
                width: (c_hi - c_lo + 1) as usize,
                tile,
            })
        };
        // A one-tile-wide range (a column aggregate) needs no band buffer,
        // and its bands share one mask.
        let mut wide = Vec::new();
        let narrow = (tc0 == tc1 && tile_cols <= 64).then(|| {
            BandMask::new(
                tile_cols as usize,
                (range.start.col % tile_cols) as usize,
                (range.end.col - range.start.col + 1) as usize,
            )
        });
        // Counted locally and published once per walk: two atomic adds per
        // band were a measurable share of a column aggregate's time.
        let (mut reads, mut scanned) = (0, 0);
        let flow = (|| {
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
                let width: usize = band.iter().map(|s| s.width).sum();
                reads += band.len() as u64;
                scanned += width as u64 * u64::from(r_hi - r_lo + 1);
                if let (Some(mask), [s]) = (&narrow, band) {
                    let rows = ((r_lo - base_row) as usize, (r_hi - base_row) as usize);
                    let base_col = tc0 * tile_cols;
                    s.tile.visit_band(mask, rows, |r, c, v| {
                        f(CellAddr::new(base_row + r as u32, base_col + c as u32), v)
                    })?;
                    continue;
                }
                for r in r_lo..=r_hi {
                    let row = ((r - base_row) * tile_cols) as usize;
                    for s in band {
                        let (start, end) = (row + s.off, row + s.off + s.width);
                        for w in start / 64..end.div_ceil(64) {
                            let base = w * 64;
                            let inside =
                                bits_from(start.saturating_sub(base)) & !bits_from(end - base);
                            s.tile.visit_word(w, inside, |b, v| {
                                f(CellAddr::new(r, s.c_lo + (base + b - start) as u32), v)
                            })?;
                        }
                    }
                }
            }
            ControlFlow::Continue(())
        })();
        self.stats.add_read(reads);
        self.stats.add_scanned(scanned);
        flow
    }

    /// Visit every cell, one allocated tile at a time in ascending tile
    /// coordinates, each tile's cells in row-major order: one `blocks_read`
    /// per tile and no probe of an address between them, however far apart
    /// the tiles lie (a bounding-box walk probes every tile in the box).
    /// Cells of one tile row therefore come out tile by tile, not row by row.
    pub fn for_each_cell(&self, f: &mut dyn FnMut(CellAddr, &T)) {
        let TileConfig {
            tile_rows,
            tile_cols,
        } = self.cfg;
        let mut coords: Vec<(u32, u32)> = self.tiles.keys().copied().collect();
        coords.sort_unstable();
        for &(tr, tc) in &coords {
            let tile = &self.tiles[&(tr, tc)];
            let (base_row, base_col) = (tr * tile_rows, tc * tile_cols);
            for (slot, v) in occupied(&tile.words).zip(&tile.vals) {
                let slot = slot as u32;
                f(
                    CellAddr::new(base_row + slot / tile_cols, base_col + slot % tile_cols),
                    v,
                );
            }
        }
        self.stats.add_read(coords.len() as u64);
    }

    /// Every tile satisfies the packing invariant, none is empty, and the
    /// cell count is the sum of their values.
    #[cfg(test)]
    fn check_packed(&self) {
        for tile in self.tiles.values() {
            tile.check();
            assert!(!tile.vals.is_empty(), "an emptied tile is dropped");
        }
        let held: usize = self.tiles.values().map(|t| t.vals.len()).sum();
        assert_eq!(held, self.cells);
    }
}

impl<T> CellStore<T> for TiledGrid<T> {
    fn get(&self, addr: CellAddr) -> Option<&T> {
        self.stats.add_read(1);
        let tile = self.tiles.get(&self.tile_coord(addr))?;
        tile.get(self.slot_index(addr))
    }

    fn set(&mut self, addr: CellAddr, value: T) -> Option<T> {
        self.stats.add_write(1);
        let coord = self.tile_coord(addr);
        let idx = self.slot_index(addr);
        let cap = (self.cfg.tile_rows * self.cfg.tile_cols) as usize;
        let tile = self.tiles.entry(coord).or_insert_with(|| Tile::new(cap));
        let old = tile.set(idx, value);
        #[cfg(test)]
        tile.check();
        if old.is_none() {
            self.cells += 1;
        }
        old
    }

    fn remove(&mut self, addr: CellAddr) -> Option<T> {
        self.stats.add_write(1);
        let coord = self.tile_coord(addr);
        let idx = self.slot_index(addr);
        let tile = self.tiles.get_mut(&coord)?;
        let old = tile.remove(idx);
        #[cfg(test)]
        tile.check();
        if old.is_some() {
            self.cells -= 1;
            if tile.vals.is_empty() {
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
            for slot in occupied(&tile.words) {
                let a = CellAddr::new(
                    base_row + slot as u32 / self.cfg.tile_cols,
                    base_col + slot as u32 % self.cfg.tile_cols,
                );
                bounds = Some(match bounds {
                    Some(b) => b.union(&Range::cell(a)),
                    None => Range::cell(a),
                });
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
    use dataspread_types::addr::{MAX_COL, MAX_ROW};

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
    fn cell_walk_visits_each_tile_once_in_tile_order() {
        let mut g = small();
        // Far corners of the address space, and two tiles of one tile row.
        let cells = [
            (CellAddr::new(MAX_ROW, MAX_COL), 1),
            (CellAddr::new(1, 5), 2),
            (CellAddr::new(0, 0), 3),
            (CellAddr::new(2, 1), 4),
            (CellAddr::new(MAX_ROW, 0), 5),
        ];
        for (a, v) in cells {
            g.set(a, v);
        }
        g.stats().reset();
        let mut seen = Vec::new();
        g.for_each_cell(&mut |a, v| seen.push((a, *v)));
        assert_eq!(
            seen,
            [cells[2], cells[3], cells[1], cells[4], cells[0]],
            "tile (0, 0) row-major, then tile (0, 1), then the last tile row"
        );
        assert_eq!(g.stats().blocks_read(), 4, "one read per tile");
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

    #[test]
    fn a_tile_holds_its_cells_not_its_slots() {
        // 3 200 × 4 at A1: 100 default tiles of 128 cells each.
        let mut g: TiledGrid<i64> = TiledGrid::default();
        for r in 0..3200u32 {
            for c in 0..4u32 {
                g.set(CellAddr::new(r, c), i64::from(r * 4 + c));
            }
        }
        assert_eq!(g.block_count(), 100);
        assert!(g.tiles.values().all(|t| t.words.len() == 16));
        // The dense layout reserved 100 × 1 024 = 102 400 slots. `Vec`'s
        // growth policy is unspecified, so capacity is only bounded.
        let held: usize = g.tiles.values().map(|t| t.vals.len()).sum();
        let reserved: usize = g.tiles.values().map(|t| t.vals.capacity()).sum();
        assert_eq!(held, 12_800);
        assert!(reserved < 2 * held, "{reserved} slots reserved");

        // Ranks stay right across all 16 words as cells come and go.
        for r in (0..3200u32).step_by(3) {
            g.remove(CellAddr::new(r, 1));
        }
        g.delete_rows(40, 7);
        g.insert_rows(3, 2);
        let expect = |r: u32, c: u32| {
            let old = match r {
                0..=2 => r,
                3..=4 => return None,
                5..=41 => r - 2,
                _ => r + 5,
            };
            (old < 3200 && c < 4 && !(c == 1 && old % 3 == 0)).then(|| i64::from(old * 4 + c))
        };
        for r in 0..3210u32 {
            for c in 0..5u32 {
                assert_eq!(
                    g.get(CellAddr::new(r, c)).copied(),
                    expect(r, c),
                    "({r}, {c})"
                );
            }
        }
        g.check_packed();
    }

    #[test]
    fn walks_agree_with_get_on_every_path() {
        // 11-column tiles put row boundaries inside 64-slot words, and
        // 80-column ones take one-tile bands down the per-row path. A dense
        // fill leaves full runs between hits; every fourth cell leaves gaps
        // holding none, one or several cells.
        for (tile_rows, tile_cols) in [(7, 11), (32, 32), (3, 80)] {
            for sparse in [false, true] {
                let mut g = TiledGrid::new(TileConfig {
                    tile_rows,
                    tile_cols,
                });
                for r in 0..40u32 {
                    for c in 0..90u32 {
                        if !sparse || (r * 7 + c * 3) % 4 == 0 {
                            g.set(CellAddr::new(r, c), i64::from(r * 100 + c));
                        }
                    }
                }
                for range in [
                    Range::from_bounds(0, 0, 39, 89),
                    Range::from_bounds(4, 3, 17, 9),
                    Range::from_bounds(2, 5, 37, 5),
                    Range::from_bounds(6, 10, 6, 12),
                    Range::from_bounds(1, 33, 38, 62),
                ] {
                    let expect: Vec<CellAddr> =
                        range.iter_cells().filter(|&a| g.get(a).is_some()).collect();
                    let mut seen = Vec::new();
                    let _ = g.try_for_each_in_range(range, &mut |a, v| {
                        assert_eq!(*v, i64::from(a.row * 100 + a.col));
                        seen.push(a);
                        ControlFlow::Continue(())
                    });
                    assert_eq!(seen, expect, "{tile_rows}×{tile_cols} {range}");
                }
            }
        }
    }
}
