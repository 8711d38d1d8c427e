//! Attribute-group tables: the relational storage manager.
//!
//! Paper §3 (Relational Storage Manager):
//!
//! > "the relational storage manager uses a hybrid of column-store and
//! > row-store to physically store the table. Here, data is structured along
//! > a collection of attribute groups, thereby radically reducing the disk
//! > blocks that need an update during a schema change."
//!
//! A [`Table`] partitions its columns into *groups*; each group stores its
//! slice of every row (a *fragment*) row-wise in its own page chain. The
//! three classical layouts are all grouping policies:
//!
//! * [`GroupPolicy::RowStore`] — one group holding every column (stock
//!   baseline: `ADD COLUMN` rewrites every page).
//! * [`GroupPolicy::ColumnStore`] — one group per column.
//! * [`GroupPolicy::Hybrid`] — groups of bounded width; **`ADD COLUMN`
//!   creates a fresh group whose values are lazily defaulted**, touching
//!   zero data pages — the paper's "schema change almost as efficient as a
//!   tuple update".
//!
//! Rows are identified by stable [`RowKey`]s; display order is maintained by
//! the positional index ([`CountedBtree`]), so positional window reads and
//! positional inserts are O(log n).

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dataspread_posindex::{CountedBtree, KeyMap, PositionalIndex, RowKey};
use dataspread_types::{DsError, DsResult, Value};

use crate::codec::{decode_fragment, decode_fragment_prefix, encode_fragment};
use crate::page::{Page, SlotId, PAGE_SIZE};
use crate::pager::PageFile;
use crate::schema::{ColumnDef, KeyTuple, Schema};
use crate::stats::{ColumnSummary, TableStatistics};
use crate::wal::{WalOp, WalWriter};

/// How columns are partitioned into attribute groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GroupPolicy {
    /// All columns in one group — the stock row-store baseline.
    RowStore,
    /// Each column in its own group.
    ColumnStore,
    /// Groups of at most `max_group_width` columns (the DataSpread layout).
    Hybrid {
        /// Upper bound on columns per attribute group.
        max_group_width: usize,
    },
}

impl GroupPolicy {
    fn partition(&self, width: usize) -> Vec<Vec<usize>> {
        match *self {
            GroupPolicy::RowStore => vec![(0..width).collect()],
            GroupPolicy::ColumnStore => (0..width).map(|i| vec![i]).collect(),
            GroupPolicy::Hybrid { max_group_width } => {
                let w = max_group_width.max(1);
                (0..width)
                    .collect::<Vec<_>>()
                    .chunks(w)
                    .map(|c| c.to_vec())
                    .collect()
            }
        }
    }
}

/// Logical page-touch counters ("disk blocks that need an update").
#[derive(Debug, Default)]
pub struct TableStats {
    /// Pages read (a logical disk-block read).
    pub page_reads: AtomicU64,
    /// Pages written (a logical disk-block write).
    pub page_writes: AtomicU64,
    /// Fresh pages allocated.
    pub pages_allocated: AtomicU64,
}

impl TableStats {
    /// Pages read so far.
    pub fn page_reads(&self) -> u64 {
        self.page_reads.load(Ordering::Relaxed)
    }
    /// Pages written so far.
    pub fn page_writes(&self) -> u64 {
        self.page_writes.load(Ordering::Relaxed)
    }
    /// Pages allocated so far.
    pub fn pages_allocated(&self) -> u64 {
        self.pages_allocated.load(Ordering::Relaxed)
    }
    /// Zero every counter (bench phase boundaries).
    pub fn reset(&self) {
        self.page_reads.store(0, Ordering::Relaxed);
        self.page_writes.store(0, Ordering::Relaxed);
        self.pages_allocated.store(0, Ordering::Relaxed);
    }
}

/// A row directory's empty slot: no page has this index.
const NO_FRAGMENT: (u32, SlotId) = (u32::MAX, SlotId::MAX);

/// One attribute group's storage. Pages and the row directory sit behind
/// `Arc`s so a [`TableSnapshot`] is a cheap pointer-clone of the whole group;
/// writers go through [`std::sync::Arc::make_mut`], copying a page only when
/// a live snapshot still references it (copy-on-write versioning).
#[derive(Clone, Debug)]
struct Group {
    /// Schema column indices stored in this group, in fragment order.
    cols: Vec<usize>,
    pages: Vec<Arc<Page>>,
    /// Where each row's fragment lives (page index, slot), dense by key.
    /// Rows absent here take `defaults`.
    rowdir: Arc<KeyMap<(u32, SlotId)>>,
    /// Lazily-materialized values for rows without a fragment (the zero-cost
    /// `ADD COLUMN` mechanism).
    defaults: Vec<Value>,
}

impl Group {
    fn new(cols: Vec<usize>) -> Self {
        let defaults = vec![Value::Empty; cols.len()];
        Group {
            cols,
            pages: Vec::new(),
            rowdir: Arc::new(KeyMap::new(NO_FRAGMENT)),
            defaults,
        }
    }
}

/// A stored relation.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    policy: GroupPolicy,
    groups: Vec<Group>,
    /// For each schema column: (group index, offset within the fragment).
    col_group: Vec<(usize, usize)>,
    next_key: RowKey,
    /// Primary key → row, under the exact [`KeyTuple`] order. Behind an
    /// `Arc`, like `order`, so snapshots can probe it.
    pk_index: Arc<BTreeMap<KeyTuple, RowKey>>,
    /// Presentation order of rows — the positional index. Behind an `Arc`
    /// so snapshots share it copy-on-write with writers.
    order: Arc<CountedBtree>,
    stats: TableStats,
    /// Redo log for DML when the table is attached to a durable store.
    wal: Option<Arc<WalWriter>>,
    /// In-memory mutation counter: bumped by every DML and schema change, so
    /// observers (the engine's binding layer) can skip work when a table has
    /// not changed. Not persisted — restarts reset it to zero.
    version: u64,
    /// Optimizer statistics: per-column NDV/min-max sketches, maintained
    /// inline by DML and rebuilt exactly by [`Table::analyze`].
    statistics: TableStatistics,
}

impl Table {
    /// An empty table laid out under `policy`.
    pub fn new(name: impl Into<String>, schema: Schema, policy: GroupPolicy) -> Self {
        let groups: Vec<Group> = policy
            .partition(schema.width())
            .into_iter()
            .map(Group::new)
            .collect();
        let statistics = TableStatistics::new(schema.width());
        let mut t = Table {
            name: name.into(),
            schema,
            policy,
            groups,
            col_group: Vec::new(),
            next_key: 1,
            pk_index: Arc::new(BTreeMap::new()),
            order: Arc::new(CountedBtree::new()),
            stats: TableStats::default(),
            wal: None,
            version: 0,
            statistics,
        };
        t.rebuild_col_group();
        t
    }

    fn rebuild_col_group(&mut self) {
        let mut map = vec![(usize::MAX, usize::MAX); self.schema.width()];
        for (g, group) in self.groups.iter().enumerate() {
            for (off, &c) in group.cols.iter().enumerate() {
                map[c] = (g, off);
            }
        }
        debug_assert!(map.iter().all(|&(g, _)| g != usize::MAX), "unmapped column");
        self.col_group = map;
    }

    // ---- accessors --------------------------------------------------------

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The grouping policy the table was created (or last compacted)
    /// under.
    pub fn policy(&self) -> GroupPolicy {
        self.policy
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.order.len()
    }

    /// Mutation counter: bumped by every successful DML and schema change.
    /// Observers compare versions to skip refreshing from an unchanged
    /// table. In-memory only; reopening a store resets it.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Logical page-touch counters.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// Number of attribute groups (for tests/benches).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Total allocated pages across all groups.
    pub fn total_pages(&self) -> usize {
        self.groups.iter().map(|g| g.pages.len()).sum()
    }

    /// Pages per group (for the schema-change experiment's reporting).
    pub fn pages_per_group(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.pages.len()).collect()
    }

    fn touch_read(&self) {
        self.stats.page_reads.fetch_add(1, Ordering::Relaxed);
    }

    fn touch_write(&self) {
        self.stats.page_writes.fetch_add(1, Ordering::Relaxed);
    }

    // ---- durability --------------------------------------------------------

    /// Attach this table to a durable store: DML appends redo records to
    /// `wal`. Pages reach the page file only at checkpoints. Called by the
    /// snapshot layer after a checkpoint or open.
    pub fn attach_durability(&mut self, wal: Arc<WalWriter>) {
        self.wal = Some(wal);
    }

    /// Detach from the durable store; the table reverts to pure in-memory
    /// operation.
    pub fn detach_durability(&mut self) {
        self.wal = None;
    }

    /// Is this table writing through to a durable store?
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    fn log(&self, op: WalOp) -> DsResult<()> {
        match &self.wal {
            Some(wal) => wal.log(op),
            None => Ok(()),
        }
    }

    /// Refuse DML up front when the attached WAL is poisoned. The check
    /// runs *before* any in-memory mutation so a degraded (read-only)
    /// store never accumulates state that was refused durability.
    fn ensure_writable(&self) -> DsResult<()> {
        match &self.wal {
            Some(wal) => wal.ensure_writable(),
            None => Ok(()),
        }
    }

    /// Extract a row's primary-key tuple, as a typed error instead of a
    /// panic: callers only reach this under `has_pkey()`, so a `None`
    /// means the row is narrower than the schema's key columns — a
    /// corrupt fragment, not a caller bug worth crashing the engine for.
    fn key_of_row(&self, row: &[Value]) -> DsResult<KeyTuple> {
        self.schema.key_of(row).ok_or_else(|| {
            DsError::Storage(format!(
                "table {}: row narrower than its primary-key columns",
                self.name
            ))
        })
    }

    // ---- fragment plumbing -------------------------------------------------

    /// Append a fragment to group `g`, allocating a page if needed. Returns
    /// the location.
    fn append_fragment(&mut self, g: usize, key: RowKey, values: &[Value]) -> DsResult<()> {
        let bytes = encode_fragment(values);
        if bytes.len() + 64 > PAGE_SIZE {
            return Err(DsError::Storage(format!(
                "fragment of {} bytes exceeds page budget",
                bytes.len()
            )));
        }
        let group = &mut self.groups[g];
        let need_new = match group.pages.last() {
            Some(p) => !p.has_room(bytes.len()),
            None => true,
        };
        if need_new {
            // Appends only ever go to the last page, so the full one it
            // replaces can give back its slack (unless a snapshot shares it).
            if let Some(full) = group.pages.last_mut().and_then(Arc::get_mut) {
                full.shrink_to_fit();
            }
            group.pages.push(Arc::new(Page::new()));
            self.stats.pages_allocated.fetch_add(1, Ordering::Relaxed);
        }
        let pidx = (group.pages.len() - 1) as u32;
        let slot = Arc::make_mut(&mut group.pages[pidx as usize]).insert(&bytes)?;
        Arc::make_mut(&mut group.rowdir).insert(key, (pidx, slot));
        self.touch_write();
        Ok(())
    }

    /// Read the fragment of `key` in group `g`, falling back to the group's
    /// lazy defaults.
    fn read_fragment(&self, g: usize, key: RowKey) -> DsResult<Vec<Value>> {
        let group = &self.groups[g];
        match group.rowdir.get(key) {
            Some((pidx, slot)) => {
                self.touch_read();
                let bytes = group.pages[pidx as usize].read(slot)?;
                decode_fragment(bytes)
            }
            None => Ok(group.defaults.clone()),
        }
    }

    /// Rewrite the fragment of `key` in group `g` with new values,
    /// materializing or relocating as needed.
    fn write_fragment(&mut self, g: usize, key: RowKey, values: &[Value]) -> DsResult<()> {
        let loc = self.groups[g].rowdir.get(key);
        match loc {
            Some((pidx, slot)) => {
                let bytes = encode_fragment(values);
                let fits =
                    Arc::make_mut(&mut self.groups[g].pages[pidx as usize]).update(slot, &bytes)?;
                self.touch_write();
                if !fits {
                    // Relocate: tombstone the old copy, append elsewhere.
                    Arc::make_mut(&mut self.groups[g].pages[pidx as usize]).delete(slot)?;
                    Arc::make_mut(&mut self.groups[g].rowdir).remove(key);
                    self.append_fragment(g, key, values)?;
                }
                Ok(())
            }
            None => self.append_fragment(g, key, values),
        }
    }

    // ---- row CRUD ----------------------------------------------------------

    /// Insert at the end of the presentation order.
    pub fn insert(&mut self, row: Vec<Value>) -> DsResult<RowKey> {
        let pos = self.row_count();
        self.insert_at(pos, row)
    }

    /// Insert so the new row is displayed at position `pos` — the positional
    /// insert a spreadsheet "insert row" needs.
    pub fn insert_at(&mut self, pos: usize, row: Vec<Value>) -> DsResult<RowKey> {
        self.insert_at_keyed(pos, None, row)
    }

    /// Insert at position `pos` under a caller-chosen row key — the WAL
    /// replay hook (see [`crate::wal::apply_committed`]): recovery must
    /// reproduce the exact keys the original execution assigned, so later
    /// redo records keep resolving. Errors if `key` is already present.
    pub fn insert_at_with_key(
        &mut self,
        pos: usize,
        key: RowKey,
        row: Vec<Value>,
    ) -> DsResult<RowKey> {
        self.insert_at_keyed(pos, Some(key), row)
    }

    fn insert_at_keyed(
        &mut self,
        pos: usize,
        forced: Option<RowKey>,
        row: Vec<Value>,
    ) -> DsResult<RowKey> {
        self.ensure_writable()?;
        let row = self.schema.conform_row(row)?;
        if let Some(kt) = self.schema.key_of(&row) {
            if self.pk_index.contains_key(&kt) {
                return Err(DsError::KeyViolation(format!(
                    "duplicate key {:?} in table {}",
                    kt.0, self.name
                )));
            }
        }
        let key = match forced {
            Some(k) => {
                if self.order.position_of(k).is_some() {
                    return Err(DsError::Storage(format!(
                        "row key {k} already present in table {}",
                        self.name
                    )));
                }
                self.next_key = self.next_key.max(k + 1);
                k
            }
            None => {
                let k = self.next_key;
                self.next_key += 1;
                k
            }
        };
        for g in 0..self.groups.len() {
            let frag: Vec<Value> = self.groups[g]
                .cols
                .iter()
                .map(|&c| row[c].clone())
                .collect();
            self.append_fragment(g, key, &frag)?;
        }
        Arc::make_mut(&mut self.order).insert_at(pos, key)?;
        if let Some(kt) = self.schema.key_of(&row) {
            Arc::make_mut(&mut self.pk_index).insert(kt, key);
        }
        self.statistics.observe_row(&row);
        self.log(WalOp::Insert {
            table: self.name.clone(),
            key,
            pos: pos as u64,
            row,
        })?;
        self.version += 1;
        Ok(key)
    }

    /// Bulk append; returns the keys in order.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) -> DsResult<Vec<RowKey>> {
        let mut keys = Vec::with_capacity(rows.len());
        for r in rows {
            keys.push(self.insert(r)?);
        }
        Ok(keys)
    }

    /// Fetch a full row by key.
    pub fn get_row(&self, key: RowKey) -> DsResult<Vec<Value>> {
        if self.order.position_of(key).is_none() {
            return Err(DsError::Storage(format!(
                "row key {key} not in table {}",
                self.name
            )));
        }
        let mut out = vec![Value::Empty; self.schema.width()];
        for g in 0..self.groups.len() {
            let frag = self.read_fragment(g, key)?;
            for (off, &c) in self.groups[g].cols.iter().enumerate() {
                out[c] = frag[off].clone();
            }
        }
        Ok(out)
    }

    /// Fetch a projection of a row, reading only the groups that cover the
    /// requested columns (the hybrid-layout read advantage).
    pub fn get_row_project(&self, key: RowKey, cols: &[usize]) -> DsResult<Vec<Value>> {
        if self.order.position_of(key).is_none() {
            return Err(DsError::Storage(format!(
                "row key {key} not in table {}",
                self.name
            )));
        }
        let mut needed_groups: Vec<usize> = cols.iter().map(|&c| self.col_group[c].0).collect();
        needed_groups.sort_unstable();
        needed_groups.dedup();
        let mut scatter: HashMap<usize, Value> = HashMap::with_capacity(cols.len());
        for g in needed_groups {
            let frag = self.read_fragment(g, key)?;
            for (off, &c) in self.groups[g].cols.iter().enumerate() {
                scatter.insert(c, frag[off].clone());
            }
        }
        Ok(cols
            .iter()
            .map(|c| scatter.remove(c).unwrap_or(Value::Empty))
            .collect())
    }

    /// Update one attribute of one row. Touches only the pages of the group
    /// containing the column.
    pub fn update_cell(&mut self, key: RowKey, col: usize, value: Value) -> DsResult<Value> {
        self.ensure_writable()?;
        if self.order.position_of(key).is_none() {
            return Err(DsError::Storage(format!(
                "row key {key} not in table {}",
                self.name
            )));
        }
        let value = self.schema.conform_value_at(col, value)?;
        // Primary-key maintenance requires the old full key.
        let in_pk = self.schema.pkey().contains(&col);
        let old_row = if in_pk {
            Some(self.get_row(key)?)
        } else {
            None
        };
        let (g, off) = self.col_group[col];
        let mut frag = self.read_fragment(g, key)?;
        let old = std::mem::replace(&mut frag[off], value.clone());
        if let Some(old_row) = old_row {
            let old_kt = self.key_of_row(&old_row)?;
            let mut new_row = old_row;
            new_row[col] = value;
            let new_kt = self.key_of_row(&new_row)?;
            if new_kt != old_kt {
                if self.pk_index.contains_key(&new_kt) {
                    return Err(DsError::KeyViolation(format!(
                        "duplicate key {:?} in table {}",
                        new_kt.0, self.name
                    )));
                }
                let pk = Arc::make_mut(&mut self.pk_index);
                pk.remove(&old_kt);
                pk.insert(new_kt, key);
            }
        }
        self.write_fragment(g, key, &frag)?;
        self.statistics.observe_cell(col, &frag[off]);
        self.log(WalOp::UpdateCell {
            table: self.name.clone(),
            key,
            col: col as u32,
            value: frag[off].clone(),
        })?;
        self.version += 1;
        Ok(old)
    }

    /// Replace a full row.
    pub fn update_row(&mut self, key: RowKey, row: Vec<Value>) -> DsResult<()> {
        self.ensure_writable()?;
        if self.order.position_of(key).is_none() {
            return Err(DsError::Storage(format!(
                "row key {key} not in table {}",
                self.name
            )));
        }
        let row = self.schema.conform_row(row)?;
        if self.schema.has_pkey() {
            let old_row = self.get_row(key)?;
            let old_kt = self.key_of_row(&old_row)?;
            let new_kt = self.key_of_row(&row)?;
            if new_kt != old_kt {
                if self.pk_index.contains_key(&new_kt) {
                    return Err(DsError::KeyViolation(format!(
                        "duplicate key {:?} in table {}",
                        new_kt.0, self.name
                    )));
                }
                let pk = Arc::make_mut(&mut self.pk_index);
                pk.remove(&old_kt);
                pk.insert(new_kt, key);
            }
        }
        for g in 0..self.groups.len() {
            let frag: Vec<Value> = self.groups[g]
                .cols
                .iter()
                .map(|&c| row[c].clone())
                .collect();
            self.write_fragment(g, key, &frag)?;
        }
        self.statistics.observe_row(&row);
        self.log(WalOp::UpdateRow {
            table: self.name.clone(),
            key,
            row,
        })?;
        self.version += 1;
        Ok(())
    }

    /// Delete a row by key; returns the position it occupied.
    pub fn delete_row(&mut self, key: RowKey) -> DsResult<usize> {
        self.ensure_writable()?;
        if self.order.position_of(key).is_none() {
            return Err(DsError::Storage(format!(
                "row key {key} not in table {}",
                self.name
            )));
        }
        if self.schema.has_pkey() {
            let row = self.get_row(key)?;
            let kt = self.key_of_row(&row)?;
            Arc::make_mut(&mut self.pk_index).remove(&kt);
        }
        for g in 0..self.groups.len() {
            if let Some((pidx, slot)) = Arc::make_mut(&mut self.groups[g].rowdir).remove(key) {
                Arc::make_mut(&mut self.groups[g].pages[pidx as usize]).delete(slot)?;
                self.touch_write();
            }
        }
        let pos = Arc::make_mut(&mut self.order).remove_key(key)?;
        self.log(WalOp::Delete {
            table: self.name.clone(),
            key,
        })?;
        self.version += 1;
        Ok(pos)
    }

    // ---- positional access ---------------------------------------------------

    /// Key of the row displayed at `pos`.
    pub fn key_at(&self, pos: usize) -> Option<RowKey> {
        self.order.key_at(pos)
    }

    /// Display position of a row.
    pub fn position_of(&self, key: RowKey) -> Option<usize> {
        self.order.position_of(key)
    }

    /// Windowed scan: the rows displayed at `[pos, pos+count)` — the query
    /// the front-end issues as the user pans.
    pub fn scan_window(&self, pos: usize, count: usize) -> DsResult<Vec<(RowKey, Vec<Value>)>> {
        let keys = self.order.range(pos, count);
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            out.push((k, self.get_row(k)?));
        }
        Ok(out)
    }

    /// The row whose primary key is `kt`, in O(log n) through the key map.
    /// The map's order is exact ([`KeyTuple`]), so a hit is the one row
    /// for which SQL `=` holds on every key column when `kt`'s components
    /// have the columns' own types — the planner's key probe
    /// (`SELECT`, `UPDATE`, `DELETE … WHERE <pk> = literal`) relies on
    /// that. `None` when no row has the key or the table has none.
    pub fn key_lookup(&self, kt: &KeyTuple) -> Option<RowKey> {
        self.pk_index.get(kt).copied()
    }

    /// Visit every row in presentation order.
    pub fn for_each_row(
        &self,
        f: &mut dyn FnMut(RowKey, Vec<Value>) -> DsResult<()>,
    ) -> DsResult<()> {
        for k in self.order.to_vec() {
            f(k, self.get_row(k)?)?;
        }
        Ok(())
    }

    /// Full scan, materialized.
    pub fn scan(&self) -> DsResult<Vec<(RowKey, Vec<Value>)>> {
        let mut out = Vec::with_capacity(self.row_count());
        self.for_each_row(&mut |k, r| {
            out.push((k, r));
            Ok(())
        })?;
        Ok(out)
    }

    /// Streaming scan in presentation order: yields one row at a time
    /// without materializing the table — the executor's scan operator.
    pub fn iter_rows(&self) -> RowIter<'_> {
        self.iter_rows_sparse(None)
    }

    /// Streaming scan that reads only the attribute groups covering `cols`,
    /// yielding **full-width** rows whose other slots are left
    /// [`Value::Empty`] — the projection-pushdown hook: column indices stay
    /// valid upstream while untouched groups cost zero page reads.
    /// `cols: None` reads every group (same as [`Table::iter_rows`]).
    pub fn iter_rows_sparse(&self, cols: Option<&[usize]>) -> RowIter<'_> {
        self.rows_sparse(self.order.to_vec(), cols)
    }

    /// [`Table::iter_rows_sparse`] over the rows displayed at `pos` and
    /// below: O(log n) to find the first, then the rows themselves.
    pub fn iter_rows_sparse_from(&self, pos: usize, cols: Option<&[usize]>) -> RowIter<'_> {
        self.rows_sparse(self.order.range(pos, usize::MAX), cols)
    }

    fn rows_sparse(&self, keys: Vec<RowKey>, cols: Option<&[usize]>) -> RowIter<'_> {
        let groups = match cols {
            None => (0..self.groups.len()).collect(),
            Some(cols) => {
                let mut gs: Vec<usize> = cols.iter().map(|&c| self.col_group[c].0).collect();
                gs.sort_unstable();
                gs.dedup();
                gs
            }
        };
        RowIter {
            table: self,
            keys: keys.into_iter(),
            groups,
        }
    }

    /// Projected full scan: reads only the groups covering `cols`.
    pub fn scan_project(&self, cols: &[usize]) -> DsResult<Vec<(RowKey, Vec<Value>)>> {
        let mut out = Vec::with_capacity(self.row_count());
        for k in self.order.to_vec() {
            out.push((k, self.get_row_project(k, cols)?));
        }
        Ok(out)
    }

    // ---- dynamic schema ---------------------------------------------------------

    /// `ALTER TABLE ADD COLUMN`. Under the hybrid/column layouts this is a
    /// metadata operation: a fresh attribute group with a lazy default,
    /// touching **zero** data pages. Under the row-store baseline every page
    /// is rewritten.
    pub fn add_column(&mut self, def: ColumnDef, default: Value) -> DsResult<()> {
        let default = if default.is_empty() {
            if !def.nullable {
                return Err(DsError::Schema(format!(
                    "NOT NULL column `{}` needs a default",
                    def.name
                )));
            }
            Value::Empty
        } else {
            def.dtype.coerce_for_storage(default).ok_or_else(|| {
                DsError::Schema(format!("default does not fit column type {}", def.dtype))
            })?
        };
        let idx = self.schema.push_column(def)?;
        // Existing rows surface the lazy default, so seed the new column's
        // sketch with it (an empty table starts from a clean sketch).
        let seed = (self.row_count() > 0).then(|| default.clone());
        match self.policy {
            GroupPolicy::RowStore => {
                // Stock behaviour: widen every tuple in the single group.
                self.groups[0].cols.push(idx);
                self.groups[0].defaults.push(default.clone());
                self.rewrite_group(0, |frag| frag.push(default.clone()))?;
            }
            GroupPolicy::ColumnStore | GroupPolicy::Hybrid { .. } => {
                let mut g = Group::new(vec![idx]);
                g.defaults = vec![default];
                self.groups.push(g);
            }
        }
        self.rebuild_col_group();
        self.statistics.push_column(seed.as_ref());
        self.version += 1;
        Ok(())
    }

    /// `ALTER TABLE DROP COLUMN`. If the column is alone in its group the
    /// whole group is dropped (no page touched); otherwise only that group is
    /// rewritten.
    pub fn drop_column(&mut self, name: &str) -> DsResult<()> {
        let idx = self
            .schema
            .index_of(name)
            .ok_or_else(|| DsError::ColumnNotFound(name.into()))?;
        let (g, off) = self.col_group[idx];
        // Validate via the schema first (pk/last-column protection).
        self.schema.remove_column(name)?;
        if self.groups[g].cols.len() == 1 {
            self.groups.remove(g);
        } else {
            self.groups[g].cols.remove(off);
            self.groups[g].defaults.remove(off);
            self.rewrite_group(g, move |frag| {
                frag.remove(off);
            })?;
        }
        // Shift schema column indices above the removed one.
        for group in &mut self.groups {
            for c in &mut group.cols {
                if *c > idx {
                    *c -= 1;
                }
            }
        }
        self.rebuild_col_group();
        self.statistics.remove_column(idx);
        self.version += 1;
        Ok(())
    }

    /// `ALTER TABLE RENAME COLUMN` — metadata only under every layout.
    pub fn rename_column(&mut self, from: &str, to: &str) -> DsResult<()> {
        self.schema.rename_column(from, to)?;
        self.version += 1;
        Ok(())
    }

    /// Rewrite every fragment of a group through `transform`, rebuilding its
    /// page chain. Counts a read of every old page and a write of every new
    /// page — this is exactly the cost the hybrid layout avoids.
    fn rewrite_group(&mut self, g: usize, transform: impl Fn(&mut Vec<Value>)) -> DsResult<()> {
        let old_pages = std::mem::take(&mut self.groups[g].pages);
        let old_rowdir = std::mem::replace(
            &mut self.groups[g].rowdir,
            Arc::new(KeyMap::new(NO_FRAGMENT)),
        );
        self.stats
            .page_reads
            .fetch_add(old_pages.len() as u64, Ordering::Relaxed);
        // Preserve a deterministic order: iterate rows in page order.
        let mut frags: Vec<(RowKey, Vec<Value>)> = Vec::with_capacity(old_rowdir.len());
        let mut by_loc: Vec<(RowKey, (u32, SlotId))> = old_rowdir.iter().collect();
        by_loc.sort_by_key(|&(_, loc)| loc);
        for (key, (pidx, slot)) in by_loc {
            let bytes = old_pages[pidx as usize].read(slot)?;
            let mut frag = decode_fragment(bytes)?;
            transform(&mut frag);
            frags.push((key, frag));
        }
        for (key, frag) in frags {
            self.append_fragment(g, key, &frag)?;
        }
        Ok(())
    }

    /// Re-partition all groups according to `policy` (maintenance /
    /// ablation): a full read + rewrite of the table.
    pub fn compact(&mut self, policy: GroupPolicy) -> DsResult<()> {
        let keys = self.order.to_vec();
        let mut rows = Vec::with_capacity(keys.len());
        for &k in &keys {
            rows.push(self.get_row(k)?);
        }
        self.policy = policy;
        self.groups = policy
            .partition(self.schema.width())
            .into_iter()
            .map(Group::new)
            .collect();
        self.rebuild_col_group();
        for (k, row) in keys.into_iter().zip(rows) {
            for g in 0..self.groups.len() {
                let frag: Vec<Value> = self.groups[g]
                    .cols
                    .iter()
                    .map(|&c| row[c].clone())
                    .collect();
                self.append_fragment(g, k, &frag)?;
            }
        }
        Ok(())
    }

    // ---- snapshot encode/decode (the checkpoint format) --------------------

    /// Write every page into fresh pager frames and encode the table's
    /// snapshot metadata (schema, policy, row order, per-group directories,
    /// frame ids) into `buf`. Byte layout in `docs/STORAGE.md`.
    pub(crate) fn encode_snapshot(&self, pager: &PageFile, buf: &mut Vec<u8>) -> DsResult<()> {
        use crate::codec::{encode_value, put_str, put_u16, put_u32, put_u64};
        put_str(buf, &self.name);
        match self.policy {
            GroupPolicy::RowStore => buf.push(0),
            GroupPolicy::ColumnStore => buf.push(1),
            GroupPolicy::Hybrid { max_group_width } => {
                buf.push(2);
                put_u32(buf, max_group_width as u32);
            }
        }
        put_u64(buf, self.next_key);
        // Reserved (was the buffer-pool capacity): written as zero.
        put_u64(buf, 0);
        // Schema: columns then pkey indices (layout shared with the WAL's
        // CREATE TABLE record).
        self.schema.encode(buf);
        // Presentation order.
        let order = self.order.to_vec();
        put_u64(buf, order.len() as u64);
        for k in &order {
            put_u64(buf, *k);
        }
        // Groups: layout, defaults, page frames, row directory.
        put_u16(buf, self.groups.len() as u16);
        for group in &self.groups {
            put_u16(buf, group.cols.len() as u16);
            for &c in &group.cols {
                put_u32(buf, c as u32);
            }
            for d in &group.defaults {
                encode_value(buf, d);
            }
            put_u32(buf, group.pages.len() as u32);
            for page in &group.pages {
                let frame = pager.append_frame(&page.to_image())?;
                put_u64(buf, frame);
            }
            put_u32(buf, group.rowdir.len() as u32);
            // Deterministic order for byte-stable snapshots.
            let mut entries: Vec<(RowKey, (u32, SlotId))> = group.rowdir.iter().collect();
            entries.sort_unstable();
            for (key, (pidx, slot)) in entries {
                put_u64(buf, key);
                put_u32(buf, pidx);
                put_u16(buf, slot);
            }
        }
        Ok(())
    }

    /// Rebuild a table from snapshot metadata, reading its pages back from
    /// the pager. The result is detached (no WAL); the snapshot layer
    /// attaches it after recovery so replay does not re-log itself.
    pub(crate) fn decode_snapshot(
        cur: &mut crate::codec::Cursor<'_>,
        pager: &PageFile,
    ) -> DsResult<Table> {
        let name = cur.str()?;
        let policy = match cur.u8()? {
            0 => GroupPolicy::RowStore,
            1 => GroupPolicy::ColumnStore,
            2 => GroupPolicy::Hybrid {
                max_group_width: cur.u32()? as usize,
            },
            other => {
                return Err(DsError::Storage(format!(
                    "snapshot: bad group policy {other}"
                )))
            }
        };
        let next_key = cur.u64()?;
        // Reserved (was the buffer-pool capacity): read and ignored.
        cur.u64()?;
        let schema = Schema::decode(cur)?;
        let norder = cur.u64()? as usize;
        let mut order_keys = Vec::with_capacity(norder.min(cur.remaining()));
        for _ in 0..norder {
            order_keys.push(cur.u64()?);
        }
        let ngroups = cur.u16()? as usize;
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let width = cur.u16()? as usize;
            let mut cols = Vec::with_capacity(width);
            for _ in 0..width {
                cols.push(cur.u32()? as usize);
            }
            let mut defaults = Vec::with_capacity(width);
            for _ in 0..width {
                defaults.push(cur.value()?);
            }
            let npages = cur.u32()? as usize;
            let mut pages = Vec::with_capacity(npages.min(cur.remaining()));
            for _ in 0..npages {
                let frame = cur.u64()?;
                pages.push(Arc::new(Page::from_image(&pager.read_frame(frame)?)?));
            }
            let ndir = cur.u32()? as usize;
            let mut entries = Vec::with_capacity(ndir.min(cur.remaining()));
            for _ in 0..ndir {
                let key = cur.u64()?;
                let pidx = cur.u32()?;
                let slot = cur.u16()?;
                if pidx == u32::MAX {
                    return Err(DsError::Storage(format!(
                        "snapshot: row {key} names page {pidx}"
                    )));
                }
                entries.push((key, (pidx, slot)));
            }
            let rowdir = KeyMap::from_pairs(entries, NO_FRAGMENT);
            if rowdir.len() != ndir {
                return Err(DsError::Storage(
                    "snapshot: a row directory names a row twice".into(),
                ));
            }
            groups.push(Group {
                cols,
                pages,
                rowdir: Arc::new(rowdir),
                defaults,
            });
        }
        let statistics = TableStatistics::new(schema.width());
        let mut t = Table {
            name,
            schema,
            policy,
            groups,
            col_group: Vec::new(),
            next_key,
            pk_index: Arc::new(BTreeMap::new()),
            order: Arc::new(CountedBtree::from_keys(order_keys)?),
            stats: TableStats::default(),
            wal: None,
            version: 0,
            statistics,
        };
        t.rebuild_col_group();
        if t.schema.has_pkey() {
            t.pk_index = Arc::new(t.decode_pk_index()?);
        }
        Ok(t)
    }

    /// Rebuild the primary-key index of a decoded table from the key
    /// columns alone: per row, one row-directory probe in each group that
    /// holds a key column, and a decode of that fragment only up to its
    /// last key column (a row with no fragment there takes the group's lazy
    /// defaults). Rows come in presentation order, which for appended rows
    /// is key order, and the map is bulk-built from the pairs; a pair it
    /// folds away was a duplicate key.
    fn decode_pk_index(&self) -> DsResult<BTreeMap<KeyTuple, RowKey>> {
        /// A group holding key columns: how many leading fragment values
        /// to decode, and the (tuple position, fragment offset) of each key
        /// column in it.
        struct KeyGroup<'a> {
            group: &'a Group,
            width: usize,
            cols: Vec<(usize, usize)>,
        }
        let pk = self.schema.pkey();
        let mut key_groups = Vec::new();
        for (g, group) in self.groups.iter().enumerate() {
            let cols: Vec<(usize, usize)> = (0..)
                .zip(pk)
                .filter(|&(_, &c)| self.col_group[c].0 == g)
                .map(|(i, &c)| (i, self.col_group[c].1))
                .collect();
            if let Some(width) = cols.iter().map(|&(_, off)| off + 1).max() {
                key_groups.push(KeyGroup { group, width, cols });
            }
        }
        let rows = self.order.to_vec();
        let mut pairs = Vec::with_capacity(rows.len());
        for key in rows {
            let mut tuple = vec![Value::Empty; pk.len()];
            for KeyGroup { group, width, cols } in &key_groups {
                let Some((pidx, slot)) = group.rowdir.get(key) else {
                    for &(i, off) in cols {
                        tuple[i] = group.defaults[off].clone();
                    }
                    continue;
                };
                let page = group.pages.get(pidx as usize).ok_or_else(|| {
                    DsError::Storage(format!("snapshot: row directory names page {pidx}"))
                })?;
                let mut frag = decode_fragment_prefix(page.read(slot)?, *width)?;
                for &(i, off) in cols {
                    tuple[i] = std::mem::take(&mut frag[off]);
                }
            }
            pairs.push((KeyTuple(tuple), key));
        }
        let n = pairs.len();
        let index: BTreeMap<KeyTuple, RowKey> = pairs.into_iter().collect();
        if index.len() != n {
            return Err(DsError::Storage(format!(
                "snapshot: duplicate primary key in table {}",
                self.name
            )));
        }
        Ok(index)
    }

    // ---- optimizer statistics ---------------------------------------------

    /// The live optimizer statistics (conservative sketches; see
    /// [`crate::stats`]).
    pub fn statistics(&self) -> &TableStatistics {
        &self.statistics
    }

    /// Install a statistics block, e.g. one restored from persisted
    /// workbook metadata. Rejects a block whose width does not match the
    /// current schema — the caller should fall back to [`Table::analyze`].
    pub fn set_statistics(&mut self, stats: TableStatistics) -> DsResult<()> {
        if stats.width() != self.schema.width() {
            return Err(DsError::Storage(format!(
                "statistics width {} does not match schema width {} of table {}",
                stats.width(),
                self.schema.width(),
                self.name
            )));
        }
        self.statistics = stats;
        Ok(())
    }

    /// `ANALYZE`: rebuild the statistics exactly by rescanning the table,
    /// discarding the conservative drift deletes and updates accumulate.
    pub fn analyze(&mut self) -> DsResult<()> {
        let mut stats = TableStatistics::new(self.schema.width());
        for r in self.iter_rows() {
            let (_, row) = r?;
            stats.observe_row(&row);
        }
        self.statistics = stats;
        Ok(())
    }

    // ---- consistent read snapshots ----------------------------------------

    /// Open a consistent, immutable snapshot of this table's current state.
    ///
    /// O(#pages) pointer clones: pages, row directories, and the positional
    /// index are all shared `Arc`s, so no row data is copied. Writers that
    /// mutate the table afterwards copy the touched page first
    /// ([`std::sync::Arc::make_mut`]), leaving the snapshot's view intact —
    /// readers scan a committed-as-of-now state without blocking writers and
    /// without ever observing a torn row.
    pub fn snapshot(&self) -> TableSnapshot {
        TableSnapshot {
            name: self.name.clone(),
            schema: self.schema.clone(),
            col_group: self.col_group.clone(),
            groups: self.groups.clone(),
            order: Arc::clone(&self.order),
            pk_index: Arc::clone(&self.pk_index),
            version: self.version,
            col_stats: Arc::new(self.statistics.summaries()),
        }
    }
}

/// Streaming row iterator over a [`Table`] in presentation order; reads only
/// the attribute groups selected at construction (see
/// [`Table::iter_rows_sparse`]). Holds the key order as plain `u64`s — O(n)
/// in keys, not in row payloads.
pub struct RowIter<'a> {
    table: &'a Table,
    keys: std::vec::IntoIter<RowKey>,
    /// Attribute groups to materialize, ascending.
    groups: Vec<usize>,
}

impl Iterator for RowIter<'_> {
    type Item = DsResult<(RowKey, Vec<Value>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.keys.next()?;
        let mut out = vec![Value::Empty; self.table.schema.width()];
        for &g in &self.groups {
            match self.table.read_fragment(g, key) {
                Ok(frag) => {
                    for (off, &c) in self.table.groups[g].cols.iter().enumerate() {
                        out[c] = frag[off].clone();
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok((key, out)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

/// An immutable, `'static`, cheaply-cloneable view of a table at a moment in
/// time — the read side of the engine's snapshot isolation (see
/// [`Table::snapshot`]).
///
/// Snapshot reads deliberately bypass the logical I/O counters
/// ([`TableStats`]): a snapshot is already fully resident (it pins its pages
/// via `Arc`), so parallel readers touch no shared mutable state at all.
#[derive(Clone, Debug)]
pub struct TableSnapshot {
    name: String,
    schema: Schema,
    col_group: Vec<(usize, usize)>,
    groups: Vec<Group>,
    order: Arc<CountedBtree>,
    pk_index: Arc<BTreeMap<KeyTuple, RowKey>>,
    version: u64,
    /// Optimizer column summaries captured with the snapshot.
    col_stats: Arc<Vec<ColumnSummary>>,
}

impl TableSnapshot {
    /// Table name at snapshot time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Schema at snapshot time.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows visible in this snapshot.
    pub fn row_count(&self) -> usize {
        self.order.len()
    }

    /// The table's mutation counter when the snapshot was taken.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Optimizer summary for column `i`, captured at snapshot time.
    pub fn col_summary(&self, i: usize) -> Option<&ColumnSummary> {
        self.col_stats.get(i)
    }

    /// Key of the row displayed at `pos` in this snapshot.
    pub fn key_at(&self, pos: usize) -> Option<RowKey> {
        self.order.key_at(pos)
    }

    /// Display position of a row in this snapshot.
    pub fn position_of(&self, key: RowKey) -> Option<usize> {
        self.order.position_of(key)
    }

    fn read_fragment(&self, g: usize, key: RowKey) -> DsResult<Vec<Value>> {
        let group = &self.groups[g];
        match group.rowdir.get(key) {
            Some((pidx, slot)) => decode_fragment(group.pages[pidx as usize].read(slot)?),
            None => Ok(group.defaults.clone()),
        }
    }

    /// Fetch a full row by key.
    pub fn get_row(&self, key: RowKey) -> DsResult<Vec<Value>> {
        if self.order.position_of(key).is_none() {
            return Err(DsError::Storage(format!(
                "row key {key} not in snapshot of {}",
                self.name
            )));
        }
        let mut out = vec![Value::Empty; self.schema.width()];
        for g in 0..self.groups.len() {
            let frag = self.read_fragment(g, key)?;
            for (off, &c) in self.groups[g].cols.iter().enumerate() {
                out[c] = frag[off].clone();
            }
        }
        Ok(out)
    }

    /// Windowed scan over the snapshot (viewport reads off the write path).
    pub fn scan_window(&self, pos: usize, count: usize) -> DsResult<Vec<(RowKey, Vec<Value>)>> {
        let keys = self.order.range(pos, count);
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            out.push((k, self.get_row(k)?));
        }
        Ok(out)
    }

    /// Full scan, materialized.
    pub fn scan(&self) -> DsResult<Vec<(RowKey, Vec<Value>)>> {
        let mut out = Vec::with_capacity(self.row_count());
        for r in self.clone().into_iter_sparse(None) {
            out.push(r?);
        }
        Ok(out)
    }

    /// Streaming scan in presentation order, reading only the attribute
    /// groups covering `cols` (full-width rows, untouched slots
    /// [`Value::Empty`] — same contract as [`Table::iter_rows_sparse`]).
    /// Consumes the snapshot (clone first if it is still needed; a clone is
    /// O(#pages) pointer bumps), which is what makes the iterator `'static` —
    /// the executor can hold it across an entire query without borrowing the
    /// catalog.
    pub fn into_iter_sparse(self, cols: Option<&[usize]>) -> SnapRowIter {
        let keys = self.order.to_vec();
        self.into_keys_sparse(keys, cols)
    }

    /// Lookup by primary key in this snapshot (see [`Table::key_lookup`]).
    pub fn key_lookup(&self, kt: &KeyTuple) -> Option<RowKey> {
        self.pk_index.get(kt).copied()
    }

    /// The key probe: the row whose primary key is `kt` as a stream of zero
    /// or one rows, under the same sparse contract as
    /// [`TableSnapshot::into_iter_sparse`].
    pub fn into_probe_sparse(self, kt: &KeyTuple, cols: Option<&[usize]>) -> SnapRowIter {
        let keys = self.key_lookup(kt).into_iter().collect();
        self.into_keys_sparse(keys, cols)
    }

    fn into_keys_sparse(self, keys: Vec<RowKey>, cols: Option<&[usize]>) -> SnapRowIter {
        let groups = match cols {
            None => (0..self.groups.len()).collect(),
            Some(cols) => {
                let mut gs: Vec<usize> = cols.iter().map(|&c| self.col_group[c].0).collect();
                gs.sort_unstable();
                gs.dedup();
                gs
            }
        };
        SnapRowIter {
            keys: keys.into_iter(),
            snap: self,
            groups,
        }
    }
}

/// Owning streaming iterator over a [`TableSnapshot`] in presentation order.
/// `'static`: holds the snapshot itself, so it outlives any catalog borrow.
pub struct SnapRowIter {
    snap: TableSnapshot,
    keys: std::vec::IntoIter<RowKey>,
    /// Attribute groups to materialize, ascending.
    groups: Vec<usize>,
}

impl Iterator for SnapRowIter {
    type Item = DsResult<(RowKey, Vec<Value>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.keys.next()?;
        let mut out = vec![Value::Empty; self.snap.schema.width()];
        for &g in &self.groups {
            match self.snap.read_fragment(g, key) {
                Ok(frag) => {
                    for (off, &c) in self.snap.groups[g].cols.iter().enumerate() {
                        out[c] = frag[off].clone();
                    }
                }
                Err(e) => return Some(Err(e)),
            }
        }
        Some(Ok((key, out)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.keys.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_types::DataType;

    fn sample_schema() -> Schema {
        Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("score", DataType::Float),
        ])
        .unwrap()
        .with_pkey(&["id"])
        .unwrap()
    }

    fn sample_table(policy: GroupPolicy) -> Table {
        let mut t = Table::new("students", sample_schema(), policy);
        for i in 0..10 {
            t.insert(vec![
                Value::Int(i),
                Value::text(format!("student{i}")),
                Value::Float(80.0 + i as f64),
            ])
            .unwrap();
        }
        t
    }

    #[test]
    fn insert_and_get_all_policies() {
        for policy in [
            GroupPolicy::RowStore,
            GroupPolicy::ColumnStore,
            GroupPolicy::Hybrid { max_group_width: 2 },
        ] {
            let t = sample_table(policy);
            assert_eq!(t.row_count(), 10);
            let key = t.key_at(3).unwrap();
            let row = t.get_row(key).unwrap();
            assert_eq!(row[0], Value::Int(3));
            assert_eq!(row[1], Value::text("student3"));
            assert_eq!(row[2], Value::Float(83.0));
        }
    }

    #[test]
    fn group_counts_match_policy() {
        assert_eq!(sample_table(GroupPolicy::RowStore).group_count(), 1);
        assert_eq!(sample_table(GroupPolicy::ColumnStore).group_count(), 3);
        assert_eq!(
            sample_table(GroupPolicy::Hybrid { max_group_width: 2 }).group_count(),
            2
        );
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = sample_table(GroupPolicy::RowStore);
        let err = t.insert(vec![Value::Int(3), Value::text("dup"), Value::Empty]);
        assert!(matches!(err, Err(DsError::KeyViolation(_))));
        assert_eq!(t.row_count(), 10);
    }

    #[test]
    fn key_lookup_by_pk() {
        let t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        let k = t.key_lookup(&KeyTuple(vec![Value::Int(7)])).unwrap();
        assert_eq!(t.get_row(k).unwrap()[1], Value::text("student7"));
        assert!(t.key_lookup(&KeyTuple(vec![Value::Int(99)])).is_none());
    }

    #[test]
    fn update_cell_changes_one_group() {
        let mut t = sample_table(GroupPolicy::ColumnStore);
        let key = t.key_at(0).unwrap();
        t.stats().reset();
        let old = t.update_cell(key, 2, Value::Float(55.5)).unwrap();
        assert_eq!(old, Value::Float(80.0));
        assert_eq!(t.get_row(key).unwrap()[2], Value::Float(55.5));
        // Only the score group's page was written.
        assert_eq!(t.stats().page_writes(), 1);
    }

    #[test]
    fn update_pk_cell_maintains_index() {
        let mut t = sample_table(GroupPolicy::RowStore);
        let key = t.key_at(0).unwrap();
        t.update_cell(key, 0, Value::Int(100)).unwrap();
        assert!(t.key_lookup(&KeyTuple(vec![Value::Int(0)])).is_none());
        assert_eq!(t.key_lookup(&KeyTuple(vec![Value::Int(100)])), Some(key));
        // Collision rejected.
        let err = t.update_cell(key, 0, Value::Int(5));
        assert!(matches!(err, Err(DsError::KeyViolation(_))));
    }

    #[test]
    fn delete_row_shifts_positions() {
        let mut t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        let key = t.key_at(4).unwrap();
        let pos = t.delete_row(key).unwrap();
        assert_eq!(pos, 4);
        assert_eq!(t.row_count(), 9);
        let next = t.key_at(4).unwrap();
        assert_eq!(t.get_row(next).unwrap()[0], Value::Int(5));
        assert!(t.get_row(key).is_err());
        assert!(t.key_lookup(&KeyTuple(vec![Value::Int(4)])).is_none());
    }

    #[test]
    fn positional_insert_between_rows() {
        let mut t = sample_table(GroupPolicy::RowStore);
        t.insert_at(5, vec![Value::Int(50), Value::text("middle"), Value::Empty])
            .unwrap();
        let k = t.key_at(5).unwrap();
        assert_eq!(t.get_row(k).unwrap()[1], Value::text("middle"));
        assert_eq!(t.row_count(), 11);
        // The previously-5th row moved to 6.
        let k6 = t.key_at(6).unwrap();
        assert_eq!(t.get_row(k6).unwrap()[0], Value::Int(5));
    }

    #[test]
    fn scan_window_matches_positions() {
        let t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        let rows = t.scan_window(3, 4).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].1[0], Value::Int(3));
        assert_eq!(rows[3].1[0], Value::Int(6));
    }

    #[test]
    fn add_column_lazy_under_hybrid() {
        let mut t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        t.stats().reset();
        t.add_column(ColumnDef::new("grade", DataType::Text), Value::text("?"))
            .unwrap();
        // Zero data pages touched: the lazy-default group is empty.
        assert_eq!(
            t.stats().page_writes(),
            0,
            "hybrid ADD COLUMN touches no pages"
        );
        assert_eq!(t.schema().width(), 4);
        let key = t.key_at(2).unwrap();
        assert_eq!(t.get_row(key).unwrap()[3], Value::text("?"));
        // Writing one cell materializes one fragment.
        t.update_cell(key, 3, Value::text("A+")).unwrap();
        assert_eq!(t.get_row(key).unwrap()[3], Value::text("A+"));
        // Other rows still see the default.
        let other = t.key_at(0).unwrap();
        assert_eq!(t.get_row(other).unwrap()[3], Value::text("?"));
    }

    #[test]
    fn add_column_rewrites_under_rowstore() {
        let mut t = sample_table(GroupPolicy::RowStore);
        t.stats().reset();
        t.add_column(ColumnDef::new("grade", DataType::Text), Value::text("?"))
            .unwrap();
        assert!(t.stats().page_writes() > 0, "row store must rewrite");
        let key = t.key_at(2).unwrap();
        assert_eq!(t.get_row(key).unwrap()[3], Value::text("?"));
    }

    #[test]
    fn drop_column_sole_group_is_free() {
        let mut t = sample_table(GroupPolicy::ColumnStore);
        t.stats().reset();
        t.drop_column("score").unwrap();
        assert_eq!(
            t.stats().page_writes(),
            0,
            "dropping a whole group is metadata-only"
        );
        assert_eq!(t.schema().width(), 2);
        let key = t.key_at(0).unwrap();
        let row = t.get_row(key).unwrap();
        assert_eq!(row, vec![Value::Int(0), Value::text("student0")]);
    }

    #[test]
    fn drop_column_inside_group_rewrites_one_group() {
        let mut t = sample_table(GroupPolicy::RowStore);
        t.stats().reset();
        t.drop_column("name").unwrap();
        assert!(t.stats().page_writes() > 0);
        let key = t.key_at(1).unwrap();
        assert_eq!(
            t.get_row(key).unwrap(),
            vec![Value::Int(1), Value::Float(81.0)]
        );
        // pk still works after index shifts.
        assert_eq!(t.key_lookup(&KeyTuple(vec![Value::Int(1)])), Some(key));
        t.update_cell(key, 1, Value::Float(12.0)).unwrap();
        assert_eq!(t.get_row(key).unwrap()[1], Value::Float(12.0));
    }

    #[test]
    fn rename_column_metadata_only() {
        let mut t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        t.stats().reset();
        t.rename_column("score", "points").unwrap();
        assert_eq!(t.stats().page_writes(), 0);
        assert!(t.schema().index_of("points").is_some());
    }

    #[test]
    fn add_then_drop_column_round_trip() {
        let mut t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        t.add_column(ColumnDef::new("extra", DataType::Int), Value::Int(0))
            .unwrap();
        let key = t.key_at(0).unwrap();
        t.update_cell(key, 3, Value::Int(42)).unwrap();
        t.drop_column("extra").unwrap();
        assert_eq!(t.schema().width(), 3);
        assert_eq!(t.get_row(key).unwrap().len(), 3);
        // Surviving columns unaffected.
        assert_eq!(t.get_row(key).unwrap()[1], Value::text("student0"));
    }

    #[test]
    fn projection_reads_fewer_groups() {
        let mut t = Table::new(
            "wide",
            {
                let cols: Vec<ColumnDef> = (0..8)
                    .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int))
                    .collect();
                Schema::new(cols).unwrap()
            },
            GroupPolicy::Hybrid { max_group_width: 2 },
        );
        for r in 0..20 {
            t.insert((0..8).map(|c| Value::Int(r * 8 + c)).collect())
                .unwrap();
        }
        t.stats().reset();
        let full = t.scan().unwrap();
        let full_reads = t.stats().page_reads();
        t.stats().reset();
        let proj = t.scan_project(&[0]).unwrap();
        let proj_reads = t.stats().page_reads();
        assert_eq!(full.len(), proj.len());
        assert_eq!(proj[3].1, vec![Value::Int(24)]);
        assert!(
            proj_reads * 2 <= full_reads,
            "projection must read fewer pages: {proj_reads} vs {full_reads}"
        );
    }

    #[test]
    fn compact_repartitions() {
        let mut t = sample_table(GroupPolicy::RowStore);
        t.compact(GroupPolicy::ColumnStore).unwrap();
        assert_eq!(t.group_count(), 3);
        let key = t.key_at(9).unwrap();
        assert_eq!(t.get_row(key).unwrap()[1], Value::text("student9"));
        t.update_cell(key, 1, Value::text("renamed")).unwrap();
        assert_eq!(t.get_row(key).unwrap()[1], Value::text("renamed"));
    }

    #[test]
    fn update_row_replaces_everything() {
        let mut t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        let key = t.key_at(0).unwrap();
        t.update_row(
            key,
            vec![Value::Int(0), Value::text("zed"), Value::Float(1.0)],
        )
        .unwrap();
        assert_eq!(
            t.get_row(key).unwrap(),
            vec![Value::Int(0), Value::text("zed"), Value::Float(1.0)]
        );
    }

    #[test]
    fn many_rows_span_pages() {
        let mut t = Table::new("big", sample_schema(), GroupPolicy::RowStore);
        for i in 0..5000 {
            t.insert(vec![
                Value::Int(i),
                Value::text(format!("row-with-a-longish-name-{i}")),
                Value::Float(i as f64),
            ])
            .unwrap();
        }
        assert!(
            t.total_pages() > 10,
            "5000 rows must span many pages: {}",
            t.total_pages()
        );
        // Spot-check random access.
        let k = t.key_at(4321).unwrap();
        assert_eq!(t.get_row(k).unwrap()[0], Value::Int(4321));
        // Windowed scan near the end.
        let w = t.scan_window(4990, 20).unwrap();
        assert_eq!(w.len(), 10);
        assert_eq!(w[9].1[0], Value::Int(4999));
    }

    #[test]
    fn iter_rows_streams_in_presentation_order() {
        for policy in [
            GroupPolicy::RowStore,
            GroupPolicy::ColumnStore,
            GroupPolicy::Hybrid { max_group_width: 2 },
        ] {
            let t = sample_table(policy);
            let streamed: Vec<_> = t.iter_rows().map(|r| r.unwrap()).collect();
            assert_eq!(streamed, t.scan().unwrap(), "{policy:?}");
        }
    }

    #[test]
    fn iter_rows_sparse_reads_fewer_pages_full_width() {
        let mut t = Table::new(
            "wide",
            {
                let cols: Vec<ColumnDef> = (0..8)
                    .map(|i| ColumnDef::new(format!("c{i}"), DataType::Int))
                    .collect();
                Schema::new(cols).unwrap()
            },
            GroupPolicy::Hybrid { max_group_width: 2 },
        );
        for r in 0..50 {
            t.insert((0..8).map(|c| Value::Int(r * 8 + c)).collect())
                .unwrap();
        }
        t.stats().reset();
        let full: Vec<_> = t.iter_rows().map(|r| r.unwrap()).collect();
        let full_reads = t.stats().page_reads();
        t.stats().reset();
        let sparse: Vec<_> = t.iter_rows_sparse(Some(&[1])).map(|r| r.unwrap()).collect();
        let sparse_reads = t.stats().page_reads();
        assert!(
            sparse_reads * 2 <= full_reads,
            "sparse scan must read fewer pages: {sparse_reads} vs {full_reads}"
        );
        // Full width; the requested column's whole group (cols 0–1) is
        // populated, groups that were never read stay Empty.
        assert_eq!(sparse[3].1.len(), 8);
        assert_eq!(sparse[3].1[1], full[3].1[1]);
        assert_eq!(sparse[3].1[0], full[3].1[0]);
        assert_eq!(sparse[3].1[2], Value::Empty);
        assert_eq!(sparse[3].1[7], Value::Empty);
    }

    #[test]
    fn fragment_too_large_rejected() {
        let mut t = Table::new(
            "blob",
            Schema::new(vec![ColumnDef::new("t", DataType::Text)]).unwrap(),
            GroupPolicy::RowStore,
        );
        let huge = "x".repeat(PAGE_SIZE);
        assert!(t.insert(vec![Value::text(huge)]).is_err());
    }

    #[test]
    fn snapshot_matches_table_state() {
        for policy in [
            GroupPolicy::RowStore,
            GroupPolicy::ColumnStore,
            GroupPolicy::Hybrid { max_group_width: 2 },
        ] {
            let t = sample_table(policy);
            let s = t.snapshot();
            assert_eq!(s.row_count(), 10);
            assert_eq!(s.name(), "students");
            assert_eq!(s.scan().unwrap(), t.scan().unwrap(), "{policy:?}");
            let k = s.key_at(3).unwrap();
            assert_eq!(s.get_row(k).unwrap(), t.get_row(k).unwrap());
            assert_eq!(s.scan_window(2, 4).unwrap(), t.scan_window(2, 4).unwrap());
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        let s = t.snapshot();
        let before = s.scan().unwrap();
        // Mutate every page-touching path: update, delete, insert, DDL.
        let k0 = t.key_at(0).unwrap();
        t.update_cell(k0, 1, Value::text("changed")).unwrap();
        t.delete_row(t.key_at(5).unwrap()).unwrap();
        t.insert(vec![Value::Int(77), Value::text("new"), Value::Empty])
            .unwrap();
        t.add_column(ColumnDef::new("extra", DataType::Int), Value::Int(9))
            .unwrap();
        // The snapshot still sees the exact pre-write state.
        assert_eq!(s.scan().unwrap(), before);
        assert_eq!(s.row_count(), 10);
        assert_eq!(s.get_row(k0).unwrap()[1], Value::text("student0"));
        assert_eq!(s.schema().width(), 3);
        // The table sees the new state.
        assert_eq!(t.row_count(), 10);
        assert_eq!(t.get_row(k0).unwrap()[1], Value::text("changed"));
        assert!(t.version() > s.version());
    }

    #[test]
    fn snapshot_sparse_iter_matches_table_sparse_iter() {
        let t = sample_table(GroupPolicy::Hybrid { max_group_width: 2 });
        let s = t.snapshot();
        let snap_rows: Vec<_> = s.into_iter_sparse(Some(&[2])).map(|r| r.unwrap()).collect();
        let table_rows: Vec<_> = t.iter_rows_sparse(Some(&[2])).map(|r| r.unwrap()).collect();
        assert_eq!(snap_rows, table_rows);
    }

    /// Encode `t` into a fresh in-memory page file and decode it back.
    fn snapshot_round_trip(t: &Table) -> DsResult<Table> {
        let vfs: Arc<dyn crate::vfs::Vfs> = Arc::new(crate::vfs::FaultVfs::default());
        let pager = PageFile::create_with(&vfs, "/data.dsp", 1).unwrap();
        let mut buf = Vec::new();
        t.encode_snapshot(&pager, &mut buf).unwrap();
        Table::decode_snapshot(&mut crate::codec::Cursor::new(&buf), &pager)
    }

    /// The key index a decode rebuilds from the key columns alone equals
    /// the one live DML maintained, for a composite key whose columns sit
    /// in different groups and not at the front of their fragments.
    #[test]
    fn decoded_pk_index_equals_the_live_one() {
        let schema = Schema::new(vec![
            ColumnDef::new("a", DataType::Int),
            ColumnDef::new("b", DataType::Text),
            ColumnDef::new("c", DataType::Float),
            ColumnDef::new("d", DataType::Int),
        ])
        .unwrap()
        .with_pkey(&["d", "a"])
        .unwrap();
        for policy in [
            GroupPolicy::RowStore,
            GroupPolicy::ColumnStore,
            GroupPolicy::Hybrid { max_group_width: 2 },
        ] {
            let mut t = Table::new("t", schema.clone(), policy);
            for i in 0..300i64 {
                t.insert(vec![
                    Value::Int(i % 17),
                    Value::text(format!("r{i}")),
                    Value::Float(i as f64),
                    Value::Int(i / 17),
                ])
                .unwrap();
            }
            for pos in [250, 100, 3] {
                t.delete_row(t.key_at(pos).unwrap()).unwrap();
            }
            let moved = t.key_at(40).unwrap();
            t.update_cell(moved, 3, Value::Int(1000)).unwrap();
            t.insert_at(
                7,
                vec![Value::Int(-1), Value::Empty, Value::Empty, Value::Int(-1)],
            )
            .unwrap();
            let back = snapshot_round_trip(&t).unwrap();
            assert_eq!(back.pk_index, t.pk_index, "{policy:?}");
            assert_eq!(back.pk_index.len(), t.row_count(), "{policy:?}");
        }
    }

    /// A snapshot whose rows repeat a primary key fails to decode.
    #[test]
    fn duplicate_primary_key_in_a_snapshot_is_a_storage_error() {
        for policy in [GroupPolicy::RowStore, GroupPolicy::ColumnStore] {
            let mut t = sample_table(policy);
            // Rewrite row 5's key column to row 2's behind the index's back.
            let (g, off) = t.col_group[0];
            let key = t.key_at(5).unwrap();
            let mut frag = t.read_fragment(g, key).unwrap();
            frag[off] = Value::Int(2);
            t.write_fragment(g, key, &frag).unwrap();
            let err = snapshot_round_trip(&t).unwrap_err();
            assert!(
                matches!(&err, DsError::Storage(m) if m.contains("duplicate primary key")),
                "{policy:?}: {err:?}"
            );
        }
    }

    /// A crafted snapshot whose row-order, page or row-directory count is
    /// huge must fail as a truncated stream, not abort allocating for it.
    #[test]
    fn decode_snapshot_rejects_huge_counts() {
        use crate::codec::{encode_value, put_str, put_u16, put_u32, put_u64};
        let vfs: Arc<dyn crate::vfs::Vfs> = Arc::new(crate::vfs::FaultVfs::default());
        let pager = PageFile::create_with(&vfs, "/data.dsp", 1).unwrap();
        let schema = Schema::new(vec![ColumnDef::new("x", DataType::Int)]).unwrap();
        // `tail` picks which count is huge: 0 = order, 1 = pages, 2 = rowdir.
        for tail in 0..3 {
            let mut buf = Vec::new();
            put_str(&mut buf, "t");
            buf.push(0); // row store
            put_u64(&mut buf, 1); // next key
            put_u64(&mut buf, 0); // reserved
            schema.encode(&mut buf);
            if tail == 0 {
                put_u64(&mut buf, u64::MAX);
            } else {
                put_u64(&mut buf, 0);
                put_u16(&mut buf, 1); // one group
                put_u16(&mut buf, 1); // of one column
                put_u32(&mut buf, 0);
                encode_value(&mut buf, &Value::Empty);
                if tail == 1 {
                    put_u32(&mut buf, u32::MAX);
                } else {
                    put_u32(&mut buf, 0);
                    put_u32(&mut buf, u32::MAX);
                }
            }
            let mut cur = crate::codec::Cursor::new(&buf);
            let err = Table::decode_snapshot(&mut cur, &pager).unwrap_err();
            assert!(matches!(err, DsError::Storage(_)), "{err:?}");
        }
    }
}
