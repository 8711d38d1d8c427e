//! Table-bound sheet regions: the paper's §2.1 hybrid data models
//! (TOM/ROM/COM) as live two-way bindings.
//!
//! A binding attaches a rectangular sheet region to a catalog table so the
//! grid and the relation are two views of one store:
//!
//! * **sheet → table**: typing into a bound cell becomes WAL-logged DML on
//!   the backing table ([`dataspread_relstore::Table::update_cell`]);
//!   editing a TOM header cell
//!   renames the column; structural row/column edits *inside* the region
//!   become positional inserts/deletes (O(log n) via the table's counted
//!   B-tree) or schema changes instead of breaking the mapping.
//! * **table → sheet**: SQL DML/DDL against a bound table re-renders the
//!   region and invalidates dependent formulas through `calc`, so `=SUM`
//!   over a bound region recomputes after an `INSERT`. DML re-renders from
//!   its change set: an `UPDATE` only its rows, an `INSERT` or `DELETE`
//!   the rows from the first position it touched down to the region's
//!   end, so the cost is flat in the rows above. DDL, structural edits
//!   and unlogged catalog writes diff the region cell by cell. Either way
//!   untouched cells cost nothing downstream.
//!
//! The durable metadata ([`BindingMeta`]) lives in `relstore::binding`;
//! bindings ride checkpoints as a workbook-meta section and the WAL as
//! [`WalOp::BindCreate`]/[`WalOp::BindDrop`] records, so they survive
//! `save`/`open` and crash recovery. The *mirror cells* a binding renders
//! are never sheet-WAL-logged — they are derivable. A checkpoint records
//! which mirrors were current, and recovery re-renders those from the
//! replayed tail's change set and every other one from its recovered
//! table.
//!
//! Conflict rules (see `docs/BINDING.md` for the full matrix):
//!
//! * a bound cell cannot hold a formula — formula input into a binding is
//!   rejected;
//! * a bound region owns its rectangle: when it grows (table `INSERT`,
//!   `ADD COLUMN`) it overwrites the cells it grows over;
//! * deleting a TOM binding's header row drops the binding and clears the
//!   surviving mirror rows (the table keeps its non-overlapped rows);
//! * dropping the backing table (or its last displayed column) detaches the
//!   binding, freezing the last rendered values as plain literal cells
//!   (WAL-logged so the freeze is durable).

use dataspread_relstore::wal::WalOp;
use dataspread_relstore::{ChangeKind, ChangeSet, RowKey};
use dataspread_types::{col_to_letters, CellAddr, DataType, DsError, DsResult, Range, Value};

pub use dataspread_relstore::{BindModel, BindingMeta};

use crate::sheet::Sheet;
use crate::workbook::{SheetId, Workbook};

/// One live binding: the durable metadata plus the engine-side refresh
/// bookkeeping.
#[derive(Debug)]
pub(crate) struct Binding {
    pub meta: BindingMeta,
    /// The rectangle the last refresh rendered; cells in it but outside the
    /// current extent are cleared on the next refresh (region shrink).
    /// `None` right after a structural grid edit — the grid already moved
    /// the mirror cells, so there is nothing stale to clear.
    pub last_rect: Option<Range>,
    /// The backing table's [`Table::version`] the mirror last matched;
    /// refresh is skipped while it is unchanged.
    ///
    /// [`Table::version`]: dataspread_relstore::Table::version
    pub seen_version: u64,
}

impl Binding {
    /// The rectangle this binding's mirror cells currently occupy — what
    /// the checkpoint records so recovery can shrink-clear (falls back to
    /// the live extent right after a structural edit reset `last_rect`).
    pub(crate) fn rendered_rect(&self, wb: &Workbook) -> Option<Range> {
        self.last_rect.or_else(|| wb.meta_rect(&self.meta))
    }
}

/// The workbook's binding registry.
#[derive(Debug, Default)]
pub(crate) struct BindingRegistry {
    pub bindings: Vec<Binding>,
    /// Next binding id (ids are never reused).
    pub next_id: u64,
}

impl BindingRegistry {
    /// Adopt a binding (live creation or WAL/checkpoint replay), keeping
    /// `next_id` ahead of every id ever issued.
    pub fn register(&mut self, meta: BindingMeta) {
        self.next_id = self.next_id.max(meta.id + 1);
        self.bindings.push(Binding {
            meta,
            last_rect: None,
            seen_version: u64::MAX, // force the first refresh
        });
    }

    pub fn remove(&mut self, id: u64) -> Option<Binding> {
        let i = self.bindings.iter().position(|b| b.meta.id == id)?;
        Some(self.bindings.remove(i))
    }

    pub fn index_of(&self, id: u64) -> Option<usize> {
        self.bindings.iter().position(|b| b.meta.id == id)
    }

    /// `ADD COLUMN` on `table`: full-width models (TOM/ROM) gain the new
    /// column at their right edge; COM projections are unchanged. `except`
    /// skips the binding that is splicing the column at an explicit display
    /// position itself.
    pub fn on_column_added(&mut self, table: &str, idx: u32, except: Option<u64>) {
        for b in &mut self.bindings {
            if b.meta.table.eq_ignore_ascii_case(table)
                && Some(b.meta.id) != except
                && b.meta.model != BindModel::Com
                && !b.meta.cols.contains(&idx)
            {
                b.meta.cols.push(idx);
            }
        }
    }

    /// `DROP COLUMN` at schema index `idx` on `table`: every binding stops
    /// displaying it and later indices shift down. Returns the ids of
    /// bindings left with no columns — the caller detaches those.
    pub fn on_column_dropped(&mut self, table: &str, idx: u32) -> Vec<u64> {
        let mut emptied = Vec::new();
        for b in &mut self.bindings {
            if !b.meta.table.eq_ignore_ascii_case(table) {
                continue;
            }
            b.meta.cols.retain(|&c| c != idx);
            for c in &mut b.meta.cols {
                if *c > idx {
                    *c -= 1;
                }
            }
            if b.meta.cols.is_empty() {
                emptied.push(b.meta.id);
            }
        }
        emptied
    }
}

/// Deferred per-binding actions computed against pre-edit coordinates (a
/// structural edit plan). Keyed by binding id — bindings can be removed
/// while the plan is applied.
pub(crate) struct RowDeletePlan {
    id: u64,
    /// Table rows (by key) the deleted span covered.
    doomed: Vec<RowKey>,
    /// Drop the binding (its header row was deleted).
    unbind: bool,
    /// New anchor row (rows deleted above shifted it up).
    new_row: u32,
    /// Pre-edit rectangle (for clearing survivors when unbinding).
    rect: Option<Range>,
}

pub(crate) struct ColDeletePlan {
    id: u64,
    /// Schema column names to drop from the table (TOM/ROM partial overlap).
    drop_names: Vec<String>,
    /// Display slots to remove from `meta.cols` (COM partial overlap),
    /// in descending order.
    drop_slots: Vec<usize>,
    /// Drop the binding (the span covered its whole width).
    unbind: bool,
    /// New anchor column.
    new_col: u32,
}

impl Workbook {
    // ---- creation / removal ---------------------------------------------

    /// Bind a table to the region anchored at `at` on `sheet`, rendering it
    /// immediately. [`BindModel::Tom`] renders a header row of column names
    /// above the rows; [`BindModel::Rom`] renders the bare row set in
    /// positional order. For a column subset use
    /// [`Workbook::bind_table_cols`]. Returns the binding id.
    pub fn bind_table(
        &mut self,
        sheet: SheetId,
        at: CellAddr,
        table: &str,
        model: BindModel,
    ) -> DsResult<u64> {
        if model == BindModel::Com {
            return Err(DsError::Interface(
                "COM bindings select columns; use bind_table_cols".into(),
            ));
        }
        let width = self.catalog.get(table)?.schema().width();
        let cols: Vec<u32> = (0..width as u32).collect();
        self.bind_with_cols(sheet, at, table, model, cols)
    }

    /// Bind selected columns of a table ([`BindModel::Com`]): the region
    /// displays `col_names` in the given order, headerless.
    pub fn bind_table_cols(
        &mut self,
        sheet: SheetId,
        at: CellAddr,
        table: &str,
        col_names: &[&str],
    ) -> DsResult<u64> {
        let t = self.catalog.get(table)?;
        let mut cols = Vec::with_capacity(col_names.len());
        for n in col_names {
            let i = t
                .schema()
                .index_of(n)
                .ok_or_else(|| DsError::ColumnNotFound((*n).to_string()))?;
            if cols.contains(&(i as u32)) {
                return Err(DsError::Interface(format!("column `{n}` listed twice")));
            }
            cols.push(i as u32);
        }
        drop(t);
        self.bind_with_cols(sheet, at, table, BindModel::Com, cols)
    }

    fn bind_with_cols(
        &mut self,
        sheet: SheetId,
        at: CellAddr,
        table: &str,
        model: BindModel,
        cols: Vec<u32>,
    ) -> DsResult<u64> {
        self.ensure_writable()?;
        if cols.is_empty() {
            return Err(DsError::Interface(
                "a binding needs at least one column".into(),
            ));
        }
        let t = self.catalog.get(table)?;
        let table = t.name().to_string(); // canonical casing
        drop(t);
        let sheet_name = self.sheets[sheet.0].name().to_string();
        let meta = BindingMeta {
            id: self.bindings.next_id,
            sheet: sheet_name,
            table,
            row: at.row,
            col: at.col,
            model,
            cols,
        };
        // Reject overlap with another binding's current rectangle (regions
        // that later grow into each other are a documented hazard, not an
        // error).
        if let Some(rect) = self.meta_rect(&meta) {
            for b in &self.bindings.bindings {
                if b.meta
                    .sheet
                    .eq_ignore_ascii_case(self.sheets[sheet.0].name())
                {
                    if let Some(other) = self.meta_rect(&b.meta) {
                        if rect.intersects(&other) {
                            return Err(DsError::Interface(format!(
                                "region {} overlaps binding {}",
                                rect.to_a1(),
                                b.meta.id
                            )));
                        }
                    }
                }
            }
        }
        if let Some(store) = &self.store {
            store.wal.log(WalOp::BindCreate { meta: meta.clone() })?;
        }
        let id = meta.id;
        self.edit(|wb| {
            wb.bindings.register(meta);
            let i = wb.bindings.bindings.len() - 1;
            wb.refresh_binding_slot(i, true, None)
        })?;
        Ok(id)
    }

    /// Remove a binding, freezing the region's current values as plain
    /// literal cells (WAL-logged when durable, so the freeze survives a
    /// crash). The backing table is untouched.
    pub fn unbind(&mut self, id: u64) -> DsResult<()> {
        self.ensure_writable()?;
        let i = self
            .bindings
            .index_of(id)
            .ok_or_else(|| DsError::Interface(format!("no binding {id}")))?;
        self.edit(|wb| wb.detach_binding_keep_values(i))
    }

    /// Every binding id, in creation order.
    pub fn binding_ids(&self) -> Vec<u64> {
        self.bindings.bindings.iter().map(|b| b.meta.id).collect()
    }

    /// The durable metadata of a binding.
    pub fn binding_meta(&self, id: u64) -> Option<BindingMeta> {
        self.bindings
            .index_of(id)
            .map(|i| self.bindings.bindings[i].meta.clone())
    }

    /// The rectangle a binding currently covers (`None` for a headerless
    /// binding over an empty table, or when the table is gone).
    pub fn binding_rect(&self, id: u64) -> Option<Range> {
        let i = self.bindings.index_of(id)?;
        self.meta_rect(&self.bindings.bindings[i].meta)
    }

    /// The binding whose region contains `addr` on `sheet`, if any.
    pub fn binding_at(&self, sheet: SheetId, addr: CellAddr) -> Option<u64> {
        self.binding_index_at(sheet, addr)
            .map(|i| self.bindings.bindings[i].meta.id)
    }

    // ---- geometry --------------------------------------------------------

    /// The rectangle `meta` currently covers, derived live from the backing
    /// table (height = header + row count, width = displayed columns).
    pub(crate) fn meta_rect(&self, meta: &BindingMeta) -> Option<Range> {
        let t = self.catalog.get(&meta.table).ok()?;
        let height = t.row_count() as u32 + meta.model.has_header() as u32;
        let width = meta.cols.len() as u32;
        if height == 0 || width == 0 {
            return None;
        }
        Some(Range::from_bounds(
            meta.row,
            meta.col,
            meta.row + height - 1,
            meta.col + width - 1,
        ))
    }

    pub(crate) fn binding_index_at(&self, sheet: SheetId, addr: CellAddr) -> Option<usize> {
        let name = self.sheets[sheet.0].name();
        self.bindings.bindings.iter().position(|b| {
            b.meta.sheet.eq_ignore_ascii_case(name)
                && self.meta_rect(&b.meta).is_some_and(|r| r.contains(addr))
        })
    }

    fn sheet_index(&self, name: &str) -> Option<usize> {
        self.by_name.get(&name.to_ascii_lowercase()).copied()
    }

    // ---- sheet → table: routed cell edits --------------------------------

    /// Write one value into a bound cell: a data cell becomes
    /// `UPDATE`-one-attribute DML on the backing table (WAL-logged, schema-
    /// conformed — the grid then displays the conformed value); a TOM header
    /// cell renames the column. Returns the previously displayed value.
    /// The caller flushes the grid.
    pub(crate) fn bound_set_value(
        &mut self,
        bi: usize,
        sheet: SheetId,
        addr: CellAddr,
        v: Value,
    ) -> DsResult<Value> {
        let meta = self.bindings.bindings[bi].meta.clone();
        let old = self.sheets[sheet.0].value(addr);
        let slot = (addr.col - meta.col) as usize;
        let ci = meta.cols[slot] as usize;
        if meta.model.has_header() && addr.row == meta.row {
            // Header edit = RENAME COLUMN.
            let new_name = match &v {
                Value::Text(s) if !s.trim().is_empty() => s.trim().to_string(),
                _ => {
                    return Err(DsError::Interface(
                        "a bound header cell needs a non-empty text name".into(),
                    ))
                }
            };
            let mut t = self.catalog.get_mut(&meta.table)?;
            let old_name = t.schema().column(ci).name.clone();
            if !old_name.eq_ignore_ascii_case(&new_name) {
                t.rename_column(&old_name, &new_name)?;
            }
            drop(t);
            self.refresh_binding_slot(bi, true, None)?;
            // A rename is DDL: schema changes persist via checkpoint.
            if self.store.is_some() {
                self.checkpoint()?;
            }
            return Ok(old);
        }
        let pos = (addr.row - meta.row) as usize - meta.model.has_header() as usize;
        let mut t = self.catalog.get_mut(&meta.table)?;
        let key = t.key_at(pos).ok_or_else(|| {
            DsError::Interface(format!("bound row {pos} is gone from `{}`", meta.table))
        })?;
        t.update_cell(key, ci, v)?;
        // Fast path: the edit touched exactly one cell — mirror the
        // conformed value directly instead of re-rendering the region.
        let conformed = t.get_row_project(key, &[ci])?.swap_remove(0);
        let version = t.version();
        drop(t);
        self.sheets[sheet.0].write_bound(addr, conformed);
        let own = &mut self.bindings.bindings[bi];
        let own_id = own.meta.id;
        // The mirror matches the table again if it did before the edit. A
        // binding already behind (direct catalog writes not yet synced)
        // catches up in full, which also records the extent it now shows.
        if own.seen_version.checked_add(1) == Some(version) {
            own.seen_version = version;
        } else {
            self.refresh_binding_slot(bi, false, None)?;
        }
        // Sibling bindings displaying the same table saw the DML too: it
        // is one row rewritten in place, so they re-render that row (and
        // fall back to a diff if they were already behind).
        let mut edited = ChangeSet::default();
        edited.push(&meta.table, ChangeKind::Update, key, pos);
        for id in self.binding_ids() {
            if id == own_id {
                continue;
            }
            if let Some(j) = self.bindings.index_of(id) {
                if self.bindings.bindings[j]
                    .meta
                    .table
                    .eq_ignore_ascii_case(&meta.table)
                {
                    self.refresh_binding_slot(j, false, Some(&edited))?;
                }
            }
        }
        Ok(old)
    }

    // ---- structural edits over bindings ----------------------------------

    /// Row insertion on a sheet: bindings anchored at or below `at` shift
    /// down; an insertion *inside* a binding's data rows becomes `count`
    /// positional inserts of empty tuples (O(log n) each). Called after the
    /// grid op; `validate_insert_rows` ran before it.
    pub(crate) fn bindings_after_insert_rows(
        &mut self,
        sheet: usize,
        at: u32,
        count: u32,
    ) -> DsResult<()> {
        let name = self.sheets[sheet].name().to_string();
        // One grid-row insert maps to ONE positional insert per backing
        // table, even when several bindings of that table contain the edit
        // — the first (oldest) containing binding translates, siblings
        // just re-render.
        let mut translated: std::collections::HashSet<String> = std::collections::HashSet::new();
        for id in self.binding_ids() {
            let Some(i) = self.bindings.index_of(id) else {
                continue;
            };
            let meta = self.bindings.bindings[i].meta.clone();
            if !meta.sheet.eq_ignore_ascii_case(&name) {
                continue;
            }
            let mut t = match self.catalog.get_mut(&meta.table) {
                Ok(t) => t,
                Err(_) => continue, // vanished table: sync_bindings detaches
            };
            let data_start = meta.row + meta.model.has_header() as u32;
            let data_end = data_start + t.row_count() as u32;
            if at <= meta.row {
                self.bindings.bindings[i].meta.row += count;
            } else if at >= data_start
                && at < data_end
                && translated.insert(meta.table.to_ascii_lowercase())
            {
                let pos = (at - data_start) as usize;
                let width = t.schema().width();
                for _ in 0..count {
                    t.insert_at(pos, vec![Value::Empty; width])?;
                }
            }
            self.bindings.bindings[i].last_rect = None;
        }
        self.refresh_sheet_bindings(sheet)
    }

    /// Pre-validate a row insertion: an insertion inside a binding needs the
    /// backing schema to accept an all-NULL tuple (`NOT NULL` columns make
    /// the structural edit fail *before* the grid is touched).
    pub(crate) fn validate_insert_rows(&self, sheet: usize, at: u32) -> DsResult<()> {
        let name = self.sheets[sheet].name();
        for b in &self.bindings.bindings {
            if !b.meta.sheet.eq_ignore_ascii_case(name) {
                continue;
            }
            let Ok(t) = self.catalog.get(&b.meta.table) else {
                continue;
            };
            let data_start = b.meta.row + b.meta.model.has_header() as u32;
            let data_end = data_start + t.row_count() as u32;
            if at > b.meta.row && at >= data_start && at < data_end {
                t.schema()
                    .conform_row(vec![Value::Empty; t.schema().width()])
                    .map_err(|e| {
                        DsError::Interface(format!(
                            "cannot insert rows inside binding {}: {e}",
                            b.meta.id
                        ))
                    })?;
            }
        }
        Ok(())
    }

    /// Plan a row deletion against pre-edit coordinates: which table rows
    /// the span covers, whether the binding dies with its header, and where
    /// the anchor lands.
    pub(crate) fn plan_delete_rows(&self, sheet: usize, at: u32, count: u32) -> Vec<RowsPlan> {
        let name = self.sheets[sheet].name();
        let span_end = at.saturating_add(count);
        let mut plans = Vec::new();
        for b in &self.bindings.bindings {
            if !b.meta.sheet.eq_ignore_ascii_case(name) {
                continue;
            }
            let Ok(t) = self.catalog.get(&b.meta.table) else {
                continue;
            };
            let header = b.meta.model.has_header();
            let data_start = b.meta.row + header as u32;
            let data_end = data_start + t.row_count() as u32;
            let lo = at.max(data_start);
            let hi = span_end.min(data_end);
            let doomed = if lo < hi {
                ((lo - data_start) as usize..(hi - data_start) as usize)
                    .filter_map(|p| t.key_at(p))
                    .collect()
            } else {
                Vec::new()
            };
            let unbind = header && b.meta.row >= at && b.meta.row < span_end;
            let deleted_above = span_end.min(b.meta.row).saturating_sub(at.min(b.meta.row));
            plans.push(RowsPlan {
                inner: RowDeletePlan {
                    id: b.meta.id,
                    doomed,
                    unbind,
                    new_row: b.meta.row - deleted_above,
                    rect: self.meta_rect(&b.meta),
                },
                span: (at, count),
            });
        }
        plans
    }

    /// Apply a row-deletion plan after the grid op: positional deletes on
    /// the backing tables, anchor shifts, and header-loss unbinds (which
    /// clear the surviving mirror rows — deleting the header deletes the
    /// bound *view*; non-overlapped rows stay in the table).
    pub(crate) fn apply_delete_rows_plan(
        &mut self,
        sheet: usize,
        plans: Vec<RowsPlan>,
    ) -> DsResult<()> {
        for plan in plans {
            let RowDeletePlan {
                id,
                doomed,
                unbind,
                new_row,
                rect,
            } = plan.inner;
            let (at, count) = plan.span;
            let Some(i) = self.bindings.index_of(id) else {
                continue;
            };
            let table = self.bindings.bindings[i].meta.table.clone();
            if let Ok(mut t) = self.catalog.get_mut(&table) {
                for key in doomed {
                    // Two bindings of one table can doom the same key;
                    // delete it once.
                    if t.position_of(key).is_some() {
                        t.delete_row(key)?;
                    }
                }
            }
            if unbind {
                // Clear what survived the grid delete: pre-edit rect rows
                // outside the span, at their post-shift positions.
                if let Some(r) = rect {
                    let width = r.width();
                    for row in r.start.row..=r.end.row {
                        if row >= at && row < at + count {
                            continue; // deleted by the grid op
                        }
                        let new_r = if row >= at + count { row - count } else { row };
                        for dc in 0..width {
                            let addr = CellAddr::new(new_r, r.start.col + dc);
                            if !self.sheets[sheet].value(addr).is_empty() {
                                self.sheets[sheet].write_bound(addr, Value::Empty);
                            }
                        }
                    }
                }
                self.drop_binding_logged(id)?;
            } else {
                let b = &mut self.bindings.bindings[i];
                b.meta.row = new_row;
                b.last_rect = None;
            }
        }
        self.refresh_sheet_bindings(sheet)
    }

    /// Column insertion: bindings anchored at or right of `at` shift; an
    /// insertion *inside* a binding's columns becomes `ADD COLUMN` on the
    /// backing table (typed [`DataType::Any`], lazily defaulted — zero data
    /// pages touched under the hybrid layout), spliced into the display
    /// order at the inserted position. Schema changes checkpoint when the
    /// workbook is durable.
    pub(crate) fn bindings_after_insert_cols(
        &mut self,
        sheet: usize,
        at: u32,
        count: u32,
    ) -> DsResult<()> {
        let name = self.sheets[sheet].name().to_string();
        let mut schema_changed = false;
        // As with row inserts: one grid-column insert adds columns to a
        // backing table once, through the first containing binding.
        let mut translated: std::collections::HashSet<String> = std::collections::HashSet::new();
        for id in self.binding_ids() {
            let Some(i) = self.bindings.index_of(id) else {
                continue;
            };
            let meta = self.bindings.bindings[i].meta.clone();
            if !meta.sheet.eq_ignore_ascii_case(&name) {
                continue;
            }
            let width = meta.cols.len() as u32;
            if at <= meta.col {
                self.bindings.bindings[i].meta.col += count;
            } else if at < meta.col + width && translated.insert(meta.table.to_ascii_lowercase()) {
                if self.catalog.get(&meta.table).is_err() {
                    continue;
                }
                for k in 0..count {
                    let idx = {
                        let mut t = self.catalog.get_mut(&meta.table)?;
                        let col_name = fresh_column_name(t.schema(), at + k);
                        t.add_column(
                            dataspread_relstore::ColumnDef::new(col_name, DataType::Any),
                            Value::Empty,
                        )?;
                        (t.schema().width() - 1) as u32
                    };
                    self.bindings.bindings[i]
                        .meta
                        .cols
                        .insert((at - meta.col + k) as usize, idx);
                    // Sibling full-width bindings gain it at their edge.
                    self.bindings
                        .on_column_added(&meta.table, idx, Some(meta.id));
                    schema_changed = true;
                }
            }
            self.bindings.bindings[i].last_rect = None;
        }
        self.refresh_sheet_bindings(sheet)?;
        if schema_changed && self.store.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    /// Plan a column deletion: which table columns the span covers per
    /// binding, full-cover unbinds, and anchor shifts.
    pub(crate) fn plan_delete_cols(&self, sheet: usize, at: u32, count: u32) -> Vec<ColDeletePlan> {
        let name = self.sheets[sheet].name();
        let span_end = at.saturating_add(count);
        let mut plans = Vec::new();
        for b in &self.bindings.bindings {
            if !b.meta.sheet.eq_ignore_ascii_case(name) {
                continue;
            }
            let Ok(t) = self.catalog.get(&b.meta.table) else {
                continue;
            };
            let width = b.meta.cols.len() as u32;
            let lo = at.max(b.meta.col);
            let hi = span_end.min(b.meta.col + width);
            let deleted_left = span_end.min(b.meta.col).saturating_sub(at.min(b.meta.col));
            if lo >= hi {
                plans.push(ColDeletePlan {
                    id: b.meta.id,
                    drop_names: Vec::new(),
                    drop_slots: Vec::new(),
                    unbind: false,
                    new_col: b.meta.col - deleted_left,
                });
                continue;
            }
            if lo == b.meta.col && hi == b.meta.col + width {
                // The whole region is going away: detach, keep the table.
                plans.push(ColDeletePlan {
                    id: b.meta.id,
                    drop_names: Vec::new(),
                    drop_slots: Vec::new(),
                    unbind: true,
                    new_col: b.meta.col,
                });
                continue;
            }
            let slots: Vec<usize> = ((lo - b.meta.col) as usize..(hi - b.meta.col) as usize)
                .rev()
                .collect();
            let (drop_names, drop_slots) = if b.meta.model == BindModel::Com {
                // A COM binding is a projection: deleting a display column
                // narrows the view, the table keeps the data.
                (Vec::new(), slots)
            } else {
                (
                    slots
                        .iter()
                        .map(|&s| t.schema().column(b.meta.cols[s] as usize).name.clone())
                        .collect(),
                    Vec::new(),
                )
            };
            plans.push(ColDeletePlan {
                id: b.meta.id,
                drop_names,
                drop_slots,
                unbind: false,
                new_col: b.meta.col - deleted_left,
            });
        }
        plans
    }

    /// Apply a column-deletion plan after the grid op: TOM/ROM overlaps drop
    /// the table columns (`DROP COLUMN`), COM overlaps narrow the
    /// projection, full covers detach. Schema changes checkpoint when
    /// durable.
    pub(crate) fn apply_delete_cols_plan(
        &mut self,
        sheet: usize,
        plans: Vec<ColDeletePlan>,
    ) -> DsResult<()> {
        let mut schema_changed = false;
        for plan in plans {
            let Some(i) = self.bindings.index_of(plan.id) else {
                continue;
            };
            if plan.unbind {
                // The grid op already deleted the region's cells.
                self.drop_binding_logged(plan.id)?;
                continue;
            }
            let table = self.bindings.bindings[i].meta.table.clone();
            for name in &plan.drop_names {
                let idx = {
                    let mut t = self.catalog.get_mut(&table)?;
                    let idx = t
                        .schema()
                        .index_of(name)
                        .ok_or_else(|| DsError::ColumnNotFound(name.clone()))?
                        as u32;
                    t.drop_column(name)?;
                    idx
                };
                let emptied = self.bindings.on_column_dropped(&table, idx);
                for id in emptied {
                    // A sibling binding lost its last column: its cells
                    // were NOT touched by this sheet's grid op — clear them.
                    self.detach_binding_clear(id)?;
                }
                schema_changed = true;
            }
            if let Some(i) = self.bindings.index_of(plan.id) {
                let b = &mut self.bindings.bindings[i];
                for &s in &plan.drop_slots {
                    b.meta.cols.remove(s);
                }
                b.meta.col = plan.new_col;
                b.last_rect = None;
                if b.meta.cols.is_empty() {
                    let id = b.meta.id;
                    self.drop_binding_logged(id)?;
                }
            }
        }
        self.refresh_sheet_bindings(sheet)?;
        if schema_changed && self.store.is_some() {
            self.checkpoint()?;
        }
        Ok(())
    }

    // ---- table → sheet: refresh ------------------------------------------

    /// Fold table-side changes into the grid: detach bindings whose table
    /// vanished (freezing their last rendered values), then re-render every
    /// binding whose table version or extent changed, and recompute the
    /// formulas watching the re-rendered cells.
    pub fn sync_bindings(&mut self) -> DsResult<()> {
        self.edit(|wb| wb.refresh_bindings(None))
    }

    /// The body of [`Workbook::sync_bindings`], for callers already inside
    /// the write boundary (the post-statement hook of
    /// [`Workbook::execute`], positional DML) and for `open`. `changes` is
    /// the statement's (or the replayed tail's) change set, when it has
    /// one: bindings it covers re-render from it (see
    /// [`Workbook::refresh_binding_slot`]).
    pub(crate) fn refresh_bindings(&mut self, changes: Option<&ChangeSet>) -> DsResult<()> {
        // Pass 1: tables that no longer exist.
        let orphaned: Vec<u64> = self
            .bindings
            .bindings
            .iter()
            .filter(|b| self.catalog.get(&b.meta.table).is_err())
            .map(|b| b.meta.id)
            .collect();
        for id in orphaned {
            if let Some(i) = self.bindings.index_of(id) {
                self.detach_binding_keep_values(i)?;
            }
        }
        // Pass 2: refresh what changed. Iterate by id — a refresh can
        // detach a binding with stale metadata, shifting indices.
        for id in self.binding_ids() {
            if let Some(i) = self.bindings.index_of(id) {
                self.refresh_binding_slot(i, false, changes)?;
            }
        }
        Ok(())
    }

    /// Refresh every binding on one sheet (structural-edit epilogue).
    fn refresh_sheet_bindings(&mut self, sheet: usize) -> DsResult<()> {
        let name = self.sheets[sheet].name().to_string();
        for id in self.binding_ids() {
            if let Some(i) = self.bindings.index_of(id) {
                if self.bindings.bindings[i]
                    .meta
                    .sheet
                    .eq_ignore_ascii_case(&name)
                {
                    self.refresh_binding_slot(i, true, None)?;
                }
            }
        }
        Ok(())
    }

    /// Re-render one binding and record the matched table version. Only
    /// genuinely changed cells are written and marked dirty, so formula
    /// invalidation stays incremental. Skips entirely when the table
    /// version and extent are unchanged (unless `force`).
    ///
    /// The **change-set path** applies when `changes` covers this binding's
    /// table, every version bump since the last render is one of its
    /// entries (`seen_version + entries == version`), and the rectangle
    /// kept its anchor and width. Rows above the first position an insert
    /// or delete touched have not moved, so of those only the updated rows
    /// re-render. From that position down the region is diffed against the
    /// table in one pass, and the rows the region shrank away from are
    /// cleared. The cost is linear in the rows at and below the first
    /// touched position and flat in the rows above; an `UPDATE` renders
    /// just its rows. Anything else — `force`, DDL, structural edits,
    /// version jumps from direct catalog access, a failed statement — takes
    /// the **region diff**: the header and the whole table are compared
    /// into the region's cells, and cells the region shrank away from are
    /// cleared.
    pub(crate) fn refresh_binding_slot(
        &mut self,
        i: usize,
        force: bool,
        changes: Option<&ChangeSet>,
    ) -> DsResult<()> {
        let (meta, last_rect, seen) = {
            let b = &self.bindings.bindings[i];
            (b.meta.clone(), b.last_rect, b.seen_version)
        };
        let Some(sheet_idx) = self.sheet_index(&meta.sheet) else {
            return Err(DsError::Interface(format!(
                "binding {} names unknown sheet `{}`",
                meta.id, meta.sheet
            )));
        };
        // Stale column indices (e.g. direct catalog DDL bypassed the hooks):
        // treat as an orphaned binding rather than panicking.
        let stale = {
            let t = self.catalog.get(&meta.table)?;
            meta.cols.iter().any(|&c| c as usize >= t.schema().width())
        };
        if stale {
            return self.detach_binding_keep_values(i);
        }
        let t = self.catalog.get(&meta.table)?;
        let version = t.version();
        let header = meta.model.has_header();
        let height = t.row_count() as u32 + header as u32;
        let width = meta.cols.len() as u32;
        let rect = if height == 0 {
            None
        } else {
            Some(Range::from_bounds(
                meta.row,
                meta.col,
                meta.row + height - 1,
                meta.col + width - 1,
            ))
        };
        if !force && version == seen && rect == last_rect {
            return Ok(());
        }
        self.obs.bind_refreshes.bump();
        let mut diffed: u64 = 0;
        let cols: Vec<usize> = meta.cols.iter().map(|&c| c as usize).collect();
        let sheet = &mut self.sheets[sheet_idx];
        let data_start = meta.row + header as u32;
        let delta = changes
            .filter(|_| !force)
            .and_then(|c| c.for_table(&meta.table))
            .filter(|entries| seen.checked_add(entries.len() as u64) == Some(version))
            .zip(last_rect.zip(rect))
            .filter(|(_, (old, new))| old.start == new.start && old.width() == new.width());
        if let Some((entries, (old, new))) = delta {
            let first = (entries.iter())
                .filter(|e| e.kind != ChangeKind::Update)
                .map(|e| e.pos)
                .min()
                .unwrap_or(usize::MAX);
            // Above `first` no row moved: re-render the updated ones where
            // they stand.
            for e in entries.iter().filter(|e| e.pos < first) {
                let row = t.get_row_project(e.key, &cols)?;
                for (slot, v) in row.iter().enumerate() {
                    let addr = CellAddr::new(data_start + e.pos as u32, meta.col + slot as u32);
                    diffed += render(sheet, addr, v);
                }
            }
            for (off, item) in t.iter_rows_sparse_from(first, Some(&cols)).enumerate() {
                let (_, row) = item?;
                let r = data_start + (first + off) as u32;
                for (slot, &ci) in cols.iter().enumerate() {
                    diffed += render(sheet, CellAddr::new(r, meta.col + slot as u32), &row[ci]);
                }
            }
            // Shrink: clear the rows the region vacated below its end.
            for r in new.end.row + 1..=old.end.row {
                for c in old.start.col..=old.end.col {
                    diffed += render(sheet, CellAddr::new(r, c), &Value::Empty);
                }
            }
        } else {
            if header {
                for (slot, &ci) in cols.iter().enumerate() {
                    let addr = CellAddr::new(meta.row, meta.col + slot as u32);
                    let v = Value::text(t.schema().column(ci).name.clone());
                    diffed += render(sheet, addr, &v);
                }
            }
            for (pos, item) in t.iter_rows_sparse(Some(&cols)).enumerate() {
                let (_, row) = item?;
                for (slot, &ci) in cols.iter().enumerate() {
                    let addr = CellAddr::new(data_start + pos as u32, meta.col + slot as u32);
                    diffed += render(sheet, addr, &row[ci]);
                }
            }
            // Shrink: clear cells the previous render covered but this one
            // does not.
            if let Some(old) = last_rect {
                for addr in old.iter_cells() {
                    if rect.is_none_or(|r| !r.contains(addr)) {
                        diffed += render(sheet, addr, &Value::Empty);
                    }
                }
            }
        }
        self.obs.bind_cells_diffed.add(diffed);
        let b = &mut self.bindings.bindings[i];
        b.last_rect = rect;
        b.seen_version = version;
        Ok(())
    }

    // ---- detach ----------------------------------------------------------

    /// Detach a binding and clear its last rendered cells (used when the
    /// view's source is gone — e.g. its last displayed column was dropped —
    /// and no grid op already removed the cells).
    pub(crate) fn detach_binding_clear(&mut self, id: u64) -> DsResult<()> {
        if let Some(i) = self.bindings.index_of(id) {
            let meta = self.bindings.bindings[i].meta.clone();
            let rect = self.bindings.bindings[i]
                .last_rect
                .or_else(|| self.meta_rect(&meta));
            if let (Some(rect), Some(si)) = (rect, self.sheet_index(&meta.sheet)) {
                for addr in rect.iter_cells() {
                    if !self.sheets[si].value(addr).is_empty() {
                        self.sheets[si].write_bound(addr, Value::Empty);
                    }
                }
            }
        }
        self.drop_binding_logged(id)
    }

    /// Drop a binding's registration and WAL-log the drop. The region's
    /// cells are left exactly as they are.
    fn drop_binding_logged(&mut self, id: u64) -> DsResult<()> {
        if self.bindings.remove(id).is_some() {
            if let Some(store) = &self.store {
                store.wal.log(WalOp::BindDrop { id })?;
            }
        }
        Ok(())
    }

    /// Detach a binding, freezing the last rendered values as plain literal
    /// cells. Mirror cells are never sheet-WAL-logged (they are derivable
    /// while the binding lives), so the freeze re-logs them as ordinary
    /// cell writes — after a crash, recovery sees literal cells instead of
    /// a binding.
    fn detach_binding_keep_values(&mut self, i: usize) -> DsResult<()> {
        let id = self.bindings.bindings[i].meta.id;
        let meta = self.bindings.bindings[i].meta.clone();
        let rect = self
            .meta_rect(&meta)
            .or(self.bindings.bindings[i].last_rect);
        if let (Some(rect), Some(sheet_idx)) = (rect, self.sheet_index(&meta.sheet)) {
            let matrix = self.sheets[sheet_idx].region(rect);
            // `set_region` WAL-logs every cell as a literal write (one
            // transaction); the values do not change, only their provenance.
            self.sheets[sheet_idx].set_region(rect.start, &matrix)?;
        }
        self.drop_binding_logged(id)
    }
}

/// Plan wrapper pairing a binding's row-deletion actions with the edit span.
pub(crate) struct RowsPlan {
    inner: RowDeletePlan,
    span: (u32, u32),
}

/// Write `v` into a mirror cell unless it already shows it; returns the
/// number of cells written (0 or 1).
fn render(sheet: &mut Sheet, addr: CellAddr, v: &Value) -> u64 {
    if &sheet.value(addr) == v {
        return 0;
    }
    sheet.write_bound(addr, v.clone());
    1
}

/// A fresh, schema-unique column name for a column inserted through the
/// grid: the display column's letters (lower-cased), suffixed on collision.
fn fresh_column_name(schema: &dataspread_relstore::Schema, display_col: u32) -> String {
    let base = col_to_letters(display_col).to_ascii_lowercase();
    let mut name = base.clone();
    let mut suffix = 2;
    while schema.index_of(&name).is_some() {
        name = format!("{base}_{suffix}");
        suffix += 1;
    }
    name
}
