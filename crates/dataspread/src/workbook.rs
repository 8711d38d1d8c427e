//! The workbook: the engine object that unifies all five layers.
//!
//! A [`Workbook`] owns a set of [`Sheet`]s (interface data, `gridstore`) and a
//! relational [`Catalog`] (`relstore`), executes SQL against both
//! (`dataspread_sql` + [`crate::engine`]), and resolves the positional
//! constructs `RANGEVALUE`/`RANGETABLE` from the live grid — the wiring the
//! paper calls the *interface manager*.

use std::collections::HashMap;

use dataspread_formula::GridOp;
use dataspread_gridstore::CellStore;
use dataspread_relstore::{Catalog, ChangeKind, ChangeSet, ColumnDef, RowKey, Schema, StoreHandle};
use dataspread_sql::ast::Statement;
use dataspread_sql::parser::{parse_statement, parse_statements};
use dataspread_sql::resolver::SheetResolver;
use dataspread_types::{col_to_letters, CellAddr, DataType, DsError, DsResult, Range, Value};

use crate::bind::BindingRegistry;
use crate::calc::DepIndex;
use crate::engine::{self, QueryResult};
use crate::metrics::WbObs;
use crate::sheet::Sheet;

/// Handle to a sheet inside a workbook.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SheetId(pub usize);

/// Liveness of a workbook's write path (see `docs/FAULTS.md`).
///
/// A workbook degrades to `ReadOnly` when its durable store hits an
/// unrecoverable fault — a failed WAL fsync, or a checkpoint that failed
/// after its rename commit point. Reads, queries, and snapshots keep
/// working against the in-memory state; every mutation is rejected with
/// [`DsError::ReadOnly`] until the workbook is reopened from disk.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineHealth {
    /// Writes are accepted.
    Healthy,
    /// The engine refuses writes; `reason` is the fault that degraded it.
    ReadOnly {
        /// The storage fault that poisoned the write path.
        reason: String,
    },
}

impl EngineHealth {
    /// True when writes are accepted.
    pub fn is_healthy(&self) -> bool {
        matches!(self, EngineHealth::Healthy)
    }
}

/// The top-level engine object.
#[derive(Debug)]
pub struct Workbook {
    pub(crate) sheets: Vec<Sheet>,
    /// Lower-cased sheet name → index.
    pub(crate) by_name: HashMap<String, usize>,
    pub(crate) catalog: Catalog,
    pub(crate) current: usize,
    /// Attached durable store, if any (see [`Workbook::save`]).
    pub(crate) store: Option<StoreHandle>,
    /// Metrics registry, span tracer, and every engine counter handle
    /// (see `docs/OBSERVABILITY.md`).
    pub(crate) obs: WbObs,
    /// Table-bound sheet regions (paper §2.1 TOM/ROM/COM; see `crate::bind`).
    pub(crate) bindings: BindingRegistry,
    /// Which formulas read which cells (see `calc::DepIndex`).
    pub(crate) deps: DepIndex,
}

impl Default for Workbook {
    fn default() -> Self {
        Workbook::new()
    }
}

impl Workbook {
    /// A workbook with one empty sheet, `Sheet1`.
    pub fn new() -> Self {
        let obs = WbObs::default();
        // No formulas yet: the empty index is already exact.
        let deps = DepIndex::new(obs.calc_index_stabs.clone());
        let mut wb = Workbook {
            sheets: Vec::new(),
            by_name: HashMap::new(),
            catalog: Catalog::new(),
            current: 0,
            store: None,
            obs,
            bindings: BindingRegistry::default(),
            deps,
        };
        wb.add_sheet("Sheet1")
            .expect("fresh workbook accepts a sheet");
        wb
    }

    // ---- health ----------------------------------------------------------

    /// Current write-path health. The single source of truth is the
    /// attached WAL's poison state, so every handle (including clones of
    /// [`crate::SharedWorkbook`]) observes a degradation the instant the
    /// faulting commit returns.
    pub fn health(&self) -> EngineHealth {
        match self.store.as_ref().and_then(|s| s.wal.poison_reason()) {
            Some(reason) => EngineHealth::ReadOnly { reason },
            None => EngineHealth::Healthy,
        }
    }

    /// `Err(DsError::ReadOnly)` when the workbook is degraded, else `Ok`.
    /// Mutating entry points call this *before* touching any state, so a
    /// degraded workbook never diverges from its (now frozen) disk image.
    pub fn ensure_writable(&self) -> DsResult<()> {
        match self.health() {
            EngineHealth::Healthy => Ok(()),
            EngineHealth::ReadOnly { reason } => Err(DsError::ReadOnly(reason)),
        }
    }

    // ---- sheets ----------------------------------------------------------

    pub fn add_sheet(&mut self, name: &str) -> DsResult<SheetId> {
        self.ensure_writable()?;
        if name.is_empty() {
            return Err(DsError::Interface("empty sheet name".into()));
        }
        let key = name.to_ascii_lowercase();
        if self.by_name.contains_key(&key) {
            return Err(DsError::Interface(format!("sheet `{name}` already exists")));
        }
        self.sheets.push(Sheet::new(name));
        let id = self.sheets.len() - 1;
        self.by_name.insert(key, id);
        // The new name may resolve formerly broken `Name!ref` references.
        if self.sheets.iter().any(|s| s.formula_count() > 0) {
            self.recompute_all();
        }
        // Adding a sheet is interface DDL: checkpoint so later WAL records
        // naming this sheet always find it in the snapshot, and attach the
        // log so its edits are durable from the first keystroke.
        if self.store.is_some() {
            self.checkpoint()?;
        }
        Ok(SheetId(id))
    }

    pub fn sheet_id(&self, name: &str) -> DsResult<SheetId> {
        self.by_name
            .get(&name.to_ascii_lowercase())
            .map(|&i| SheetId(i))
            .ok_or_else(|| DsError::Interface(format!("no sheet named `{name}`")))
    }

    pub fn sheet(&self, id: SheetId) -> &Sheet {
        &self.sheets[id.0]
    }

    pub fn sheet_count(&self) -> usize {
        self.sheets.len()
    }

    /// The sheet unqualified positional references resolve against.
    pub fn current_sheet(&self) -> SheetId {
        SheetId(self.current)
    }

    pub fn set_current_sheet(&mut self, id: SheetId) {
        assert!(id.0 < self.sheets.len(), "stale SheetId");
        self.current = id.0;
    }

    // ---- grid edits (formula-aware, WAL-logged, recomputed) ---------------

    /// The write boundary: run `op`, then fold in what it changed —
    /// dependent formulas, bound mirrors' readers, a structural edit's full
    /// pass — whether it succeeded or failed part-way. Every public method
    /// that changes sheet or table state ends here, so an edit is finished
    /// when it returns and reads need no flush of their own.
    pub(crate) fn edit<T>(&mut self, op: impl FnOnce(&mut Self) -> DsResult<T>) -> DsResult<T> {
        let out = op(self);
        self.flush_grid();
        out
    }

    /// Type input into a cell: literals are recognized, `=`-prefixed input
    /// becomes a formula evaluated through the cross-sheet dependency graph.
    /// Dependent formulas recompute incrementally before this returns; the
    /// returned value is what the cell now displays.
    pub fn set_input(&mut self, sheet: SheetId, addr: CellAddr, input: &str) -> DsResult<Value> {
        self.ensure_writable()?;
        self.edit(|wb| match wb.binding_index_at(sheet, addr) {
            Some(_) if input.trim_start().starts_with('=') => Err(DsError::Interface(
                "a table-bound cell cannot hold a formula".into(),
            )),
            Some(bi) => wb
                .bound_set_value(bi, sheet, addr, Value::from_input(input))
                .map(drop),
            // The boundary's flush evaluates a typed formula, once.
            None => wb.sheets[sheet.0].store_input(addr, input),
        })?;
        Ok(self.sheets[sheet.0].value(addr))
    }

    /// Write one literal cell value (replacing any formula there) and
    /// recompute its dependents.
    pub fn set_value(&mut self, sheet: SheetId, addr: CellAddr, v: Value) -> DsResult<Value> {
        self.ensure_writable()?;
        self.edit(|wb| match wb.binding_index_at(sheet, addr) {
            Some(bi) => wb.bound_set_value(bi, sheet, addr, v),
            None => wb.sheets[sheet.0].set_value(addr, v),
        })
    }

    /// Fill a rectangular region with literal values and recompute.
    pub fn set_region(
        &mut self,
        sheet: SheetId,
        at: CellAddr,
        rows: &[Vec<Value>],
    ) -> DsResult<()> {
        self.ensure_writable()?;
        // Fast path when no cell of the target rectangle is bound; else
        // route cell by cell so bound cells become table DML.
        let width = rows.iter().map(Vec::len).max().unwrap_or(0) as u32;
        let height = rows.len() as u32;
        let routed = width > 0
            && height > 0
            && Range::from_bounds(at.row, at.col, at.row + height - 1, at.col + width - 1)
                .iter_cells()
                .any(|a| self.binding_index_at(sheet, a).is_some());
        self.edit(|wb| {
            if !routed {
                return wb.sheets[sheet.0].set_region(at, rows);
            }
            // Bound cells become table DML one by one; the unbound
            // remainder still batches into a single WAL transaction.
            let mut plain: Vec<(CellAddr, Value)> = Vec::new();
            for (dr, row) in rows.iter().enumerate() {
                for (dc, v) in row.iter().enumerate() {
                    let addr = CellAddr::new(at.row + dr as u32, at.col + dc as u32);
                    match wb.binding_index_at(sheet, addr) {
                        Some(bi) => {
                            wb.bound_set_value(bi, sheet, addr, v.clone())?;
                        }
                        None => plain.push((addr, v.clone())),
                    }
                }
            }
            wb.sheets[sheet.0].set_cells(&plain)
        })
    }

    /// The value a cell displays (a formula cell shows its computed value).
    pub fn cell(&self, sheet: SheetId, addr: CellAddr) -> Value {
        self.sheets[sheet.0].value(addr)
    }

    /// The formula source at a cell, if it holds one.
    pub fn formula_text(&self, sheet: SheetId, addr: CellAddr) -> Option<&str> {
        self.sheets[sheet.0].formula_text(addr)
    }

    /// Insert blank rows: cells and formulas shift, references on every
    /// sheet are rewritten, affected formulas recompute.
    pub fn insert_rows(&mut self, sheet: SheetId, at: u32, count: u32) -> DsResult<()> {
        self.ensure_writable()?;
        // Insertions inside a bound region become positional inserts of
        // empty tuples on the backing table; validate the schema accepts
        // them before the grid moves.
        self.validate_insert_rows(sheet.0, at)?;
        self.edit(|wb| {
            wb.edit_grid(sheet.0, GridOp::InsertRows { at, count })?;
            wb.bindings_after_insert_rows(sheet.0, at, count)
        })
    }

    /// Delete rows: references into the span become `#REF!`, ranges shrink,
    /// affected formulas recompute.
    pub fn delete_rows(&mut self, sheet: SheetId, at: u32, count: u32) -> DsResult<()> {
        self.ensure_writable()?;
        // Deletions overlapping a bound region delete the covered tuples
        // from the backing table; plan against pre-edit coordinates.
        let plan = self.plan_delete_rows(sheet.0, at, count);
        self.edit(|wb| {
            wb.edit_grid(sheet.0, GridOp::DeleteRows { at, count })?;
            wb.apply_delete_rows_plan(sheet.0, plan)
        })
    }

    /// Insert blank columns (see [`Workbook::insert_rows`]).
    pub fn insert_cols(&mut self, sheet: SheetId, at: u32, count: u32) -> DsResult<()> {
        self.ensure_writable()?;
        self.edit(|wb| {
            wb.edit_grid(sheet.0, GridOp::InsertCols { at, count })?;
            wb.bindings_after_insert_cols(sheet.0, at, count)
        })
    }

    /// Delete columns (see [`Workbook::delete_rows`]).
    pub fn delete_cols(&mut self, sheet: SheetId, at: u32, count: u32) -> DsResult<()> {
        self.ensure_writable()?;
        let plan = self.plan_delete_cols(sheet.0, at, count);
        self.edit(|wb| {
            wb.edit_grid(sheet.0, GridOp::DeleteCols { at, count })?;
            wb.apply_delete_cols_plan(sheet.0, plan)
        })
    }

    /// Force a full recomputation of every formula in the workbook.
    pub fn recalculate(&mut self) {
        self.recompute_all();
    }

    // ---- relational side -------------------------------------------------

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    pub fn catalog_mut(&mut self) -> &mut Catalog {
        &mut self.catalog
    }

    // ---- SQL ------------------------------------------------------------

    /// Parse and execute one SQL statement against the workbook: tables come
    /// from the catalog, `RANGEVALUE`/`RANGETABLE` read the live sheets.
    ///
    /// With a durable store attached ([`Workbook::save`]), each DML
    /// statement runs as one WAL transaction — durable when `execute`
    /// returns `Ok`. Successful `CREATE TABLE`/`DROP TABLE` append DDL
    /// redo records to the WAL; `ALTER TABLE` triggers a checkpoint
    /// (schema changes of existing tables are snapshot-persisted).
    ///
    /// After each DML/DDL statement the binding layer re-syncs: regions
    /// bound to a changed table re-render and their dependent formulas
    /// recompute (see [`Workbook::bind_table`]).
    pub fn execute(&mut self, sql: &str) -> DsResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(stmt)
    }

    /// Execute a `;`-separated script, returning the result of each statement.
    pub fn execute_script(&mut self, sql: &str) -> DsResult<Vec<QueryResult>> {
        let stmts = parse_statements(sql)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(self.execute_stmt(stmt)?);
        }
        Ok(out)
    }

    fn execute_stmt(&mut self, stmt: Statement) -> DsResult<QueryResult> {
        let _span = self.obs.tracer.span("sql_execute");
        let is_dml = matches!(
            stmt,
            Statement::Insert { .. } | Statement::Update { .. } | Statement::Delete { .. }
        );
        let is_ddl = matches!(
            stmt,
            Statement::CreateTable { .. }
                | Statement::DropTable { .. }
                | Statement::AlterTable { .. }
        );
        // ANALYZE rewrites no row, but its statistics persist like ALTER's
        // schema: by the checkpoint after it.
        let is_analyze = matches!(stmt, Statement::Analyze { .. });
        if is_dml || is_ddl || is_analyze {
            self.ensure_writable()?;
        }
        // Capture what the post-statement hooks need before the statement is
        // consumed: CREATE/DROP TABLE ride the WAL (no checkpoint) when they
        // actually create/drop, and column DDL adjusts binding metadata.
        let ddl_info = self.capture_ddl_info(&stmt);
        // One WAL transaction per DML statement: the attached tables append
        // redo records as they mutate; commit (fsync) seals the statement.
        let txn = match &self.store {
            Some(store) if is_dml => {
                store.wal.begin()?;
                Some(store)
            }
            _ => None,
        };
        let ctx = SheetCtx {
            sheets: &self.sheets,
            by_name: &self.by_name,
            current: self.current,
        };
        let result = engine::execute(&mut self.catalog, &ctx, stmt, &self.obs.exec);
        if let Some(store) = txn {
            match &result {
                Ok(_) => store.wal.commit()?,
                // The engine applies DML row by row with no undo, so a
                // failed statement may have partially mutated the catalog —
                // and every applied row was already logged. Commit those
                // records too: recovery must rebuild exactly the state live
                // queries see, not an alternate history (statement
                // atomicity is future work). Best-effort: the statement
                // error outranks a commit I/O error.
                Err(_) => {
                    let _ = store.wal.commit();
                }
            }
        }
        // A DML statement's change set lets its table's bindings re-render
        // from the first row it touched; a failed statement has none, so
        // the rows it did apply reach the grid through the full diff.
        let (result, changes) = match result {
            Ok((r, changes)) => (Ok(r), changes),
            Err(e) => (Err(e), None),
        };
        let result = self.edit(|wb| {
            if result.is_ok() {
                wb.after_statement(&ddl_info)?;
            }
            if is_dml || is_ddl {
                // Table-side changes flow back into bound regions, and the
                // boundary recomputes the formulas watching them. The rows
                // a failed statement applied stay (see above), so they
                // sync too; the statement's error outranks a sync error.
                let synced = wb.refresh_bindings(changes.as_ref());
                if result.is_ok() {
                    synced?;
                }
            }
            result
        });
        let checkpointed = is_analyze || matches!(ddl_info, DdlInfo::Alter { .. });
        if result.is_ok() && checkpointed && self.store.is_some() {
            // ALTER TABLE and ANALYZE are checkpoint-persisted (schema
            // changes of existing tables and re-observed statistics are
            // snapshot state, not logged — except the CREATE-carried
            // schema).
            self.checkpoint()?;
        }
        result
    }

    /// Pre-execution snapshot of the DDL facts the post-statement hooks
    /// need (whether a CREATE/DROP will actually happen, which column an
    /// ALTER touches).
    fn capture_ddl_info(&self, stmt: &Statement) -> DdlInfo {
        match stmt {
            Statement::CreateTable { name, .. } => DdlInfo::Create {
                table: name.clone(),
                existed: self.catalog.contains(name),
            },
            Statement::DropTable { name, .. } => DdlInfo::Drop {
                table: name.clone(),
                existed: self.catalog.contains(name),
            },
            Statement::AlterTable { name, action } => DdlInfo::Alter {
                table: name.clone(),
                dropped_col: match action {
                    dataspread_sql::ast::AlterAction::DropColumn(c) => self
                        .catalog
                        .get(name)
                        .ok()
                        .and_then(|t| t.schema().index_of(c))
                        .map(|i| i as u32),
                    _ => None,
                },
                added_col: matches!(action, dataspread_sql::ast::AlterAction::AddColumn { .. }),
            },
            _ => DdlInfo::None,
        }
    }

    /// Post-statement hooks: WAL-log successful CREATE/DROP TABLE (the DDL
    /// redo records that replace the old forced checkpoint), attach fresh
    /// tables to the durable store, and adjust binding column metadata for
    /// ALTER TABLE.
    fn after_statement(&mut self, info: &DdlInfo) -> DsResult<()> {
        match info {
            DdlInfo::Create { table, existed } => {
                if !existed {
                    if let Some(store) = self.store.clone() {
                        let schema = self.catalog.get(table)?.schema().clone();
                        store
                            .wal
                            .log(dataspread_relstore::wal::WalOp::CreateTable {
                                table: table.clone(),
                                schema,
                            })?;
                        // The new table logs its DML through the same WAL.
                        store.attach_all(&self.catalog);
                    }
                }
            }
            DdlInfo::Drop { table, existed } => {
                if *existed {
                    if let Some(store) = &self.store {
                        store.wal.log(dataspread_relstore::wal::WalOp::DropTable {
                            table: table.clone(),
                        })?;
                    }
                    // Bindings on the dropped table are detached (values
                    // frozen) by the sync_bindings pass that follows.
                }
            }
            DdlInfo::Alter {
                table,
                dropped_col,
                added_col,
            } => {
                if let Some(idx) = dropped_col {
                    let emptied = self.bindings.on_column_dropped(table, *idx);
                    for id in emptied {
                        self.detach_binding_clear(id)?;
                    }
                }
                if *added_col {
                    if let Ok(t) = self.catalog.get(table) {
                        let idx = (t.schema().width() - 1) as u32;
                        self.bindings.on_column_added(table, idx, None);
                    }
                }
            }
            DdlInfo::None => {}
        }
        Ok(())
    }

    // ---- observability ---------------------------------------------------

    /// One coherent pass over every engine metric: the workbook registry
    /// (executor, calc, binding, VFS, span counters) plus the per-component
    /// counters aggregated at scrape time — the attached WAL writer's
    /// append/commit/fsync/poison tallies and the per-table page-touch
    /// counters summed across the catalog.
    pub fn metrics_snapshot(&self) -> dataspread_obs::Snapshot {
        let mut snap = self.obs.registry.snapshot();
        let wal = self
            .store
            .as_ref()
            .map(|s| s.wal.counters())
            .unwrap_or_default();
        snap.push_counter("wal_appends", wal.appends.get());
        snap.push_counter("wal_commits", wal.commits.get());
        snap.push_counter("wal_fsyncs", wal.fsyncs.get());
        snap.push_counter("wal_poison_flips", wal.poison_flips.get());
        let (mut reads, mut writes) = (0, 0);
        for name in self.catalog.table_names() {
            if let Ok(t) = self.catalog.get(&name) {
                reads += t.stats().page_reads();
                writes += t.stats().page_writes();
            }
        }
        snap.push_counter("table_page_reads", reads);
        snap.push_counter("table_page_writes", writes);
        snap.sort();
        snap
    }

    /// Every engine metric in Prometheus text exposition format — what a
    /// future server crate serves from its scrape endpoint.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().prometheus_text()
    }

    /// Every engine metric as one JSON object keyed by metric name.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().json()
    }

    /// The workbook's span tracer (enter/exit scopes, slow-op log).
    pub fn tracer(&self) -> &dataspread_obs::Tracer {
        &self.obs.tracer
    }

    /// Execute and demand a row set (convenience for queries).
    pub fn query(&mut self, sql: &str) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
        match self.execute(sql)? {
            QueryResult::Rows { columns, rows } => Ok((columns, rows)),
            other => Err(DsError::Sql(format!(
                "statement returned {other:?}, not rows"
            ))),
        }
    }

    // ---- positional references ------------------------------------------

    /// The scalar at an A1 reference (`B2` or `Data!B2`) — the engine-side
    /// implementation of `RANGEVALUE`. Formula cells read their computed
    /// value.
    pub fn range_value(&self, a1: &str) -> DsResult<Value> {
        self.sheet_ctx().range_value(a1)
    }

    /// A region as a relation (`A1:C10` or `Data!A1:C10`) — the engine-side
    /// implementation of `RANGETABLE`. Header row is used for column names
    /// when every cell of the first row is non-blank text; otherwise columns
    /// are named by their sheet letters.
    pub fn range_table(&self, a1: &str) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
        self.sheet_ctx().range_table(a1)
    }

    // ---- import / export -------------------------------------------------

    /// Import a sheet region into a new catalog table (paper §2.2,
    /// "exporting spreadsheet data to the database"): column names from the
    /// header row (or sheet letters), column types inferred from the data,
    /// error cells sanitized to NULL. Display order of the imported rows is
    /// the region's row order, maintained by the table's positional index.
    pub fn import_region(
        &mut self,
        sheet: SheetId,
        range: Range,
        table: &str,
        headers: bool,
    ) -> DsResult<usize> {
        self.ensure_writable()?;
        let matrix = self.sheets[sheet.0].region(range);
        let (names, data) = if headers {
            if matrix.is_empty() {
                return Err(DsError::Interface(
                    "header import of an empty region".into(),
                ));
            }
            let names = header_names(&matrix[0], range.start.col)?;
            (names, &matrix[1..])
        } else {
            let names: Vec<String> = (0..range.width())
                .map(|c| col_to_letters(range.start.col + c).to_ascii_lowercase())
                .collect();
            (names, &matrix[..])
        };
        // Infer each column's type from the data actually present.
        let mut cols = Vec::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            let dtype = DataType::infer_column(data.iter().map(|r| &r[i]));
            cols.push(ColumnDef::new(name.clone(), dtype));
        }
        let schema = Schema::new(cols)?;
        self.catalog.create_table(table, schema)?;
        let mut t = self.catalog.get_mut(table)?;
        let mut n = 0;
        for row in data {
            let clean: Vec<Value> = row
                .iter()
                .map(|v| {
                    if v.is_error() {
                        Value::Empty
                    } else {
                        v.clone()
                    }
                })
                .collect();
            t.insert(clean)?;
            n += 1;
        }
        drop(t);
        // A new table is DDL: with a store attached, persist it (and its
        // imported rows) via checkpoint, like CREATE TABLE through SQL.
        if self.store.is_some() {
            self.checkpoint()?;
        }
        Ok(n)
    }

    /// Write a table's contents (optionally with a header row) into a sheet
    /// region starting at `at` — the display direction of the two-way sync.
    pub fn export_table(
        &mut self,
        table: &str,
        sheet: SheetId,
        at: CellAddr,
        headers: bool,
    ) -> DsResult<Range> {
        self.ensure_writable()?;
        let t = self.catalog.get(table)?;
        let width = t.schema().width() as u32;
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(t.row_count() + 1);
        if headers {
            rows.push(
                t.schema()
                    .columns()
                    .iter()
                    .map(|c| Value::text(c.name.clone()))
                    .collect(),
            );
        }
        for (_, row) in t.scan()? {
            rows.push(row);
        }
        drop(t);
        let height = rows.len().max(1) as u32;
        // Formulas watching the exported region recompute at the boundary.
        self.edit(|wb| wb.sheets[sheet.0].set_region(at, &rows))?;
        Ok(Range::from_bounds(
            at.row,
            at.col,
            at.row + height - 1,
            at.col + width.max(1) - 1,
        ))
    }

    // ---- positional DML (the paper's signature operations) ----------------

    /// Insert a tuple so it is *displayed* at position `pos` — O(log n) via
    /// the table's counted B-tree, vs. the O(n) renumbering a stock rownum
    /// column forces.
    pub fn insert_tuple_at(
        &mut self,
        table: &str,
        pos: usize,
        row: Vec<Value>,
    ) -> DsResult<RowKey> {
        self.ensure_writable()?;
        self.edit(|wb| {
            let mut t = wb.catalog.get_mut(table)?;
            let key = t.insert_at(pos, row)?;
            // Bound regions displaying this table grow by one row, which
            // they render from `pos` down.
            let mut changes = ChangeSet::default();
            changes.push(t.name(), ChangeKind::Insert, key, pos);
            drop(t);
            wb.refresh_bindings(Some(&changes))?;
            Ok(key)
        })
    }

    /// Fetch the window of rows displayed at `[pos, pos + count)` — the query
    /// the front-end issues as the user scrolls.
    pub fn fetch_window(
        &self,
        table: &str,
        pos: usize,
        count: usize,
    ) -> DsResult<Vec<(RowKey, Vec<Value>)>> {
        self.catalog.get(table)?.scan_window(pos, count)
    }
}

/// What the post-statement hooks need to know about a DDL statement,
/// captured before execution consumes it.
enum DdlInfo {
    Create {
        table: String,
        existed: bool,
    },
    Drop {
        table: String,
        existed: bool,
    },
    Alter {
        table: String,
        /// Schema index of a `DROP COLUMN` target (resolved pre-execution).
        dropped_col: Option<u32>,
        /// Whether the action is `ADD COLUMN`.
        added_col: bool,
    },
    None,
}

/// The header rule: a region's first row names its columns when every cell
/// of it is non-blank text.
fn is_header(first: &[Value]) -> bool {
    !first.is_empty()
        && first
            .iter()
            .all(|v| matches!(v, Value::Text(s) if !s.trim().is_empty()))
}

/// Sanitize a header row into distinct, non-empty column names.
fn header_names(row: &[Value], first_col: u32) -> DsResult<Vec<String>> {
    let mut names: Vec<String> = Vec::with_capacity(row.len());
    for (i, v) in row.iter().enumerate() {
        let base = match v {
            Value::Text(s) if !s.trim().is_empty() => s.trim().to_string(),
            _ => col_to_letters(first_col + i as u32).to_ascii_lowercase(),
        };
        let mut name = base.clone();
        let mut suffix = 2;
        while names.iter().any(|n| n.eq_ignore_ascii_case(&name)) {
            name = format!("{base}_{suffix}");
            suffix += 1;
        }
        names.push(name);
    }
    Ok(names)
}

/// Borrowed view of the workbook's sheets implementing the SQL layer's
/// [`SheetResolver`] — how `RANGEVALUE`/`RANGETABLE` reach the live grid
/// while the executor holds the catalog mutably.
pub(crate) struct SheetCtx<'a> {
    sheets: &'a [Sheet],
    by_name: &'a HashMap<String, usize>,
    current: usize,
}

impl Workbook {
    /// A borrowed resolver over this workbook's sheets (read-only side of
    /// the query path; see [`crate::concurrent::ReadSession`]).
    pub(crate) fn sheet_ctx(&self) -> SheetCtx<'_> {
        SheetCtx {
            sheets: &self.sheets,
            by_name: &self.by_name,
            current: self.current,
        }
    }
}

impl<'a> SheetCtx<'a> {
    /// Split `Sheet2!B3` into (sheet, rest); bare references use the current
    /// sheet.
    fn locate<'s>(&self, a1: &'s str) -> DsResult<(&'a Sheet, &'s str)> {
        match a1.split_once('!') {
            Some((sheet, rest)) => {
                let idx = self
                    .by_name
                    .get(&sheet.trim().to_ascii_lowercase())
                    .ok_or_else(|| DsError::Interface(format!("no sheet named `{sheet}`")))?;
                Ok((&self.sheets[*idx], rest))
            }
            None => Ok((&self.sheets[self.current], a1)),
        }
    }
}

impl SheetCtx<'_> {
    /// Locate and parse a `RANGETABLE` reference.
    fn locate_range(&self, a1: &str) -> DsResult<(&Sheet, Range)> {
        let (sheet, rest) = self.locate(a1)?;
        let range = Sheet::parse_range(rest.trim())
            .map_err(|_| DsError::Sql(format!("invalid RANGETABLE reference `{a1}`")))?;
        Ok((sheet, range))
    }

    /// Header decision + first row: the region names come from the header
    /// row when every cell of it is non-blank text. Reads only the first
    /// row of the region.
    fn header_row(&self, sheet: &Sheet, range: Range) -> (bool, Vec<Value>) {
        let top = Range::from_bounds(
            range.start.row,
            range.start.col,
            range.start.row,
            range.end.col,
        );
        let mut first = sheet.region(top);
        let first = first.remove(0);
        let use_header = is_header(&first);
        (use_header, first)
    }

    /// Column names for a region given the header decision.
    fn region_names(
        &self,
        range: Range,
        use_header: bool,
        first: &[Value],
    ) -> DsResult<Vec<String>> {
        if use_header {
            header_names(first, range.start.col)
        } else {
            Ok((0..range.width())
                .map(|c| col_to_letters(range.start.col + c).to_ascii_lowercase())
                .collect())
        }
    }
}

impl SheetResolver for SheetCtx<'_> {
    fn range_value(&self, a1: &str) -> DsResult<Value> {
        let (sheet, rest) = self.locate(a1)?;
        let addr = CellAddr::parse_a1(rest.trim())
            .map_err(|_| DsError::Sql(format!("invalid RANGEVALUE reference `{a1}`")))?;
        let v = sheet.value(addr);
        if let Some(e) = v.as_error() {
            // A query must not silently compute on an error cell.
            return Err(DsError::CellValue(e));
        }
        Ok(v)
    }

    /// Reads only the header row — planning a `RANGETABLE` scan must not
    /// materialize the region.
    fn range_table_names(&self, a1: &str) -> DsResult<Vec<String>> {
        let (sheet, range) = self.locate_range(a1)?;
        let (use_header, first) = self.header_row(sheet, range);
        self.region_names(range, use_header, &first)
    }

    /// Column-bounded region read: only the rectangle spanning the used
    /// columns is handed to the cell store's range scan, so narrow queries
    /// over wide regions touch fewer grid blocks. Unused slots stay
    /// `Value::Empty`; row count and width match the full read.
    fn range_table_pruned(&self, a1: &str, used: &[usize]) -> DsResult<Vec<Vec<Value>>> {
        let (sheet, range) = self.locate_range(a1)?;
        let (use_header, _) = self.header_row(sheet, range);
        let data_start = range.start.row + use_header as u32;
        if data_start > range.end.row {
            return Ok(Vec::new());
        }
        let width = range.width() as usize;
        let height = (range.end.row - data_start + 1) as usize;
        let mut rows = vec![vec![Value::Empty; width]; height];
        if let (Some(&lo), Some(&hi)) = (used.iter().min(), used.iter().max()) {
            let scan = Range::from_bounds(
                data_start,
                range.start.col + lo as u32,
                range.end.row,
                (range.start.col + hi as u32).min(range.end.col),
            );
            sheet.store().for_each_in_range(scan, &mut |a, v| {
                rows[(a.row - data_start) as usize][(a.col - range.start.col) as usize] = v.clone();
            });
        }
        Ok(rows)
    }

    fn range_table(&self, a1: &str) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
        let (sheet, range) = self.locate_range(a1)?;
        let matrix = sheet.region(range);
        let use_header = is_header(&matrix[0]);
        let names = self.region_names(range, use_header, &matrix[0])?;
        let data = if use_header {
            &matrix[1..]
        } else {
            &matrix[..]
        };
        Ok((names, data.to_vec()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    #[test]
    fn sheets_are_named_case_insensitively() {
        let mut wb = Workbook::new();
        let id = wb.add_sheet("Data").unwrap();
        assert_eq!(wb.sheet_id("data").unwrap(), id);
        assert!(wb.add_sheet("DATA").is_err());
        assert!(wb.sheet_id("nope").is_err());
    }

    #[test]
    fn range_value_reads_live_cells() {
        let mut wb = Workbook::new();
        let s1 = wb.current_sheet();
        wb.set_input(s1, a("B2"), "42").unwrap();
        assert_eq!(wb.range_value("B2").unwrap(), Value::Int(42));
        assert_eq!(wb.range_value("Sheet1!B2").unwrap(), Value::Int(42));
        assert_eq!(wb.range_value("Z99").unwrap(), Value::Empty);
        assert!(wb.range_value("Nope!A1").is_err());
        assert!(wb.range_value("not-a-ref").is_err());
    }

    #[test]
    fn range_value_refuses_error_cells() {
        let mut wb = Workbook::new();
        let s1 = wb.current_sheet();
        wb.set_input(s1, a("A1"), "#REF!").unwrap();
        assert!(wb.range_value("A1").is_err());
    }

    #[test]
    fn range_table_header_inference() {
        let mut wb = Workbook::new();
        let s1 = wb.current_sheet();
        wb.set_region(
            s1,
            a("A1"),
            &[
                vec![Value::text("id"), Value::text("name")],
                vec![Value::Int(1), Value::text("ada")],
            ],
        )
        .unwrap();
        let (cols, rows) = wb.range_table("A1:B2").unwrap();
        assert_eq!(cols, vec!["id", "name"]);
        assert_eq!(rows, vec![vec![Value::Int(1), Value::text("ada")]]);
        // No header: letters.
        let (cols, rows) = wb.range_table("A2:B2").unwrap();
        assert_eq!(cols, vec!["a", "b"]);
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn import_infers_schema_and_order() {
        let mut wb = Workbook::new();
        let s1 = wb.current_sheet();
        wb.set_region(
            s1,
            a("A1"),
            &[
                vec![Value::text("id"), Value::text("score")],
                vec![Value::Int(1), Value::Float(3.5)],
                vec![Value::Int(2), Value::Int(4)],
            ],
        )
        .unwrap();
        let n = wb
            .import_region(s1, Range::parse_a1("A1:B3").unwrap(), "scores", true)
            .unwrap();
        assert_eq!(n, 2);
        let t = wb.catalog().get("scores").unwrap();
        assert_eq!(t.schema().column(0).dtype, DataType::Int);
        assert_eq!(
            t.schema().column(1).dtype,
            DataType::Float,
            "Int ∨ Float = Float"
        );
        let rows = t.scan().unwrap();
        assert_eq!(rows[0].1[0], Value::Int(1));
        assert_eq!(rows[1].1[1], Value::Float(4.0));
    }

    #[test]
    fn export_writes_grid() {
        let mut wb = Workbook::new();
        let s1 = wb.current_sheet();
        wb.set_region(
            s1,
            a("A1"),
            &[
                vec![Value::text("x")],
                vec![Value::Int(7)],
                vec![Value::Int(8)],
            ],
        )
        .unwrap();
        wb.import_region(s1, Range::parse_a1("A1:A3").unwrap(), "t", true)
            .unwrap();
        let out = wb.add_sheet("Out").unwrap();
        let covered = wb.export_table("t", out, a("C1"), true).unwrap();
        assert_eq!(covered, Range::parse_a1("C1:C3").unwrap());
        assert_eq!(wb.sheet(out).value(a("C1")), Value::text("x"));
        assert_eq!(wb.sheet(out).value(a("C2")), Value::Int(7));
        assert_eq!(wb.sheet(out).value(a("C3")), Value::Int(8));
    }

    #[test]
    fn header_names_dedup_and_fallback() {
        let names = header_names(&[Value::text("x"), Value::text("X"), Value::Empty], 0).unwrap();
        assert_eq!(
            names,
            vec!["x", "X_2", "c"],
            "case preserved, dedup case-insensitive"
        );
    }
}
