//! Workbook persistence: `save` / `open` / `checkpoint` over the relstore
//! durable store.
//!
//! A workbook saves into a *store directory* holding the page file
//! (`data.dsp`) and the write-ahead log (`wal.dsp`) — formats and the
//! recovery protocol are specified in `docs/STORAGE.md`. The catalog
//! (tables, schemas, pages) is checkpointed by
//! [`dataspread_relstore::snapshot`]; this module contributes the
//! engine-level metadata riding in the snapshot's `extra_meta` stream:
//! every sheet's cells and formulas, the current-sheet pointer, the
//! table-binding registry, and the optimizer statistics.
//!
//! Durability boundaries after [`Workbook::save`] attaches the store:
//!
//! * **SQL DML** (`INSERT`/`UPDATE`/`DELETE` via [`Workbook::execute`]) and
//!   positional DML ([`Workbook::insert_tuple_at`]) are WAL-logged and
//!   survive a crash.
//! * **Sheet edits** — cell writes (literals *and* formulas) and
//!   structural row/column edits — are WAL-logged at edit time as logical
//!   inputs and replayed on [`Workbook::open`], which then recomputes the
//!   formulas they dirtied (every formula after a replayed structural
//!   edit). They survive a crash between checkpoints.
//! * **`CREATE TABLE`/`DROP TABLE`** are WAL-logged as DDL redo records;
//!   **`ALTER TABLE`**, **`ANALYZE`**, [`Workbook::import_region`], and
//!   [`Workbook::add_sheet`] trigger an automatic checkpoint.
//! * **Bindings** ([`Workbook::bind_table`]) are WAL-logged at
//!   create/drop and checkpointed in the workbook metadata (version 3);
//!   the mirror cells they render are derivable. A mirror the checkpoint
//!   marked current (version 6) is brought up to date on
//!   [`Workbook::open`] from the replayed tail's change set; any other is
//!   re-rendered from its recovered table.
//! * Direct [`Workbook::catalog_mut`] DDL (e.g. `create_table`) is *not*
//!   auto-persisted — call [`Workbook::save`] or [`Workbook::checkpoint`]
//!   afterwards.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dataspread_formula::GridOp;
use dataspread_relstore::codec::{put_str, put_u32, put_u64, Cursor};
use dataspread_relstore::snapshot::{
    self, load_catalog_with, save_catalog_with, LoadedCatalog, DATA_FILE,
};
use dataspread_relstore::vfs::{os_vfs, Vfs};
use dataspread_relstore::wal::{scan_wal_with, GridEditKind, SheetCellContent, WalOp};
use dataspread_relstore::{Catalog, MeteredVfs, PageFile, VfsMeter};
use dataspread_types::{CellAddr, DsError, DsResult};

use crate::bind::BindingRegistry;
use crate::metrics::WbObs;
use crate::sheet::Sheet;
use crate::workbook::Workbook;

/// Version byte of the workbook metadata stream. Version 2 added a `u64`
/// (once the buffer-pool capacity, now reserved and written as zero) and
/// per-sheet formula sections; version 3 added the binding section
/// (table-bound regions); version 4 added the optimizer-statistics section
/// (per-table column sketches). Version 5 changed no layout: it marks the
/// cached formula values as written by the current evaluation semantics.
/// Version 6 added one byte per binding recording whether its mirror cells
/// were current with the table when the checkpoint was written; before it,
/// every mirror is re-rendered in full on open. Open trusts cached values
/// only from a stream at the current version, so **any change to what a
/// formula evaluates to must bump this version**; an older stream
/// recomputes every formula once on open. Version 1–3 streams are still
/// readable (they decode with no formulas, no bindings, and freshly
/// analyzed statistics respectively).
const WB_META_VERSION: u8 = 6;

/// The highest checkpoint generation evidenced on disk at `dir` — from the
/// page file or a leftover WAL, whichever is newer (0 when neither is
/// readable, i.e. a genuinely fresh store).
fn on_disk_generation(vfs: &Arc<dyn Vfs>, dir: &Path) -> u64 {
    let pf = PageFile::open_with(vfs, dir.join(DATA_FILE))
        .map(|pf| pf.generation())
        .unwrap_or(0);
    let wal = scan_wal_with(vfs, dir.join(snapshot::WAL_FILE))
        .ok()
        .flatten()
        .map(|scan| scan.generation)
        .unwrap_or(0);
    pf.max(wal)
}

pub(crate) fn encode_workbook_meta(wb: &Workbook) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.push(WB_META_VERSION);
    // Reserved (was the default store kind): written as zero.
    buf.push(0);
    put_u32(&mut buf, wb.current as u32);
    // Reserved (was the default buffer-pool capacity): written as zero.
    put_u64(&mut buf, 0);
    put_u32(&mut buf, wb.sheets.len() as u32);
    for sheet in &wb.sheets {
        sheet.encode(&mut buf);
    }
    // Version 3: the binding section (id watermark + every binding's
    // durable metadata + the rectangle its mirror cells occupy in the
    // snapshot — recovery needs it to clear ghost rows when WAL replay
    // shrinks the backing table below the checkpointed extent).
    put_u64(&mut buf, wb.bindings.next_id);
    put_u32(&mut buf, wb.bindings.bindings.len() as u32);
    for b in &wb.bindings.bindings {
        b.meta.encode(&mut buf);
        match b.rendered_rect(wb) {
            Some(r) => {
                buf.push(1);
                put_u32(&mut buf, r.start.row);
                put_u32(&mut buf, r.start.col);
                put_u32(&mut buf, r.end.row);
                put_u32(&mut buf, r.end.col);
            }
            None => buf.push(0),
        }
    }
    // Version 4: optimizer statistics — one block per table, keyed by name,
    // in ascending name order. Open installs them before WAL replay, which
    // then keeps them current.
    let mut names = wb.catalog.table_names();
    names.sort();
    put_u32(&mut buf, names.len() as u32);
    for name in names {
        put_str(&mut buf, &name);
        let t = wb.catalog.get(&name).expect("listed table");
        t.statistics().encode(&mut buf);
    }
    // Version 6: per binding, in registry order, whether its mirror showed
    // its table's current version. Open brings such a mirror up to date
    // from the replayed tail alone.
    for b in &wb.bindings.bindings {
        let current = (wb.catalog.get(&b.meta.table)).is_ok_and(|t| t.version() == b.seen_version);
        buf.push(current as u8);
    }
    buf
}

pub(crate) fn decode_workbook_meta(meta: &[u8], catalog: Catalog) -> DsResult<Workbook> {
    let mut cur = Cursor::new(meta);
    let version = cur.u8()?;
    if version == 0 || version > WB_META_VERSION {
        return Err(DsError::Storage(format!(
            "workbook snapshot: unsupported version {version}"
        )));
    }
    // Reserved (was the default store kind): ignored.
    cur.u8()?;
    let current = cur.u32()? as usize;
    // Version 1 predates the reserved u64 and the formula sections; it
    // decodes with literal-only cells.
    if version >= 2 {
        // Reserved (was the default buffer-pool capacity): ignored.
        cur.u64()?;
    }
    let nsheets = cur.u32()? as usize;
    let cap = nsheets.min(cur.remaining());
    let mut sheets = Vec::with_capacity(cap);
    let mut by_name = std::collections::HashMap::with_capacity(cap);
    for i in 0..nsheets {
        let sheet = Sheet::decode(&mut cur, version >= 2)?;
        by_name.insert(sheet.name().to_ascii_lowercase(), i);
        sheets.push(sheet);
    }
    // Version 3: bindings (registered with a forced first refresh — the
    // caller re-renders every region from the recovered tables).
    let mut bindings = BindingRegistry::default();
    if version >= 3 {
        let next_id = cur.u64()?;
        let nbind = cur.u32()? as usize;
        for _ in 0..nbind {
            bindings.register(dataspread_relstore::BindingMeta::decode(&mut cur)?);
            let rect = match cur.u8()? {
                0 => None,
                _ => Some(dataspread_types::Range::from_bounds(
                    cur.u32()?,
                    cur.u32()?,
                    cur.u32()?,
                    cur.u32()?,
                )),
            };
            // The rect the checkpointed mirror cells occupy: the refresh
            // after WAL replay diffs (and shrink-clears) against it.
            bindings
                .bindings
                .last_mut()
                .expect("just registered")
                .last_rect = rect;
        }
        bindings.next_id = bindings.next_id.max(next_id);
    }
    // Version 4: optimizer statistics, one block per checkpointed table,
    // installed before the WAL tail replays so that replay maintains them
    // inline exactly as the live DML did. Older streams carry none: their
    // tables are analyzed from the checkpointed rows instead.
    if version >= 4 {
        let nstats = cur.u32()? as usize;
        if nstats != catalog.len() {
            return Err(DsError::Storage(format!(
                "workbook snapshot: {nstats} statistics blocks for {} tables",
                catalog.len()
            )));
        }
        let mut prev = String::new();
        for _ in 0..nstats {
            let name = cur.str()?;
            let stats = dataspread_relstore::TableStatistics::decode(&mut cur)?;
            // Blocks are written in strictly ascending name order, so with
            // the count above every table gets exactly one.
            if name <= prev && !prev.is_empty() {
                return Err(DsError::Storage(format!(
                    "workbook snapshot: statistics block `{name}` out of order"
                )));
            }
            catalog
                .get_mut(&name)
                .map_err(|_| {
                    DsError::Storage(format!(
                        "workbook snapshot: statistics for unknown table `{name}`"
                    ))
                })?
                .set_statistics(stats)?;
            prev = name;
        }
    } else {
        for name in catalog.table_names() {
            catalog.get_mut(&name)?.analyze()?;
        }
    }
    // Version 6: a mirror that was current matches the decoded table, whose
    // version restarts with the decode; any other keeps its forced refresh.
    if version >= 6 {
        for b in &mut bindings.bindings {
            if cur.u8()? != 0 {
                if let Ok(t) = catalog.get(&b.meta.table) {
                    b.seen_version = t.version();
                }
            }
        }
    }
    if !cur.is_empty() {
        return Err(DsError::Storage("workbook snapshot: trailing bytes".into()));
    }
    if sheets.is_empty() || current >= sheets.len() {
        return Err(DsError::Storage(
            "workbook snapshot: invalid sheet table".into(),
        ));
    }
    let obs = WbObs::default();
    let deps = crate::calc::DepIndex::new(obs.calc_index_stabs.clone());
    let mut wb = Workbook {
        sheets,
        by_name,
        catalog,
        current,
        store: None,
        obs,
        bindings,
        deps,
    };
    // Cached values written under the current evaluation semantics are
    // trusted: the decoded formulas are indexed, not evaluated. An older
    // stream's are re-evaluated by open's flush, all of them.
    if version == WB_META_VERSION {
        wb.index_decoded();
    } else {
        wb.distrust_decoded();
    }
    Ok(wb)
}

impl Workbook {
    /// Persist the whole workbook — catalog, schemas, table pages, and
    /// sheet grids — into the store directory `dir`, and attach the store
    /// so subsequent DML is WAL-logged. Calling `save` again checkpoints:
    /// the snapshot is rewritten atomically and the log is reset.
    ///
    /// ```
    /// use dataspread::Workbook;
    /// let dir = std::env::temp_dir().join(format!("dsp-doc-save-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let mut wb = Workbook::new();
    /// wb.execute("CREATE TABLE t (x INT)").unwrap();
    /// wb.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    /// wb.save(&dir).unwrap();
    /// assert!(wb.is_durable());
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn save(&mut self, dir: impl AsRef<Path>) -> DsResult<()> {
        let dir = dir.as_ref().to_path_buf();
        // Saving back into the attached directory must go through the same
        // VFS that directory was opened with (the fault suites depend on
        // this); a fresh directory defaults to the real filesystem. The
        // attached VFS is already metered (attachment wraps exactly once),
        // so only the fresh-directory arm wraps here.
        let vfs = match &self.store {
            Some(store) if store.dir == dir => Arc::clone(&store.vfs),
            _ => MeteredVfs::wrap(os_vfs(), self.obs.vfs.clone()),
        };
        self.save_inner(dir, vfs)
    }

    /// [`Workbook::save`] against an explicit [`Vfs`] — the hook the
    /// fault-injection suites use to persist through an injecting VFS.
    /// The VFS is wrapped in the workbook's I/O meter, so `vfs_*` metrics
    /// keep counting through injected faults.
    pub fn save_with_vfs(&mut self, dir: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> DsResult<()> {
        let vfs = MeteredVfs::wrap(vfs, self.obs.vfs.clone());
        self.save_inner(dir.as_ref().to_path_buf(), vfs)
    }

    fn save_inner(&mut self, dir: PathBuf, vfs: Arc<dyn Vfs>) -> DsResult<()> {
        // A read-only engine must not re-checkpoint its own directory: the
        // checkpoint would fold un-acked in-memory state into a durable
        // snapshot and attach a fresh (unpoisoned) WAL, silently clearing
        // the degradation. Saving into a *different* directory stays legal —
        // that is the salvage path (see `docs/FAULTS.md`).
        if let Some(store) = &self.store {
            if store.dir == dir {
                self.ensure_writable()?;
            }
        }
        // The generation must exceed whatever was ever written to `dir`:
        // regressing it would let a crash in the rename→WAL-reset window
        // leave a stale WAL that recovery mistakes for current (or rejects
        // as future). When this workbook is not the attached author of the
        // directory, read the watermark off the disk itself.
        let base = match &self.store {
            Some(store) if store.dir == dir => store.generation,
            _ => on_disk_generation(&vfs, &dir),
        };
        self.checkpoint_into(dir, base + 1, &vfs)
    }

    /// Reopen a workbook from a store directory: load the last checkpoint,
    /// replay the committed WAL tail (ARIES-lite redo — a torn tail is
    /// truncated) — table DML *and* sheet edits, including formula cells —
    /// recompute the formulas the tail dirtied, fold the result into a
    /// fresh checkpoint, and attach.
    ///
    /// ```
    /// use dataspread::Workbook;
    /// use dataspread_types::Value;
    /// let dir = std::env::temp_dir().join(format!("dsp-doc-open-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let mut wb = Workbook::new();
    /// wb.execute("CREATE TABLE t (x INT)").unwrap();
    /// wb.save(&dir).unwrap();
    /// // Logged through the WAL, durable at statement end:
    /// wb.execute("INSERT INTO t VALUES (41), (1)").unwrap();
    /// drop(wb); // "kill" the process
    ///
    /// let mut wb = Workbook::open(&dir).unwrap();
    /// let (_, rows) = wb.query("SELECT SUM(x) FROM t").unwrap();
    /// assert_eq!(rows[0][0], Value::Int(42));
    /// # std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn open(dir: impl AsRef<Path>) -> DsResult<Workbook> {
        Workbook::open_with_vfs(dir, os_vfs())
    }

    /// [`Workbook::open`] against an explicit [`Vfs`] — used by the fault
    /// suites to recover from an in-memory crash image and assert exactly
    /// the committed prefix survives.
    pub fn open_with_vfs(dir: impl AsRef<Path>, vfs: Arc<dyn Vfs>) -> DsResult<Workbook> {
        let dir = dir.as_ref().to_path_buf();
        // Meter the recovery I/O too: the workbook does not exist yet, so a
        // detached meter counts the load and is adopted into the registry
        // once the metadata decodes.
        let meter = VfsMeter::default();
        let vfs = MeteredVfs::wrap(vfs, meter.clone());
        let LoadedCatalog {
            catalog,
            extra_meta,
            generation,
            tail,
        } = load_catalog_with(&vfs, &dir)?;
        // Decoding installs the checkpointed statistics, which the table
        // replay below then maintains.
        let mut wb = decode_workbook_meta(&extra_meta, catalog)?;
        wb.obs.adopt_vfs_meter(meter);
        let replayed = tail.replay(&mut wb.catalog)?;
        // Replay committed engine ops — sheet edits and binding
        // create/drop — on top of the decoded state (the relational ops,
        // including CREATE/DROP TABLE DDL records, were replayed just
        // above). The sheets are detached here, so replay does not re-log
        // itself. A replayed structural edit rewrites other sheets'
        // references as the live edit did, in log order, so a formula
        // logged after it is not shifted by it.
        let mut structural = false;
        for op in &replayed.engine_ops {
            structural |= matches!(op, WalOp::SheetGrid { .. });
            wb.apply_engine_op(op)?;
        }
        // Bring every bound region up to date (mirror cells are never
        // WAL-logged — they are derivable): a mirror the checkpoint marked
        // current re-renders from the tail's change set, as the live
        // statements did; any other, or every one after a replayed DDL or
        // structural edit, diffs its whole region. Then fold the replayed
        // edits in: the flush recomputes the cells replay and the re-render
        // dirtied and their dependents — every formula when a replayed
        // structural edit or an older metadata version left the index
        // stale.
        let changes = if replayed.ddl || structural {
            for b in &mut wb.bindings.bindings {
                b.seen_version = u64::MAX;
            }
            None
        } else {
            Some(&replayed.changes)
        };
        wb.refresh_bindings(changes)?;
        wb.flush_grid();
        // Fold the replayed tail into a fresh checkpoint + empty WAL.
        wb.checkpoint_into(dir, generation + 1, &vfs)?;
        Ok(wb)
    }

    /// Apply one replayed engine operation — a sheet edit or a binding
    /// create/drop — to the decoded (detached) state.
    fn apply_engine_op(&mut self, op: &WalOp) -> DsResult<()> {
        let sheet = match op {
            WalOp::SheetCell { sheet, .. } | WalOp::SheetGrid { sheet, .. } => {
                self.sheet_id(sheet).map_err(|_| {
                    DsError::Storage(format!(
                        "wal recovery: sheet `{sheet}` not in the checkpoint"
                    ))
                })?
            }
            WalOp::BindCreate { meta } => {
                self.bindings.register(meta.clone());
                return Ok(());
            }
            WalOp::BindDrop { id } => {
                self.bindings.remove(*id);
                return Ok(());
            }
            _ => return Ok(()), // table ops were applied by the tail replay
        };
        match op {
            WalOp::SheetCell {
                row, col, content, ..
            } => {
                let s = &mut self.sheets[sheet.0];
                let addr = CellAddr::new(*row, *col);
                match content {
                    SheetCellContent::Value(v) => {
                        s.set_value(addr, v.clone())?;
                    }
                    SheetCellContent::Formula(src) => {
                        s.store_formula(addr, src)?;
                    }
                }
            }
            &WalOp::SheetGrid {
                edit, at, count, ..
            } => {
                let op = match edit {
                    GridEditKind::InsertRows => GridOp::InsertRows { at, count },
                    GridEditKind::DeleteRows => GridOp::DeleteRows { at, count },
                    GridEditKind::InsertCols => GridOp::InsertCols { at, count },
                    GridEditKind::DeleteCols => GridOp::DeleteCols { at, count },
                };
                self.edit_grid(sheet.0, op)?;
            }
            _ => {}
        }
        Ok(())
    }

    /// Rewrite the snapshot and reset the WAL at the attached store
    /// directory. Errors if no store is attached.
    ///
    /// Pre-rename failures (tmp snapshot write, the rename itself) roll
    /// back cleanly — the old snapshot and WAL stay authoritative — so the
    /// checkpoint is retried a few times with a short backoff before the
    /// error is surfaced. A failure *after* the rename poisons the WAL
    /// (see `docs/FAULTS.md`); the engine is read-only and retrying is
    /// pointless, so those errors return immediately.
    pub fn checkpoint(&mut self) -> DsResult<()> {
        // Same rule as `save_with_vfs`: a degraded engine never rewrites
        // the directory it is degraded on.
        self.ensure_writable()?;
        let (dir, generation, vfs) = match &self.store {
            Some(store) => (
                store.dir.clone(),
                store.generation + 1,
                Arc::clone(&store.vfs),
            ),
            None => {
                return Err(DsError::Storage(
                    "workbook has no durable store; call save(path) first".into(),
                ))
            }
        };
        let mut last = None;
        for delay_ms in [0u64, 1, 5] {
            if delay_ms > 0 {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
            }
            match self.checkpoint_into(dir.clone(), generation, &vfs) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if e.is_read_only() || !self.health().is_healthy() {
                        return Err(e);
                    }
                    last = Some(e);
                }
            }
        }
        Err(last.expect("retry loop reported at least one error"))
    }

    fn checkpoint_into(
        &mut self,
        dir: PathBuf,
        generation: u64,
        vfs: &Arc<dyn Vfs>,
    ) -> DsResult<()> {
        // The snapshot stores cached formula values and the log is reset
        // behind it, so they must be current: a checkpoint taken inside an
        // edit (a bound rename or column DDL) runs before that edit's
        // write-boundary flush.
        self.flush_grid();
        let wb_meta = encode_workbook_meta(self);
        // When checkpointing the attached directory, hand the current WAL
        // to the snapshot writer: a post-rename failure must poison it so
        // stale-WAL recovery hazards surface as read-only, not corruption.
        let prev_wal = self.store.as_ref().filter(|s| s.dir == dir);
        let handle = save_catalog_with(
            vfs,
            &dir,
            &self.catalog,
            &wb_meta,
            generation,
            prev_wal.map(|s| &*s.wal),
        )?;
        handle.attach_all(&self.catalog);
        // Sheets log their grid edits through the same WAL.
        for sheet in &mut self.sheets {
            sheet.attach_wal(Arc::clone(&handle.wal));
        }
        self.store = Some(handle);
        Ok(())
    }

    /// Is a durable store attached (DML WAL-logged, checkpoints enabled)?
    pub fn is_durable(&self) -> bool {
        self.store.is_some()
    }

    /// The attached store directory, if any.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.dir.as_path())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_relstore::codec::encode_value;
    use dataspread_relstore::codec::put_str;
    use dataspread_types::{CellError, Value};

    /// Version-1 metadata streams (pre-formula, pre-reserved-u64) must
    /// still decode: stores written by the previous release stay readable.
    #[test]
    fn version_1_meta_still_decodes() {
        let mut buf = vec![1u8]; // version 1
        buf.push(0); // reserved (default store kind)
        put_u32(&mut buf, 0); // current sheet
        put_u32(&mut buf, 1); // one sheet
        put_str(&mut buf, "Sheet1");
        buf.push(0); // reserved (store kind)
        put_u64(&mut buf, 1); // next_row_key
        put_u64(&mut buf, 0); // no registered rows
        put_u64(&mut buf, 1); // one cell
        put_u32(&mut buf, 0);
        put_u32(&mut buf, 0);
        encode_value(&mut buf, &Value::Int(7));
        // No formula section, no reserved u64: that's the v1 layout.
        let wb = decode_workbook_meta(&buf, Catalog::new()).unwrap();
        let s = wb.current_sheet();
        assert_eq!(wb.cell(s, CellAddr::new(0, 0)), Value::Int(7));
        assert_eq!(wb.sheet(s).formula_count(), 0);
    }

    /// Sheets once chose among three cell stores and recorded the choice
    /// (0 Tiled, 1 Block, 2 Naive) in the default-store byte and in each
    /// sheet's store byte. Both bytes are reserved now: a version-4 stream
    /// written with a Block and a Naive sheet decodes with identical cells
    /// and formula sources.
    #[test]
    fn block_and_naive_store_bytes_still_decode() {
        let (formula_at, src) = (CellAddr::new(0, 2), "=A1*2");
        let cells = [
            (CellAddr::new(0, 0), Value::Int(21)),
            (CellAddr::new(3, 1), Value::text("far")),
            (formula_at, Value::Int(42)), // the formula's cached value
        ];
        let mut buf = vec![4u8, 1]; // version 4; default store was Block
        put_u32(&mut buf, 1); // current sheet
        put_u64(&mut buf, 0); // reserved
        put_u32(&mut buf, 2); // two sheets
        for (name, store_byte) in [("Blocks", 1u8), ("Naive", 2)] {
            put_str(&mut buf, name);
            buf.push(store_byte);
            put_u64(&mut buf, 1); // next_row_key
            put_u64(&mut buf, 0); // no registered rows
            put_u64(&mut buf, cells.len() as u64);
            for (a, v) in &cells {
                put_u32(&mut buf, a.row);
                put_u32(&mut buf, a.col);
                encode_value(&mut buf, v);
            }
            put_u64(&mut buf, 1); // one formula
            put_u32(&mut buf, formula_at.row);
            put_u32(&mut buf, formula_at.col);
            put_str(&mut buf, src);
        }
        put_u64(&mut buf, 1); // binding id watermark
        put_u32(&mut buf, 0); // no bindings
        put_u32(&mut buf, 0); // no statistics
        let wb = decode_workbook_meta(&buf, Catalog::new()).unwrap();
        assert_eq!(wb.current_sheet(), wb.sheet_id("Naive").unwrap());
        for name in ["Blocks", "Naive"] {
            let sheet = wb.sheet(wb.sheet_id(name).unwrap());
            assert_eq!(sheet.cell_count(), cells.len(), "{name}");
            for (a, v) in &cells {
                assert_eq!(&sheet.value(*a), v, "{name}");
            }
            assert_eq!(sheet.formula_count(), 1, "{name}");
            assert_eq!(sheet.formula_text(formula_at), Some(src), "{name}");
        }
    }

    /// Sheets once kept a stable key for every display row, checkpointed as
    /// a key watermark and the key list. Both fields are reserved now: a
    /// version-4 stream carrying watermark 7 and keys 1..=6 decodes with
    /// identical cells and formula sources, and re-encodes (at the current
    /// version) with a zero watermark and an empty key list.
    #[test]
    fn registered_row_keys_still_decode() {
        let (formula_at, src) = (CellAddr::new(0, 1), "=A1*2");
        let cells = [
            (CellAddr::new(0, 0), Value::Int(21)),
            (formula_at, Value::Int(42)), // the formula's cached value
            (CellAddr::new(5, 0), Value::text("far")),
        ];
        let stream = |version: u8, watermark: u64, keys: &[u64]| {
            let mut buf = vec![version, 0]; // version; reserved
            put_u32(&mut buf, 0); // current sheet
            put_u64(&mut buf, 0); // reserved
            put_u32(&mut buf, 1); // one sheet
            put_str(&mut buf, "Keyed");
            buf.push(0); // reserved (store kind)
            put_u64(&mut buf, watermark);
            put_u64(&mut buf, keys.len() as u64);
            for &k in keys {
                put_u64(&mut buf, k);
            }
            put_u64(&mut buf, cells.len() as u64);
            for (a, v) in &cells {
                put_u32(&mut buf, a.row);
                put_u32(&mut buf, a.col);
                encode_value(&mut buf, v);
            }
            put_u64(&mut buf, 1); // one formula
            put_u32(&mut buf, formula_at.row);
            put_u32(&mut buf, formula_at.col);
            put_str(&mut buf, src);
            put_u64(&mut buf, 1); // binding id watermark
            put_u32(&mut buf, 0); // no bindings
            put_u32(&mut buf, 0); // no statistics
            buf
        };
        let old = stream(4, 7, &[1, 2, 3, 4, 5, 6]);
        let wb = decode_workbook_meta(&old, Catalog::new()).unwrap();
        let sheet = wb.sheet(wb.current_sheet());
        assert_eq!(sheet.cell_count(), cells.len());
        for (a, v) in &cells {
            assert_eq!(&sheet.value(*a), v);
        }
        assert_eq!(sheet.formula_count(), 1);
        assert_eq!(sheet.formula_text(formula_at), Some(src));
        assert_eq!(encode_workbook_meta(&wb), stream(WB_META_VERSION, 0, &[]));
    }

    /// Cached formula values are trusted only from a stream written under
    /// the current evaluation semantics. A store whose metadata predates
    /// version 5 recomputes every formula once on open — here a cached
    /// `#NAME?` an older evaluator left beside `=A1*2` — while the same
    /// bytes at the current version open as written.
    #[test]
    fn older_streams_recompute_cached_values_on_open() {
        let stream = |version: u8| {
            let mut buf = vec![version, 0]; // version; reserved
            put_u32(&mut buf, 0); // current sheet
            put_u64(&mut buf, 0); // reserved
            put_u32(&mut buf, 1); // one sheet
            put_str(&mut buf, "Sheet1");
            buf.push(0); // reserved (store kind)
            put_u64(&mut buf, 0); // reserved (row-key watermark)
            put_u64(&mut buf, 0); // reserved (no row keys)
            put_u64(&mut buf, 2); // two cells
            for (col, v) in [(0, Value::Int(21)), (1, Value::Error(CellError::Name))] {
                put_u32(&mut buf, 0);
                put_u32(&mut buf, col);
                encode_value(&mut buf, &v);
            }
            put_u64(&mut buf, 1); // one formula
            put_u32(&mut buf, 0);
            put_u32(&mut buf, 1);
            put_str(&mut buf, "=A1*2");
            put_u64(&mut buf, 1); // binding id watermark
            put_u32(&mut buf, 0); // no bindings
            put_u32(&mut buf, 0); // no statistics
            buf
        };
        let dir = std::env::temp_dir().join(format!("dsp-semver-{}", std::process::id()));
        let b1 = CellAddr::new(0, 1);
        for (version, shown) in [
            (4, Value::Int(42)),
            (WB_META_VERSION, Value::Error(CellError::Name)),
        ] {
            let _ = std::fs::remove_dir_all(&dir);
            save_catalog_with(&os_vfs(), &dir, &Catalog::new(), &stream(version), 1, None).unwrap();
            let wb = Workbook::open(&dir).unwrap();
            assert_eq!(wb.cell(wb.current_sheet(), b1), shown, "version {version}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Version 6 records whether each binding's mirror was current when the
    /// checkpoint was written, and open brings such a mirror up to date
    /// from the WAL tail alone. A version-5 stream has no such byte, so
    /// open re-renders every mirror in full. Shown with a checkpointed
    /// mirror cell its table disagrees with: the current stream opens
    /// showing it as written, the older one repairs it.
    #[test]
    fn older_streams_rerender_every_mirror_on_open() {
        let mut wb = Workbook::new();
        wb.execute_script("CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)")
            .unwrap();
        let s = wb.current_sheet();
        wb.bind_table(s, CellAddr::new(0, 0), "t", crate::BindModel::Rom)
            .unwrap();
        let a2 = CellAddr::new(1, 0);
        wb.sheets[s.0].write_bound(a2, Value::Int(99));
        let current = encode_workbook_meta(&wb);
        let mut older = current.clone();
        older[0] = 5;
        older.pop(); // the one binding's current byte
        let dir = std::env::temp_dir().join(format!("dsp-mirror-ver-{}", std::process::id()));
        for (stream, shown) in [(current, Value::Int(99)), (older, Value::Int(2))] {
            let _ = std::fs::remove_dir_all(&dir);
            save_catalog_with(&os_vfs(), &dir, &wb.catalog, &stream, 1, None).unwrap();
            let reopened = Workbook::open(&dir).unwrap();
            assert_eq!(reopened.cell(s, a2), shown, "version {}", stream[0]);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Structural edits that would leave the address space are refused on a
    /// saved workbook before anything reaches the WAL: every cell and
    /// formula stays put, and a reopen shows the same grid. Edits that end
    /// exactly at the edge still succeed, live and on replay.
    #[test]
    fn out_of_range_structural_edits_are_refused_unlogged() {
        use dataspread_types::addr::{MAX_COL, MAX_ROW};
        let dir = std::env::temp_dir().join(format!("dsp-span-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (a11, b1) = (CellAddr::new(10, 0), CellAddr::new(0, 1));
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a11, "x").unwrap();
        wb.set_input(s, b1, "=A11").unwrap();
        wb.save(&dir).unwrap();
        let wal_len = || {
            std::fs::metadata(dir.join(snapshot::WAL_FILE))
                .unwrap()
                .len()
        };
        let grid = |wb: &mut Workbook| {
            let bounds = wb.sheet(s).used_bounds();
            let text = wb.formula_text(s, b1).map(str::to_string);
            (bounds, wb.cell(s, a11), wb.cell(s, b1), text)
        };
        let (before, logged) = (grid(&mut wb), wal_len());
        let refused = [
            wb.delete_rows(s, 5, u32::MAX),
            wb.insert_rows(s, 1, MAX_ROW - 9),
            wb.insert_cols(s, 0, u32::MAX),
            wb.delete_cols(s, 1, MAX_COL + 1),
        ];
        for r in refused {
            assert!(matches!(r, Err(DsError::Interface(_))), "{r:?}");
        }
        assert_eq!(grid(&mut wb), before);
        assert_eq!(wal_len(), logged, "nothing logged");
        drop(wb);
        let mut wb = Workbook::open(&dir).unwrap();
        assert_eq!(grid(&mut wb), before);

        // B1 moves onto the last column; the deleted span ends at the last
        // row. Both replay on reopen.
        wb.insert_cols(s, 1, MAX_COL - 1).unwrap();
        wb.delete_rows(s, 11, MAX_ROW - 10).unwrap();
        drop(wb);
        let mut wb = Workbook::open(&dir).unwrap();
        let moved = CellAddr::new(0, MAX_COL);
        assert_eq!(wb.formula_text(s, moved), Some("=A11"));
        assert_eq!(wb.cell(s, moved), Value::text("x"));
        // A11 moves onto the last row, and survives a reopen: the
        // checkpoint walks the sheet's two tiles, not the rows between.
        wb.insert_rows(s, 1, MAX_ROW - 10).unwrap();
        let last = CellAddr::new(MAX_ROW, 0);
        for reopen in [false, true] {
            if reopen {
                drop(wb);
                wb = Workbook::open(&dir).unwrap();
            }
            assert_eq!(wb.cell(s, last), Value::text("x"));
            assert_eq!(wb.formula_text(s, moved), Some("=A1073741824"));
            assert_eq!(wb.cell(s, moved), Value::text("x"));
        }
        drop(wb);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn references_pushed_off_the_sheet_reopen_as_ref_errors() {
        let dir = std::env::temp_dir().join(format!("dsp-offsheet-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        let data = wb.add_sheet("Data").unwrap();
        let b1 = CellAddr::new(0, 1);
        // A reference to the last row, from the sheet itself and from
        // another sheet; the used cells end far above it.
        wb.set_input(s, b1, "=A1073741824").unwrap();
        wb.set_input(data, b1, "=Sheet1!A1073741824+1").unwrap();
        wb.save(&dir).unwrap();
        wb.insert_rows(s, 0, 1).unwrap();
        let own = CellAddr::new(1, 1);
        let shown = |wb: &mut Workbook| {
            let own_text = wb.formula_text(s, own).map(str::to_string);
            let data_text = wb.formula_text(data, b1).map(str::to_string);
            (wb.cell(s, own), own_text, wb.cell(data, b1), data_text)
        };
        let expected = (
            Value::Error(CellError::Ref),
            Some("=#REF!".to_string()),
            Value::Error(CellError::Ref),
            Some("=(#REF!+1)".to_string()),
        );
        assert_eq!(shown(&mut wb), expected);
        drop(wb);
        let mut wb = Workbook::open(&dir).unwrap();
        assert_eq!(shown(&mut wb), expected);
        drop(wb);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A crafted sheet count must fail as a truncated stream, not abort
    /// allocating for it.
    #[test]
    fn huge_sheet_count_is_a_storage_error() {
        let mut buf = vec![WB_META_VERSION, 0u8];
        put_u32(&mut buf, 0); // current sheet
        put_u64(&mut buf, 0); // reserved
        put_u32(&mut buf, u32::MAX); // sheet count
        let err = decode_workbook_meta(&buf, Catalog::new()).err().unwrap();
        assert!(matches!(err, DsError::Storage(_)), "{err:?}");
    }

    #[test]
    fn future_meta_versions_are_rejected() {
        let buf = vec![WB_META_VERSION + 1, 0u8];
        assert!(decode_workbook_meta(&buf, Catalog::new()).is_err());
    }
}
