//! The concurrent engine: snapshot-isolated parallel reads and sharded
//! parallel writes over one shared workbook.
//!
//! Three access tiers, cheapest first (protocol details and the full lock
//! discipline: `docs/CONCURRENCY.md`):
//!
//! 1. **[`WorkbookSnapshot`]** — an owned, immutable copy-on-write image of
//!    every table. Taking one costs O(#pages) `Arc` clones per table; using
//!    one costs nothing in locks. Scans over it never block and are never
//!    blocked.
//! 2. **[`ReadSession`]** — a borrowed `&Workbook` view that runs `SELECT`s
//!    against the live catalog. Each table scan plans against a
//!    [`TableSnapshot`] taken at plan time, so the query holds a table's
//!    read lock only for the snapshot clone, not for the scan.
//! 3. **[`SharedWorkbook`]** — `Arc<RwLock<Workbook>>` for multi-threaded
//!    engines. Readers share the workbook read lock; whole-workbook edits
//!    (sheet input, SQL DML/DDL — anything that may touch the
//!    workbook-global formula graph or bindings) take the write lock; and
//!    [`SharedWorkbook::with_table_mut`] threads DML to *one* table through
//!    the workbook **read** lock plus that table's shard write lock, so
//!    writers to disjoint tables run in parallel and each logged operation
//!    rides the WAL's group commit.
//!
//! Snapshot semantics: a snapshot (tier 1, or the per-scan snapshots of
//! tier 2) observes exactly the operations that completed before it was
//! taken — never a torn row, never an uncommitted in-progress write,
//! because the snapshot clone itself runs under the table's read lock which
//! excludes the writer holding the shard exclusively.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use dataspread_relstore::{Table, TableSnapshot};
use dataspread_sql::ast::Statement;
use dataspread_sql::parser::parse_statement;
use dataspread_types::{DsError, DsResult, Value};

use crate::engine::QueryResult;
use crate::exec::{run_select, ExecCtx};
use crate::workbook::Workbook;

// ---- tier 2: the borrowed read session ---------------------------------

/// A `&self`-based query handle over a workbook: runs `SELECT` statements
/// (and takes snapshots) without `&mut Workbook`.
///
/// An edit of a [`Workbook`] is finished when it returns: every method
/// that changes sheet or table state recomputes dependent formulas and
/// re-renders bound regions before returning, whether it succeeded or not.
/// So a workbook *at rest* — one no thread is currently mutating — always
/// shows computed values, and `RANGEVALUE`/`RANGETABLE` resolve against
/// that grid with no flush of their own.
pub struct ReadSession<'a> {
    wb: &'a Workbook,
}

impl Workbook {
    /// Open a read-only query session. See [`ReadSession`].
    pub fn read_session(&self) -> ReadSession<'_> {
        ReadSession { wb: self }
    }

    /// An owned consistent image of every catalog table. See
    /// [`WorkbookSnapshot`].
    pub fn snapshot(&self) -> WorkbookSnapshot {
        self.read_session().snapshot()
    }
}

impl ReadSession<'_> {
    /// Run one `SELECT` and return `(column names, rows)`. Any other
    /// statement kind is rejected — mutation goes through `&mut Workbook`
    /// (or [`SharedWorkbook::with_table_mut`]).
    pub fn query(&self, sql: &str) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
        let stmt = parse_statement(sql)?;
        let sel = match stmt {
            Statement::Select(sel) => sel,
            other => {
                let kind = match other {
                    Statement::Select(_) => unreachable!(),
                    Statement::Insert { .. } => "INSERT",
                    Statement::Update { .. } => "UPDATE",
                    Statement::Delete { .. } => "DELETE",
                    Statement::CreateTable { .. } => "CREATE TABLE",
                    Statement::DropTable { .. } => "DROP TABLE",
                    _ => "a non-SELECT statement",
                };
                return Err(DsError::Sql(format!(
                    "read session accepts SELECT only, got {kind}"
                )));
            }
        };
        let resolver = self.wb.sheet_ctx();
        let ctx = ExecCtx {
            catalog: self.wb.catalog(),
            resolver: &resolver,
            metrics: self.wb.obs.exec.clone(),
        };
        run_select(&ctx, &sel)
    }

    /// Like [`ReadSession::query`], shaped as a [`QueryResult`].
    pub fn execute(&self, sql: &str) -> DsResult<QueryResult> {
        let (columns, rows) = self.query(sql)?;
        Ok(QueryResult::Rows { columns, rows })
    }

    /// A consistent snapshot of one table.
    pub fn table_snapshot(&self, table: &str) -> DsResult<TableSnapshot> {
        self.wb.catalog().snapshot_of(table)
    }

    /// A consistent per-table image of the whole catalog. Tables are
    /// snapshot one at a time (each under its own read lock); the set is
    /// point-in-time per table, not across tables.
    pub fn snapshot(&self) -> WorkbookSnapshot {
        let catalog = self.wb.catalog();
        let mut tables = HashMap::new();
        for name in catalog.table_names() {
            if let Ok(snap) = catalog.snapshot_of(&name) {
                tables.insert(name.to_ascii_lowercase(), snap);
            }
        }
        WorkbookSnapshot { tables }
    }
}

// ---- tier 1: the owned snapshot ----------------------------------------

/// An owned, immutable image of a workbook's tables: every lookup and scan
/// runs without taking any lock, isolated from all later writes.
///
/// Cheap by construction — pages are copy-on-write ([`TableSnapshot`]), so
/// the snapshot shares page memory with the live tables until a writer
/// actually changes a shared page.
#[derive(Clone, Debug)]
pub struct WorkbookSnapshot {
    /// Keyed by lower-cased table name (SQL identifiers are
    /// case-insensitive).
    tables: HashMap<String, TableSnapshot>,
}

impl WorkbookSnapshot {
    /// The snapshot of one table, by (case-insensitive) name.
    pub fn table(&self, name: &str) -> DsResult<&TableSnapshot> {
        self.tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| DsError::TableNotFound(name.to_string()))
    }

    /// Table names, sorted for deterministic output.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.values().map(|t| t.name().to_string()).collect();
        names.sort();
        names
    }

    /// Number of tables captured.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no tables were captured.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

// ---- tier 3: the shared workbook ---------------------------------------

/// A workbook behind `Arc<RwLock<..>>`: clone handles freely across
/// threads.
///
/// Lock layering (top to bottom; see `docs/CONCURRENCY.md`):
///
/// * the **workbook lock** — read-shared by queries and by
///   [`SharedWorkbook::with_table_mut`], write-exclusive for whole-workbook
///   edits ([`SharedWorkbook::write`]);
/// * each table's **shard lock** — what actually serializes writers of one
///   table, which is exactly what lets writers of *different* tables run
///   in parallel under the shared workbook read lock.
///
/// Poisoning is absorbed (`into_inner`): a panicking writer may leave a
/// half-applied *logical* edit, but never a torn page — page mutation goes
/// through `&mut` methods that complete or panic before publishing.
#[derive(Clone, Debug)]
pub struct SharedWorkbook {
    inner: Arc<RwLock<Workbook>>,
}

impl SharedWorkbook {
    /// Wrap a workbook for shared use.
    pub fn new(wb: Workbook) -> Self {
        SharedWorkbook {
            inner: Arc::new(RwLock::new(wb)),
        }
    }

    /// Run `f` under the workbook read lock with a [`ReadSession`].
    /// Concurrent callers proceed in parallel; whole-workbook writers wait.
    pub fn read<R>(&self, f: impl FnOnce(&ReadSession<'_>) -> R) -> R {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        f(&g.read_session())
    }

    /// Run `f` under the workbook **write** lock — the path for sheet
    /// edits, SQL DML/DDL through [`Workbook::execute`], save/checkpoint:
    /// anything that may touch the workbook-global formula graph, the
    /// bindings, or the sheet grid.
    pub fn write<R>(&self, f: impl FnOnce(&mut Workbook) -> R) -> R {
        let mut g = self.inner.write().unwrap_or_else(|e| e.into_inner());
        f(&mut g)
    }

    /// Parallel-write fast path: run `f` on one table under the workbook
    /// *read* lock plus that table's shard write lock. DML to disjoint
    /// tables proceeds concurrently, and with a durable store attached each
    /// logged operation auto-commits through the WAL's group commit (N
    /// concurrent committers, ~1 fsync per batch).
    ///
    /// This is the HTAP path for tables **not** bound to sheet regions: it
    /// bypasses binding re-sync and formula recompute (there is no sheet
    /// state to update). Use [`SharedWorkbook::write`] +
    /// [`Workbook::execute`] for bound tables.
    ///
    /// Deadlock discipline: `f` must not touch the catalog or any other
    /// shard — it owns exactly one shard lock for its duration.
    pub fn with_table_mut<R>(
        &self,
        table: &str,
        f: impl FnOnce(&mut Table) -> DsResult<R>,
    ) -> DsResult<R> {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        // Reject before taking the shard lock: once the engine is read-only
        // every write path must fail without mutating in-memory state.
        g.ensure_writable()?;
        let mut t = g.catalog().get_mut(table)?;
        f(&mut t)
    }

    /// The engine's current health, under the workbook read lock. Health is
    /// derived from the attached WAL's poison state, so every clone of this
    /// handle observes a degradation the instant it happens.
    pub fn health(&self) -> crate::workbook::EngineHealth {
        let g = self.inner.read().unwrap_or_else(|e| e.into_inner());
        g.health()
    }

    /// Take a [`WorkbookSnapshot`] under the workbook read lock.
    pub fn snapshot(&self) -> WorkbookSnapshot {
        self.read(|s| s.snapshot())
    }

    /// Convenience: one `SELECT` under the read lock.
    pub fn query(&self, sql: &str) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
        self.read(|s| s.query(sql))
    }

    /// Recover the owned workbook if this is the last handle; otherwise
    /// hand the shared handle back.
    pub fn try_into_inner(self) -> Result<Workbook, SharedWorkbook> {
        match Arc::try_unwrap(self.inner) {
            Ok(lock) => Ok(lock.into_inner().unwrap_or_else(|e| e.into_inner())),
            Err(inner) => Err(SharedWorkbook { inner }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn seeded() -> Workbook {
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE t (id INT, v INT)").unwrap();
        wb.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
            .unwrap();
        wb
    }

    #[test]
    fn read_session_selects_without_mut() {
        let wb = seeded();
        let s = wb.read_session();
        let (cols, rows) = s.query("SELECT v FROM t WHERE id >= 2").unwrap();
        assert_eq!(cols, vec!["v"]);
        assert_eq!(rows, vec![vec![Value::Int(20)], vec![Value::Int(30)]]);
    }

    #[test]
    fn read_session_rejects_dml() {
        let wb = seeded();
        let err = wb.read_session().query("DELETE FROM t").unwrap_err();
        assert!(matches!(err, DsError::Sql(_)), "{err:?}");
    }

    #[test]
    fn workbook_snapshot_is_isolated() {
        let mut wb = seeded();
        let snap = wb.snapshot();
        wb.execute("INSERT INTO t VALUES (4, 40)").unwrap();
        wb.execute("CREATE TABLE u (x INT)").unwrap();
        assert_eq!(snap.table("t").unwrap().row_count(), 3, "pre-insert image");
        assert!(snap.table("u").is_err(), "created after the snapshot");
        assert_eq!(snap.table_names(), vec!["t"]);
        assert_eq!(wb.catalog().get("t").unwrap().row_count(), 4);
    }

    #[test]
    fn shared_parallel_disjoint_writes_and_reads() {
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE a (id INT)").unwrap();
        wb.execute("CREATE TABLE b (id INT)").unwrap();
        let shared = SharedWorkbook::new(wb);
        let writers: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let sh = shared.clone();
                thread::spawn(move || {
                    for i in 0..100 {
                        sh.with_table_mut(name, |t| t.insert(vec![Value::Int(i)]))
                            .unwrap();
                    }
                })
            })
            .collect();
        let reader = {
            let sh = shared.clone();
            thread::spawn(move || {
                // Row counts only ever grow; a snapshot never sees a torn row.
                let mut last = 0;
                loop {
                    let n = sh.snapshot().table("a").unwrap().row_count();
                    assert!(n >= last);
                    last = n;
                    if n == 100 {
                        break;
                    }
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap();
        let wb = shared.try_into_inner().expect("last handle");
        assert_eq!(wb.catalog().get("a").unwrap().row_count(), 100);
        assert_eq!(wb.catalog().get("b").unwrap().row_count(), 100);
    }
}
