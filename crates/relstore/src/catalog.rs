//! The catalog: named tables, the entry point for the SQL layer and the
//! interface manager.
//!
//! Each table sits behind its own `Arc<RwLock<..>>` **shard**, so the catalog
//! can hand out read and write guards through `&self`: writers to *disjoint*
//! tables proceed in parallel, readers of the same table share the lock, and
//! a thread can clone a shard handle ([`Catalog::shard`]) and work on it
//! without holding any catalog-wide lock. Only DDL — creating, dropping, or
//! adopting a table — mutates the name map and therefore requires
//! `&mut self`.
//!
//! Lock discipline (see `docs/CONCURRENCY.md`): take at most one shard lock
//! at a time, and never request a write guard for a shard while holding its
//! read guard on the same thread.

use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use dataspread_types::{DsError, DsResult};

use crate::schema::Schema;
use crate::table::{GroupPolicy, Table, TableSnapshot};

/// Default layout for new tables: the DataSpread hybrid with 4-column groups.
pub const DEFAULT_POLICY: GroupPolicy = GroupPolicy::Hybrid { max_group_width: 4 };

/// A table's shard: the lock readers and writers of that table contend on.
pub type TableShard = Arc<RwLock<Table>>;

/// Shared read guard over one table (returned by [`Catalog::get`]).
/// Dereferences to [`Table`].
pub struct TableRef<'a>(RwLockReadGuard<'a, Table>);

impl Deref for TableRef<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.0
    }
}

/// Exclusive write guard over one table (returned by [`Catalog::get_mut`]).
/// Dereferences to [`Table`].
pub struct TableRefMut<'a>(RwLockWriteGuard<'a, Table>);

impl Deref for TableRefMut<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        &self.0
    }
}

impl DerefMut for TableRefMut<'_> {
    fn deref_mut(&mut self) -> &mut Table {
        &mut self.0
    }
}

fn read_shard(shard: &RwLock<Table>) -> RwLockReadGuard<'_, Table> {
    shard.read().unwrap_or_else(|e| e.into_inner())
}

fn write_shard(shard: &RwLock<Table>) -> RwLockWriteGuard<'_, Table> {
    shard.write().unwrap_or_else(|e| e.into_inner())
}

/// A named collection of tables, each behind its own shard lock.
#[derive(Debug)]
pub struct Catalog {
    /// Keyed by lower-cased name (SQL identifiers are case-insensitive).
    tables: HashMap<String, TableShard>,
}

impl Default for Catalog {
    fn default() -> Self {
        Catalog::new()
    }
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog {
            tables: HashMap::new(),
        }
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    /// Create a table with the default (hybrid) layout.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> DsResult<TableRefMut<'_>> {
        self.create_table_with_policy(name, schema, DEFAULT_POLICY)
    }

    /// Create a table under an explicit grouping policy.
    pub fn create_table_with_policy(
        &mut self,
        name: &str,
        schema: Schema,
        policy: GroupPolicy,
    ) -> DsResult<TableRefMut<'_>> {
        if name.is_empty() {
            return Err(DsError::Schema("empty table name".into()));
        }
        let k = Self::key(name);
        if self.tables.contains_key(&k) {
            return Err(DsError::Schema(format!("table `{name}` already exists")));
        }
        self.tables.insert(
            k.clone(),
            Arc::new(RwLock::new(Table::new(name, schema, policy))),
        );
        match self.tables.get(&k) {
            Some(shard) => Ok(TableRefMut(write_shard(shard))),
            // Unreachable (we just inserted `k`), but a typed error beats
            // a panic inside the storage layer.
            None => Err(DsError::Storage(format!("create_table: {k} not in map"))),
        }
    }

    /// Remove a table. If some thread still holds a cloned shard handle the
    /// table itself survives until that handle drops, but it is no longer
    /// reachable by name.
    pub fn drop_table(&mut self, name: &str) -> DsResult<()> {
        self.tables
            .remove(&Self::key(name))
            .map(|_| ())
            .ok_or_else(|| DsError::TableNotFound(name.to_string()))
    }

    /// Shared (read-locked) access to a table by (case-insensitive) name.
    pub fn get(&self, name: &str) -> DsResult<TableRef<'_>> {
        self.tables
            .get(&Self::key(name))
            .map(|s| TableRef(read_shard(s)))
            .ok_or_else(|| DsError::TableNotFound(name.to_string()))
    }

    /// Exclusive (write-locked) access to a table by name. Takes `&self`:
    /// the shard lock, not the catalog borrow, is what serializes writers —
    /// which is exactly what lets writers to *different* tables run in
    /// parallel.
    pub fn get_mut(&self, name: &str) -> DsResult<TableRefMut<'_>> {
        self.tables
            .get(&Self::key(name))
            .map(|s| TableRefMut(write_shard(s)))
            .ok_or_else(|| DsError::TableNotFound(name.to_string()))
    }

    /// Clone a table's shard handle for a worker thread: lock it with
    /// `read()`/`write()` without holding any reference to the catalog.
    pub fn shard(&self, name: &str) -> DsResult<TableShard> {
        self.tables
            .get(&Self::key(name))
            .cloned()
            .ok_or_else(|| DsError::TableNotFound(name.to_string()))
    }

    /// A consistent snapshot of one table (shorthand for
    /// `get(name)?.snapshot()`; the read lock is held only for the O(#pages)
    /// pointer clone).
    pub fn snapshot_of(&self, name: &str) -> DsResult<TableSnapshot> {
        Ok(self.get(name)?.snapshot())
    }

    /// Does a table with this name exist?
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// Table names, sorted for deterministic output.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .values()
            .map(|s| read_shard(s).name().to_string())
            .collect();
        names.sort();
        names
    }

    /// Every table's shard handle (attach/detach of the durable store,
    /// checkpointing). Iteration order is unspecified.
    pub fn shards(&self) -> Vec<TableShard> {
        self.tables.values().cloned().collect()
    }

    /// Adopt an already-built table (snapshot decode).
    pub(crate) fn insert_table(&mut self, table: Table) -> DsResult<()> {
        let k = Self::key(table.name());
        if self.tables.contains_key(&k) {
            return Err(DsError::Schema(format!(
                "table `{}` already exists",
                table.name()
            )));
        }
        self.tables.insert(k, Arc::new(RwLock::new(table)));
        Ok(())
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when the catalog holds no tables.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use dataspread_types::{DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![ColumnDef::new("id", DataType::Int)]).unwrap()
    }

    #[test]
    fn create_get_drop() {
        let mut c = Catalog::new();
        c.create_table("T1", schema()).unwrap();
        assert!(c.contains("t1"), "case-insensitive");
        assert!(c.get("T1").is_ok());
        assert!(c.create_table("t1", schema()).is_err(), "duplicate");
        c.drop_table("T1").unwrap();
        assert!(c.get("t1").is_err());
        assert!(c.drop_table("t1").is_err());
    }

    #[test]
    fn names_sorted() {
        let mut c = Catalog::new();
        c.create_table("zeta", schema()).unwrap();
        c.create_table("alpha", schema()).unwrap();
        assert_eq!(c.table_names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn mutate_through_catalog() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        c.get_mut("t").unwrap().insert(vec![Value::Int(1)]).unwrap();
        assert_eq!(c.get("t").unwrap().row_count(), 1);
    }

    #[test]
    fn parallel_writes_to_disjoint_tables() {
        let mut c = Catalog::new();
        c.create_table("a", schema()).unwrap();
        c.create_table("b", schema()).unwrap();
        let c = std::sync::Arc::new(c);
        let handles: Vec<_> = ["a", "b"]
            .into_iter()
            .map(|name| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        c.get_mut(name)
                            .unwrap()
                            .insert(vec![Value::Int(i)])
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get("a").unwrap().row_count(), 200);
        assert_eq!(c.get("b").unwrap().row_count(), 200);
    }

    #[test]
    fn shard_handle_outlives_catalog_borrow() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        let shard = c.shard("t").unwrap();
        let handle = std::thread::spawn(move || {
            let mut t = shard.write().unwrap();
            t.insert(vec![Value::Int(7)]).unwrap();
        });
        handle.join().unwrap();
        assert_eq!(c.get("t").unwrap().row_count(), 1);
        assert!(c.shard("missing").is_err());
    }
}
