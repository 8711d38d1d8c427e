//! Checkpointing and recovery: the durable store's control plane.
//!
//! A durable store is a directory holding two files — the page file
//! (`data.dsp`, see [`crate::pager`]) and the write-ahead log (`wal.dsp`,
//! see [`crate::wal`]). This module owns the protocol that keeps the pair
//! consistent (full layouts and the step-by-step recovery procedure are in
//! `docs/STORAGE.md`):
//!
//! **Checkpoint** ([`save_catalog`]): serialize every table's pages and
//! metadata into a *fresh* page file written beside the old one
//! (`data.dsp.tmp`), fsync it, atomically rename it over `data.dsp`, then
//! reset the WAL stamped with the new checkpoint *generation*. A crash at
//! any point leaves either the old pair or the new pair readable — the
//! rename is the commit point, and a WAL whose generation is older than the
//! page file's is recognized as already folded in and discarded.
//!
//! **Recovery** runs in two steps. [`load_catalog`] opens the page file
//! (header and frame CRCs validate every byte read), decodes the catalog as
//! of the checkpoint, and scans the WAL — stopping at the first torn or
//! corrupt record — keeping the operations of transactions whose `COMMIT`
//! made it to disk. [`WalTail::replay`] then applies them in commit order.
//! Between the two the caller may install what the checkpoint carried
//! beside the catalog (the engine installs each table's statistics, which
//! replay then maintains as live DML did). The caller then re-checkpoints,
//! folding the replayed tail into a fresh snapshot.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use dataspread_types::{DsError, DsResult};

use crate::catalog::Catalog;
use crate::change::ChangeSet;
use crate::codec::{put_u32, Cursor};
use crate::pager::PageFile;
use crate::table::Table;
use crate::vfs::{os_vfs, Vfs};
use crate::wal::{apply_committed, committed_ops, scan_wal_with, WalOp, WalWriter};

/// File name of the page file inside a store directory.
pub const DATA_FILE: &str = "data.dsp";
/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.dsp";

/// An attached durable store: shared handles to the page file and WAL plus
/// the checkpoint generation they agree on.
#[derive(Debug, Clone)]
pub struct StoreHandle {
    /// Directory holding `data.dsp` and `wal.dsp`.
    pub dir: PathBuf,
    /// The checkpointed page file. Nothing writes to it until the next
    /// checkpoint replaces it.
    pub pager: Arc<PageFile>,
    /// The redo log (shared with tables for DML logging).
    pub wal: Arc<WalWriter>,
    /// Checkpoint generation of this pair.
    pub generation: u64,
    /// The filesystem this store lives on (threaded into re-checkpoints).
    pub vfs: Arc<dyn Vfs>,
}

impl StoreHandle {
    /// Attach every table in `catalog` to this store's WAL.
    pub fn attach_all(&self, catalog: &Catalog) {
        for shard in catalog.shards() {
            shard
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .attach_durability(Arc::clone(&self.wal));
        }
    }
}

/// A checkpoint decoded by [`load_catalog`], with its WAL tail not yet
/// applied.
#[derive(Debug)]
pub struct LoadedCatalog {
    /// The catalog as of the checkpoint (tables detached — call
    /// [`StoreHandle::attach_all`] after re-checkpointing).
    pub catalog: Catalog,
    /// Engine-level metadata stored alongside the catalog (sheets etc.).
    pub extra_meta: Vec<u8>,
    /// Generation of the checkpoint the catalog was decoded from.
    pub generation: u64,
    /// The committed WAL tail: [`WalTail::replay`] it onto `catalog`.
    pub tail: WalTail,
}

/// The committed operations of a store's WAL, in commit order, waiting to
/// be replayed onto the checkpoint they belong to.
#[derive(Debug, Default)]
pub struct WalTail {
    ops: Vec<WalOp>,
}

/// What [`WalTail::replay`] applied, and what it left to the engine.
#[derive(Debug)]
pub struct Replayed {
    /// Committed *table* operations (DML and `CREATE`/`DROP TABLE`) applied
    /// to the catalog.
    pub table_ops: usize,
    /// The replayed row operations as one change set, in commit order —
    /// the same entries the live statements produced.
    pub changes: ChangeSet,
    /// The tail created or dropped a table, so a table name may stand for
    /// two tables across `changes`.
    pub ddl: bool,
    /// Committed engine-layer operations (sheet edits, binding
    /// create/drop), in commit order. The relational layer cannot apply
    /// these; the engine replays them against its decoded sheets and
    /// binding registry.
    pub engine_ops: Vec<WalOp>,
}

impl WalTail {
    /// Apply the committed table operations to `catalog` — the one
    /// [`load_catalog`] decoded, detached so replay does not re-log itself
    /// (ARIES-lite redo) — and hand back their change set and the engine
    /// operations.
    pub fn replay(self, catalog: &mut Catalog) -> DsResult<Replayed> {
        let mut changes = ChangeSet::default();
        let table_ops = apply_committed(catalog, &self.ops, &mut changes)?;
        let ddl = (self.ops.iter())
            .any(|op| matches!(op, WalOp::CreateTable { .. } | WalOp::DropTable { .. }));
        let engine_ops = self
            .ops
            .into_iter()
            .filter(|op| op.is_engine_op())
            .collect();
        Ok(Replayed {
            table_ops,
            changes,
            ddl,
            engine_ops,
        })
    }
}

/// Checkpoint `catalog` (plus opaque `extra_meta` from the engine layer)
/// into `dir` as generation `generation`, resetting the WAL. Returns the
/// fresh store handles; the caller should attach them to the catalog's
/// tables via [`StoreHandle::attach_all`].
///
/// `generation` must strictly exceed every generation previously written
/// to `dir` (the [`StoreHandle::generation`] of the store being
/// checkpointed, or the on-disk header's when adopting an existing
/// directory): a regressed generation would let a crash between the
/// snapshot rename and the WAL reset leave a stale WAL that recovery
/// mistakes for current. `Workbook::save` derives it accordingly.
pub fn save_catalog(
    dir: &Path,
    catalog: &Catalog,
    extra_meta: &[u8],
    generation: u64,
) -> DsResult<StoreHandle> {
    save_catalog_with(&os_vfs(), dir, catalog, extra_meta, generation, None)
}

/// [`save_catalog`] against an explicit [`Vfs`], with explicit failure
/// semantics.
///
/// A failure *before* the rename commit point is a clean rollback: the
/// temporary file is removed (best effort), the previous pair is untouched,
/// and the checkpoint may simply be retried. A failure *after* the rename
/// is the dangerous window — the new snapshot is already in place, so the
/// old-generation WAL (which `prev_wal` still appends to) would be
/// **discarded** by the next recovery. Acking any further commit into it
/// would silently lose data; `prev_wal` is therefore poisoned, flipping
/// the engine read-only until reopen.
pub fn save_catalog_with(
    vfs: &Arc<dyn Vfs>,
    dir: &Path,
    catalog: &Catalog,
    extra_meta: &[u8],
    generation: u64,
    prev_wal: Option<&WalWriter>,
) -> DsResult<StoreHandle> {
    vfs.create_dir_all(dir)
        .map_err(|e| DsError::io("store dir create", dir, None, &e))?;
    let data_path = dir.join(DATA_FILE);
    let tmp_path = dir.join(format!("{DATA_FILE}.tmp"));

    // 1. Write the complete snapshot into a temporary page file. Any error
    //    here rolls back cleanly: remove the tmp file and report.
    let write_tmp = || -> DsResult<()> {
        let pager = PageFile::create_with(vfs, &tmp_path, generation)?;
        let mut meta = Vec::new();
        let names = catalog.table_names();
        put_u32(&mut meta, names.len() as u32);
        for name in &names {
            catalog.get(name)?.encode_snapshot(&pager, &mut meta)?;
        }
        put_u32(&mut meta, extra_meta.len() as u32);
        meta.extend_from_slice(extra_meta);
        pager.write_meta(&meta)?;
        pager.sync()?;
        Ok(())
    };
    if let Err(e) = write_tmp() {
        let _ = vfs.remove_file(&tmp_path);
        return Err(e);
    }

    // 2. The commit point: atomically replace the old snapshot. A failed
    //    rename is still pre-commit — roll back and report.
    if let Err(e) = vfs.rename(&tmp_path, &data_path) {
        let _ = vfs.remove_file(&tmp_path);
        return Err(DsError::io("snapshot rename", &data_path, None, &e));
    }
    vfs.sync_dir(dir);

    // 3. Reset the WAL under the new generation. A crash between 2 and 3
    //    leaves a WAL with an older generation, which recovery discards —
    //    which is exactly why a *live* engine failing here must stop
    //    acking commits into the old WAL (see `prev_wal` above).
    let post_rename = || -> DsResult<StoreHandle> {
        let wal = WalWriter::create_with(vfs, dir.join(WAL_FILE), generation)?;
        let pager = PageFile::open_with(vfs, &data_path)?;
        Ok(StoreHandle {
            dir: dir.to_path_buf(),
            pager: Arc::new(pager),
            wal: Arc::new(wal),
            generation,
            vfs: Arc::clone(vfs),
        })
    };
    match post_rename() {
        Ok(handle) => Ok(handle),
        Err(e) => {
            if let Some(wal) = prev_wal {
                wal.poison(format!(
                    "checkpoint generation {generation} renamed but WAL reset failed: {e}"
                ));
            }
            Err(e)
        }
    }
}

/// Decode the checkpoint of the store at `dir` and read its committed WAL
/// tail, without applying it: the caller replays [`LoadedCatalog::tail`]
/// onto [`LoadedCatalog::catalog`], then re-checkpoints with
/// [`save_catalog`] and attaches the fresh handles.
pub fn load_catalog(dir: &Path) -> DsResult<LoadedCatalog> {
    load_catalog_with(&os_vfs(), dir)
}

/// [`load_catalog`] against an explicit [`Vfs`].
pub fn load_catalog_with(vfs: &Arc<dyn Vfs>, dir: &Path) -> DsResult<LoadedCatalog> {
    // A stale `data.dsp.tmp` means a crash hit between the tmp write and
    // the rename: the snapshot in it never committed. Remove it so it can
    // never be confused for (or block) a future checkpoint.
    let tmp_path = dir.join(format!("{DATA_FILE}.tmp"));
    if vfs.exists(&tmp_path) {
        let _ = vfs.remove_file(&tmp_path);
    }
    let pager = PageFile::open_with(vfs, dir.join(DATA_FILE))?;
    let generation = pager.generation();
    let meta = pager.read_meta()?;
    let mut cur = Cursor::new(&meta);
    let ntables = cur.u32()? as usize;
    let mut catalog = Catalog::new();
    for _ in 0..ntables {
        let table = Table::decode_snapshot(&mut cur, &pager)?;
        catalog.insert_table(table)?;
    }
    let extra_len = cur.u32()? as usize;
    let extra_meta = cur.bytes(extra_len)?.to_vec();
    if !cur.is_empty() {
        return Err(DsError::Storage(
            "snapshot: trailing bytes after metadata".into(),
        ));
    }

    // The log only counts if it belongs to this checkpoint. An older
    // generation means its effects are already folded into the snapshot; a
    // missing or unreadable header means there is nothing to replay.
    let mut tail = WalTail::default();
    if let Some(scan) = scan_wal_with(vfs, dir.join(WAL_FILE))? {
        if scan.generation == generation {
            tail.ops = committed_ops(&scan);
        } else if scan.generation > generation {
            return Err(DsError::Storage(format!(
                "wal generation {} is newer than snapshot generation {generation}",
                scan.generation
            )));
        }
    }
    Ok(LoadedCatalog {
        catalog,
        extra_meta,
        generation,
        tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::change::ChangeKind;
    use crate::schema::{ColumnDef, Schema};
    use dataspread_types::{DataType, Value};

    fn tmp_dir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("dsp-snap-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn build_catalog() -> Catalog {
        let mut c = Catalog::new();
        let schema = Schema::new(vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Text),
            ColumnDef::new("score", DataType::Float),
        ])
        .unwrap()
        .with_pkey(&["id"])
        .unwrap();
        c.create_table("people", schema).unwrap();
        let mut t = c.get_mut("people").unwrap();
        for i in 0..50 {
            t.insert(vec![
                Value::Int(i),
                Value::text(format!("person-{i}")),
                Value::Float(i as f64 / 2.0),
            ])
            .unwrap();
        }
        drop(t);
        c
    }

    #[test]
    fn checkpoint_and_reload_identical() {
        let dir = tmp_dir("roundtrip");
        let cat = build_catalog();
        let reference = cat.get("people").unwrap().scan().unwrap();
        save_catalog(&dir, &cat, b"engine-meta", 1).unwrap();
        drop(cat);

        let mut loaded = load_catalog(&dir).unwrap();
        assert_eq!(loaded.generation, 1);
        assert_eq!(loaded.extra_meta, b"engine-meta");
        let replayed = loaded.tail.replay(&mut loaded.catalog).unwrap();
        assert_eq!(replayed.table_ops, 0);
        let t = loaded.catalog.get("people").unwrap();
        assert_eq!(t.scan().unwrap(), reference);
        assert_eq!(t.policy(), crate::catalog::DEFAULT_POLICY);
        assert!(t.schema().has_pkey());
        // pk index rebuilt: lookups and uniqueness still enforced.
        assert!(t
            .key_lookup(&crate::schema::KeyTuple(vec![Value::Int(7)]))
            .is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_tail_replays_on_load() {
        let dir = tmp_dir("replay");
        let cat = build_catalog();
        let handle = save_catalog(&dir, &cat, b"", 1).unwrap();
        handle.attach_all(&cat);

        // Post-checkpoint DML, each auto-committed through the WAL.
        let mut t = cat.get_mut("people").unwrap();
        let k = t
            .insert(vec![Value::Int(100), Value::text("late"), Value::Empty])
            .unwrap();
        t.update_cell(k, 2, Value::Float(9.5)).unwrap();
        let end = t.row_count() - 1;
        let victim = t.key_at(0).unwrap();
        t.delete_row(victim).unwrap();
        let reference = t.scan().unwrap();
        drop(t);
        drop(cat);

        let mut loaded = load_catalog(&dir).unwrap();
        let replayed = loaded.tail.replay(&mut loaded.catalog).unwrap();
        assert_eq!(replayed.table_ops, 3);
        assert_eq!(
            loaded.catalog.get("people").unwrap().scan().unwrap(),
            reference
        );
        // The change set names each row op with the position it applied
        // at, as the live calls saw them.
        let mut expected = ChangeSet::default();
        expected.push("people", ChangeKind::Insert, k, end);
        expected.push("people", ChangeKind::Update, k, end);
        expected.push("people", ChangeKind::Delete, victim, 0);
        assert_eq!(replayed.changes, expected);
        assert!(!replayed.ddl);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_wal_generation_is_ignored() {
        let dir = tmp_dir("stalewal");
        let cat = build_catalog();
        let handle = save_catalog(&dir, &cat, b"", 1).unwrap();
        drop(handle);
        // Re-checkpoint as generation 2, then put back a generation-1 WAL
        // with records — simulating a crash between rename and WAL reset.
        let handle = save_catalog(&dir, &cat, b"", 2).unwrap();
        drop(handle);
        let stale = WalWriter::create(dir.join(WAL_FILE), 1).unwrap();
        stale
            .log(crate::wal::WalOp::Delete {
                table: "people".into(),
                key: 1,
            })
            .unwrap();
        drop(stale);

        let mut loaded = load_catalog(&dir).unwrap();
        let replayed = loaded.tail.replay(&mut loaded.catalog).unwrap();
        assert_eq!(replayed.table_ops, 0, "stale generation must not replay");
        assert_eq!(loaded.catalog.get("people").unwrap().row_count(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pages_reach_the_page_file_only_at_checkpoint() {
        let dir = tmp_dir("ckptonly");
        let mut cat = Catalog::new();
        let schema = Schema::new(vec![ColumnDef::new("s", DataType::Text)]).unwrap();
        cat.create_table("t", schema).unwrap();
        let handle = save_catalog(&dir, &cat, b"", 1).unwrap();
        handle.attach_all(&cat);
        let frames = handle.pager.frame_count();
        // Two 1.5 KiB rows per page: well past 1 024 distinct dirty pages,
        // all in one transaction (one fsync at commit).
        handle.wal.begin().unwrap();
        let mut t = cat.get_mut("t").unwrap();
        for i in 0..2200 {
            t.insert(vec![Value::text(format!("{i:01500}"))]).unwrap();
        }
        assert!(t.total_pages() > 1024, "{} pages", t.total_pages());
        drop(t);
        handle.wal.commit().unwrap();
        // Between checkpoints DML reaches only the WAL.
        assert_eq!(handle.pager.frame_count(), frames);
        // The next checkpoint writes every page.
        let next = save_catalog(&dir, &cat, b"", 2).unwrap();
        let pages = cat.get("t").unwrap().total_pages() as u64;
        assert!(next.pager.frame_count() > pages);
        drop(cat);
        let mut loaded = load_catalog(&dir).unwrap();
        let replayed = loaded.tail.replay(&mut loaded.catalog).unwrap();
        assert_eq!(replayed.table_ops, 0, "the checkpoint folded the WAL in");
        assert_eq!(loaded.catalog.get("t").unwrap().row_count(), 2200);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
