//! The write-ahead log: append-only redo records, CRC-framed, fsynced on
//! commit.
//!
//! Between checkpoints every table mutation appends one logical redo record
//! (`INSERT`/`UPDATE-CELL`/`UPDATE-ROW`/`DELETE`) bracketed by
//! `BEGIN`/`COMMIT` transaction markers. [`WalWriter::commit`] flushes and
//! `fsync`s, so a transaction is durable exactly when `commit` returns —
//! the paper's disk-block cost argument extended to the write path.
//!
//! Commits from concurrent writers are **group-committed**: each committer
//! appends its records under the append mutex, then joins a leader/follower
//! sync. The first committer to arrive becomes the leader, reads the current
//! end of the appended log, and issues one `fsync` that covers every record
//! appended so far — its own and any followers' that landed in the meantime.
//! Followers merely wait until the synced watermark passes their commit
//! offset. N contended committers therefore pay ~1–2 `fsync`s instead of N,
//! while a single-threaded committer still gets exactly one `fsync` per
//! commit. [`WalWriter::counters`] exposes the commit/fsync counters so
//! benches and tests can observe the batching.
//!
//! Recovery (see [`scan_wal`] and [`apply_committed`]) is ARIES-lite, redo
//! only: scan the log from the front, stop at the first torn or corrupt
//! record (a CRC or framing failure — everything after it is discarded,
//! because a redo log cannot skip holes), and replay, in commit order, only
//! the operations of transactions whose `COMMIT` record survived. Records of
//! unfinished transactions are ignored, which is the entire rollback story:
//! nothing uncommitted ever reaches the page file. Byte layouts are
//! specified in `docs/STORAGE.md`.
//!
//! **Failure semantics** (see `docs/FAULTS.md`): a failed append truncates
//! the file back to the last good record so the tail stays scannable; a
//! failed fsync **poisons** the writer — every commit batched behind that
//! sync fails, and all subsequent writes are refused with
//! [`DsError::ReadOnly`]. A poisoned WAL is never retried: after a failed
//! `fsync` the kernel may have silently dropped the dirty pages, so
//! retry-and-report-success would ack commits that never reached disk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use dataspread_obs::Counter;
use dataspread_posindex::RowKey;
use dataspread_types::{DsError, DsResult, Value};

use crate::binding::BindingMeta;
use crate::catalog::Catalog;
use crate::change::{ChangeKind, ChangeSet};
use crate::codec::{encode_value, put_str, put_u16, put_u32, put_u64, Cursor};
use crate::crc::crc32;
use crate::schema::Schema;
use crate::vfs::{os_vfs, Vfs, VfsFile};

/// Magic bytes opening a WAL file: `"DSWL"`.
pub const WAL_MAGIC: [u8; 4] = *b"DSWL";
/// On-disk WAL format version this build reads and writes.
pub const WAL_VERSION: u16 = 1;
/// Size of the WAL header in bytes.
pub const WAL_HEADER_SIZE: u64 = 24;
/// Sanity cap on a single record's payload.
const MAX_RECORD: u32 = 16 << 20;

const TAG_BEGIN: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_INSERT: u8 = 3;
const TAG_UPDATE_CELL: u8 = 4;
const TAG_UPDATE_ROW: u8 = 5;
const TAG_DELETE: u8 = 6;
const TAG_SHEET_CELL: u8 = 7;
const TAG_SHEET_GRID: u8 = 8;
const TAG_BIND_CREATE: u8 = 9;
const TAG_BIND_DROP: u8 = 10;
const TAG_CREATE_TABLE: u8 = 11;
const TAG_DROP_TABLE: u8 = 12;

/// Where recovery applies a committed record of a given tag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplaySite {
    /// Transaction markers (`BEGIN`/`COMMIT`): consumed by
    /// [`committed_ops`] to delimit transactions; nothing to apply.
    Marker,
    /// Table records (DML and DDL): applied to the recovered catalog by
    /// [`apply_committed`].
    Table,
    /// Engine records (sheet edits, binding create/drop): surfaced as
    /// `Replayed::engine_ops` and replayed by the engine
    /// (`Workbook::open` in the `dataspread` crate).
    Engine,
}

/// One row of the WAL-tag registry: the on-disk tag byte, the record's
/// canonical name (exactly as documented in `docs/STORAGE.md` §2.3), and
/// where recovery replays it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalTagSpec {
    /// The on-disk tag byte.
    pub tag: u8,
    /// Canonical record name (`docs/STORAGE.md` §2.3 spelling).
    pub name: &'static str,
    /// Which layer replays a committed record of this tag.
    pub replay: ReplaySite,
}

/// Source-of-truth registry of every on-disk WAL record tag.
///
/// Adding a tag means adding a row here — `cargo run -p xcheck`
/// cross-checks that every registered tag has an encode site
/// (`push(TAG_…)`), a decode match arm, a replay match arm at its declared
/// [`ReplaySite`], and a `docs/STORAGE.md` table row, and that no `TAG_…`
/// constant exists outside the registry.
pub const WAL_TAGS: &[WalTagSpec] = &[
    WalTagSpec {
        tag: TAG_BEGIN,
        name: "BEGIN",
        replay: ReplaySite::Marker,
    },
    WalTagSpec {
        tag: TAG_COMMIT,
        name: "COMMIT",
        replay: ReplaySite::Marker,
    },
    WalTagSpec {
        tag: TAG_INSERT,
        name: "INSERT",
        replay: ReplaySite::Table,
    },
    WalTagSpec {
        tag: TAG_UPDATE_CELL,
        name: "UPDATE-CELL",
        replay: ReplaySite::Table,
    },
    WalTagSpec {
        tag: TAG_UPDATE_ROW,
        name: "UPDATE-ROW",
        replay: ReplaySite::Table,
    },
    WalTagSpec {
        tag: TAG_DELETE,
        name: "DELETE",
        replay: ReplaySite::Table,
    },
    WalTagSpec {
        tag: TAG_SHEET_CELL,
        name: "SHEET-CELL",
        replay: ReplaySite::Engine,
    },
    WalTagSpec {
        tag: TAG_SHEET_GRID,
        name: "SHEET-GRID",
        replay: ReplaySite::Engine,
    },
    WalTagSpec {
        tag: TAG_BIND_CREATE,
        name: "BIND-CREATE",
        replay: ReplaySite::Engine,
    },
    WalTagSpec {
        tag: TAG_BIND_DROP,
        name: "BIND-DROP",
        replay: ReplaySite::Engine,
    },
    WalTagSpec {
        tag: TAG_CREATE_TABLE,
        name: "CREATE-TABLE",
        replay: ReplaySite::Table,
    },
    WalTagSpec {
        tag: TAG_DROP_TABLE,
        name: "DROP-TABLE",
        replay: ReplaySite::Table,
    },
];

/// What a logged sheet-cell write holds: the *logical input*, not the
/// computed display value — a literal, or formula source text that the
/// engine re-parses (and re-evaluates) on replay.
#[derive(Clone, Debug, PartialEq)]
pub enum SheetCellContent {
    /// A literal value; `Value::Empty` clears the cell.
    Value(Value),
    /// Formula source text (`=`-prefixed).
    Formula(String),
}

/// A structural grid edit on a sheet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridEditKind {
    /// Insert rows at `at`.
    InsertRows,
    /// Delete rows `[at, at + count)`.
    DeleteRows,
    /// Insert columns at `at`.
    InsertCols,
    /// Delete columns `[at, at + count)`.
    DeleteCols,
}

impl GridEditKind {
    fn code(self) -> u8 {
        match self {
            GridEditKind::InsertRows => 0,
            GridEditKind::DeleteRows => 1,
            GridEditKind::InsertCols => 2,
            GridEditKind::DeleteCols => 3,
        }
    }

    fn from_code(c: u8) -> DsResult<Self> {
        Ok(match c {
            0 => GridEditKind::InsertRows,
            1 => GridEditKind::DeleteRows,
            2 => GridEditKind::InsertCols,
            3 => GridEditKind::DeleteCols,
            other => return Err(DsError::Storage(format!("wal: bad grid edit kind {other}"))),
        })
    }
}

/// One logical redo operation against a named table — or, for the two
/// `Sheet*` variants, against a named sheet of the interface layer (replayed
/// by the engine, not by [`apply_committed`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WalOp {
    /// A row inserted at display position `pos` with storage key `key`.
    Insert {
        /// Target table name.
        table: String,
        /// The row key the original execution assigned (replay re-forces it).
        key: RowKey,
        /// Display position of the insert.
        pos: u64,
        /// The conformed row values as stored.
        row: Vec<Value>,
    },
    /// One attribute of one row rewritten.
    UpdateCell {
        /// Target table name.
        table: String,
        /// Row key.
        key: RowKey,
        /// Schema column index.
        col: u32,
        /// The conformed new value.
        value: Value,
    },
    /// A full row replaced.
    UpdateRow {
        /// Target table name.
        table: String,
        /// Row key.
        key: RowKey,
        /// The conformed replacement row.
        row: Vec<Value>,
    },
    /// A row deleted.
    Delete {
        /// Target table name.
        table: String,
        /// Row key.
        key: RowKey,
    },
    /// One grid cell written on a sheet (interface side).
    SheetCell {
        /// Target sheet name.
        sheet: String,
        /// Zero-based display row.
        row: u32,
        /// Zero-based display column.
        col: u32,
        /// The logical input written.
        content: SheetCellContent,
    },
    /// A structural row/column edit on a sheet.
    SheetGrid {
        /// Target sheet name.
        sheet: String,
        /// Which structural edit.
        edit: GridEditKind,
        /// Zero-based row/column position of the edit.
        at: u32,
        /// Number of rows/columns inserted or deleted.
        count: u32,
    },
    /// A table binding registered on a sheet region (engine-replayed).
    BindCreate {
        /// The full binding description.
        meta: BindingMeta,
    },
    /// A table binding removed (engine-replayed).
    BindDrop {
        /// Id of the dropped binding.
        id: u64,
    },
    /// `CREATE TABLE`: the DDL redo record that lets table creation ride the
    /// log instead of forcing a checkpoint.
    CreateTable {
        /// New table name.
        table: String,
        /// The schema the table was created with.
        schema: Schema,
    },
    /// `DROP TABLE` (DDL redo record).
    DropTable {
        /// Dropped table name.
        table: String,
    },
}

impl WalOp {
    /// Is this an interface-layer (sheet) operation? Sheet ops are skipped by
    /// [`apply_committed`] and surfaced to the engine for replay instead.
    pub fn is_sheet_op(&self) -> bool {
        matches!(self, WalOp::SheetCell { .. } | WalOp::SheetGrid { .. })
    }

    /// Is this an engine-layer operation — a sheet edit or a binding
    /// create/drop? Engine ops are skipped by [`apply_committed`] and
    /// surfaced to the engine for replay in commit order.
    pub fn is_engine_op(&self) -> bool {
        self.is_sheet_op() || matches!(self, WalOp::BindCreate { .. } | WalOp::BindDrop { .. })
    }
}

/// One framed WAL record: a transaction marker or an operation.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// Transaction `txn` begins.
    Begin {
        /// Transaction id.
        txn: u64,
    },
    /// Transaction `txn` is durable once this record is on disk.
    Commit {
        /// Transaction id.
        txn: u64,
    },
    /// A redo operation belonging to transaction `txn`.
    Op {
        /// Transaction id.
        txn: u64,
        /// The operation.
        op: WalOp,
    },
}

fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match rec {
        WalRecord::Begin { txn } => {
            buf.push(TAG_BEGIN);
            put_u64(&mut buf, *txn);
        }
        WalRecord::Commit { txn } => {
            buf.push(TAG_COMMIT);
            put_u64(&mut buf, *txn);
        }
        WalRecord::Op { txn, op } => match op {
            WalOp::Insert {
                table,
                key,
                pos,
                row,
            } => {
                buf.push(TAG_INSERT);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, table);
                put_u64(&mut buf, *key);
                put_u64(&mut buf, *pos);
                put_u16(&mut buf, row.len() as u16);
                for v in row {
                    encode_value(&mut buf, v);
                }
            }
            WalOp::UpdateCell {
                table,
                key,
                col,
                value,
            } => {
                buf.push(TAG_UPDATE_CELL);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, table);
                put_u64(&mut buf, *key);
                put_u32(&mut buf, *col);
                encode_value(&mut buf, value);
            }
            WalOp::UpdateRow { table, key, row } => {
                buf.push(TAG_UPDATE_ROW);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, table);
                put_u64(&mut buf, *key);
                put_u16(&mut buf, row.len() as u16);
                for v in row {
                    encode_value(&mut buf, v);
                }
            }
            WalOp::Delete { table, key } => {
                buf.push(TAG_DELETE);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, table);
                put_u64(&mut buf, *key);
            }
            WalOp::SheetCell {
                sheet,
                row,
                col,
                content,
            } => {
                buf.push(TAG_SHEET_CELL);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, sheet);
                put_u32(&mut buf, *row);
                put_u32(&mut buf, *col);
                match content {
                    SheetCellContent::Value(v) => {
                        buf.push(0);
                        encode_value(&mut buf, v);
                    }
                    SheetCellContent::Formula(src) => {
                        buf.push(1);
                        put_str(&mut buf, src);
                    }
                }
            }
            WalOp::SheetGrid {
                sheet,
                edit,
                at,
                count,
            } => {
                buf.push(TAG_SHEET_GRID);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, sheet);
                buf.push(edit.code());
                put_u32(&mut buf, *at);
                put_u32(&mut buf, *count);
            }
            WalOp::BindCreate { meta } => {
                buf.push(TAG_BIND_CREATE);
                put_u64(&mut buf, *txn);
                meta.encode(&mut buf);
            }
            WalOp::BindDrop { id } => {
                buf.push(TAG_BIND_DROP);
                put_u64(&mut buf, *txn);
                put_u64(&mut buf, *id);
            }
            WalOp::CreateTable { table, schema } => {
                buf.push(TAG_CREATE_TABLE);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, table);
                schema.encode(&mut buf);
                // Reserved (was the buffer-pool capacity): written as zero.
                put_u64(&mut buf, 0);
            }
            WalOp::DropTable { table } => {
                buf.push(TAG_DROP_TABLE);
                put_u64(&mut buf, *txn);
                put_str(&mut buf, table);
            }
        },
    }
    buf
}

fn decode_record(payload: &[u8]) -> DsResult<WalRecord> {
    let mut cur = Cursor::new(payload);
    let tag = cur.u8()?;
    let txn = cur.u64()?;
    let rec = match tag {
        TAG_BEGIN => WalRecord::Begin { txn },
        TAG_COMMIT => WalRecord::Commit { txn },
        TAG_INSERT => {
            let table = cur.str()?;
            let key = cur.u64()?;
            let pos = cur.u64()?;
            let n = cur.u16()? as usize;
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(cur.value()?);
            }
            WalRecord::Op {
                txn,
                op: WalOp::Insert {
                    table,
                    key,
                    pos,
                    row,
                },
            }
        }
        TAG_UPDATE_CELL => {
            let table = cur.str()?;
            let key = cur.u64()?;
            let col = cur.u32()?;
            let value = cur.value()?;
            WalRecord::Op {
                txn,
                op: WalOp::UpdateCell {
                    table,
                    key,
                    col,
                    value,
                },
            }
        }
        TAG_UPDATE_ROW => {
            let table = cur.str()?;
            let key = cur.u64()?;
            let n = cur.u16()? as usize;
            let mut row = Vec::with_capacity(n);
            for _ in 0..n {
                row.push(cur.value()?);
            }
            WalRecord::Op {
                txn,
                op: WalOp::UpdateRow { table, key, row },
            }
        }
        TAG_DELETE => {
            let table = cur.str()?;
            let key = cur.u64()?;
            WalRecord::Op {
                txn,
                op: WalOp::Delete { table, key },
            }
        }
        TAG_SHEET_CELL => {
            let sheet = cur.str()?;
            let row = cur.u32()?;
            let col = cur.u32()?;
            let content = match cur.u8()? {
                0 => SheetCellContent::Value(cur.value()?),
                1 => SheetCellContent::Formula(cur.str()?),
                other => {
                    return Err(DsError::Storage(format!(
                        "wal: bad sheet cell content kind {other}"
                    )))
                }
            };
            WalRecord::Op {
                txn,
                op: WalOp::SheetCell {
                    sheet,
                    row,
                    col,
                    content,
                },
            }
        }
        TAG_SHEET_GRID => {
            let sheet = cur.str()?;
            let edit = GridEditKind::from_code(cur.u8()?)?;
            let at = cur.u32()?;
            let count = cur.u32()?;
            WalRecord::Op {
                txn,
                op: WalOp::SheetGrid {
                    sheet,
                    edit,
                    at,
                    count,
                },
            }
        }
        TAG_BIND_CREATE => WalRecord::Op {
            txn,
            op: WalOp::BindCreate {
                meta: BindingMeta::decode(&mut cur)?,
            },
        },
        TAG_BIND_DROP => WalRecord::Op {
            txn,
            op: WalOp::BindDrop { id: cur.u64()? },
        },
        TAG_CREATE_TABLE => {
            let table = cur.str()?;
            let schema = Schema::decode(&mut cur)?;
            // Reserved (was the buffer-pool capacity): read and ignored.
            cur.u64()?;
            WalRecord::Op {
                txn,
                op: WalOp::CreateTable { table, schema },
            }
        }
        TAG_DROP_TABLE => WalRecord::Op {
            txn,
            op: WalOp::DropTable { table: cur.str()? },
        },
        other => return Err(DsError::Storage(format!("wal: bad record tag {other}"))),
    };
    if !cur.is_empty() {
        return Err(DsError::Storage("wal: trailing bytes in record".into()));
    }
    Ok(rec)
}

fn encode_header(generation: u64) -> [u8; WAL_HEADER_SIZE as usize] {
    let mut h = [0u8; WAL_HEADER_SIZE as usize];
    h[0..4].copy_from_slice(&WAL_MAGIC);
    h[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
    // h[6..8] flags, zero.
    h[8..16].copy_from_slice(&generation.to_le_bytes());
    let crc = crc32(&h[0..16]);
    h[16..20].copy_from_slice(&crc.to_le_bytes());
    // h[20..24] padding, zero.
    h
}

struct WalInner {
    file: Box<dyn VfsFile>,
    open_txn: Option<u64>,
    next_txn: u64,
    /// Bytes appended so far (header included). A committer's records are
    /// durable once the sync watermark reaches the value of `len` observed
    /// right after its `COMMIT` record was appended.
    len: u64,
}

/// Group-commit sync state: the durable watermark plus the leader flag.
/// Guarded by its own mutex so followers can wait on the condvar without
/// blocking appends, and the leader's `fsync` runs outside the append lock.
struct SyncState {
    /// Every byte below this offset is known durable.
    synced: u64,
    /// True while some thread (the leader) is inside `fsync`.
    syncing: bool,
}

/// Clonable handles to this writer's counters, so a metrics registry can
/// expose them without routing the append path through a lookup.
#[derive(Clone, Debug, Default)]
pub struct WalCounters {
    /// Framed records appended (BEGIN/COMMIT frames included).
    pub appends: Counter,
    /// Transactions committed (explicit commits plus autocommits).
    pub commits: Counter,
    /// `fsync` calls issued by the group-commit leader.
    pub fsyncs: Counter,
    /// Times the writer flipped into the sticky poisoned state (0 or 1 per
    /// writer — poisoning is idempotent and the first reason wins).
    pub poison_flips: Counter,
}

/// Appending side of the log. All methods take `&self` (a mutex guards the
/// file) so tables can log through a shared [`std::sync::Arc`] handle.
///
/// A statement-scoped transaction is opened with [`WalWriter::begin`] and
/// sealed with [`WalWriter::commit`]; an operation logged outside any open
/// transaction is auto-committed (`BEGIN` + op + `COMMIT` + group-synced
/// fsync).
pub struct WalWriter {
    path: PathBuf,
    inner: Mutex<WalInner>,
    /// Second handle to the same file, used only for `sync` so the
    /// leader's fsync never holds the append mutex.
    sync_file: Box<dyn VfsFile>,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    counters: WalCounters,
    /// Sticky fault flag (fsyncgate semantics): once set, every write path
    /// is refused with [`DsError::ReadOnly`]. Mirrors `poison_reason`; the
    /// atomic makes the hot-path check lock-free.
    poisoned: AtomicBool,
    poison_reason: Mutex<Option<String>>,
}

impl std::fmt::Debug for WalWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WalWriter")
            .field("path", &self.path)
            .field("poisoned", &self.is_poisoned())
            .finish()
    }
}

impl WalWriter {
    /// Create (or reset) the log at `path` for checkpoint `generation`.
    /// Truncates any previous contents and fsyncs the fresh header.
    pub fn create(path: impl AsRef<Path>, generation: u64) -> DsResult<WalWriter> {
        Self::create_with(&os_vfs(), path, generation)
    }

    /// [`WalWriter::create`] against an explicit [`Vfs`].
    pub fn create_with(
        vfs: &Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        generation: u64,
    ) -> DsResult<WalWriter> {
        let path = path.as_ref().to_path_buf();
        let file = vfs
            .create(&path)
            .map_err(|e| DsError::io("wal create", &path, None, &e))?;
        file.write_all_at(0, &encode_header(generation))
            .and_then(|_| file.sync())
            .map_err(|e| DsError::io("wal header write", &path, Some(0), &e))?;
        let sync_file = file
            .duplicate()
            .map_err(|e| DsError::io("wal handle duplicate", &path, None, &e))?;
        Ok(WalWriter {
            path,
            inner: Mutex::new(WalInner {
                file,
                open_txn: None,
                next_txn: 1,
                len: WAL_HEADER_SIZE,
            }),
            sync_file,
            sync_state: Mutex::new(SyncState {
                synced: WAL_HEADER_SIZE,
                syncing: false,
            }),
            sync_cv: Condvar::new(),
            counters: WalCounters::default(),
            poisoned: AtomicBool::new(false),
            poison_reason: Mutex::new(None),
        })
    }

    fn inner(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Flip the writer into the sticky read-only state. Idempotent: the
    /// first reason wins. Wakes every group-commit waiter so blocked
    /// followers fail immediately instead of hanging.
    pub fn poison(&self, reason: impl Into<String>) {
        {
            let mut r = self.poison_reason.lock().unwrap_or_else(|e| e.into_inner());
            if r.is_none() {
                *r = Some(reason.into());
                self.counters.poison_flips.bump();
            }
        }
        self.poisoned.store(true, Ordering::SeqCst);
        // Take the sync lock so waiters can't miss the wakeup between their
        // poison check and re-entering the condvar wait.
        let _st = self.sync_state.lock().unwrap_or_else(|e| e.into_inner());
        self.sync_cv.notify_all();
    }

    /// True once a storage fault has made this writer refuse writes.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Why the writer is poisoned, if it is.
    pub fn poison_reason(&self) -> Option<String> {
        if !self.is_poisoned() {
            return None;
        }
        self.poison_reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// `Err(DsError::ReadOnly)` when the writer is poisoned, else `Ok(())`.
    pub fn ensure_writable(&self) -> DsResult<()> {
        if self.is_poisoned() {
            let reason = self
                .poison_reason()
                .unwrap_or_else(|| "storage fault".into());
            return Err(DsError::ReadOnly(reason));
        }
        Ok(())
    }

    /// Append one framed record at `inner.len`. On failure the file is
    /// truncated back to the pre-append length so a partial (torn) frame
    /// never sits in the middle of the log — a later successful append at
    /// the same offset would otherwise leave stale garbage that stops the
    /// recovery scan early. If even the truncate fails the writer is
    /// poisoned: the tail is no longer trustworthy.
    fn append_locked(&self, inner: &mut WalInner, rec: &WalRecord) -> DsResult<()> {
        let payload = encode_record(rec);
        let mut framed = Vec::with_capacity(8 + payload.len());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&crc32(&payload).to_le_bytes());
        framed.extend_from_slice(&payload);
        let offset = inner.len;
        match inner.file.write_all_at(offset, &framed) {
            Ok(()) => {
                inner.len += framed.len() as u64;
                self.counters.appends.bump();
                Ok(())
            }
            Err(e) => {
                if let Err(te) = inner.file.truncate(offset) {
                    self.poison(format!(
                        "wal append failed ({e}) and tail restore failed ({te})"
                    ));
                }
                Err(DsError::io("wal append", &self.path, Some(offset), &e))
            }
        }
    }

    /// Group-commit sync: make every byte below `target` durable.
    ///
    /// If the watermark already covers `target` (a concurrent leader's fsync
    /// swept our records in), this returns without touching the disk. If a
    /// leader is mid-fsync, wait for it and re-check. Otherwise become the
    /// leader: read the current appended length (which covers any followers
    /// that appended after us), fsync once *outside* the append mutex, then
    /// publish the new watermark and wake every waiter.
    ///
    /// Lock order: `sync_state` is never held while taking `inner` during the
    /// fsync window (it is released before the length read), so appenders are
    /// never blocked by a sync in progress.
    ///
    /// Failure semantics (fsyncgate): if the leader's fsync fails, *no*
    /// commit riding that sync may be reported durable — the leader poisons
    /// the writer and every waiting follower (and any later committer)
    /// fails with [`DsError::ReadOnly`]. The fsync is never reissued: after
    /// a failed fsync the kernel may have dropped the dirty pages, so a
    /// clean retry would silently ack lost data. The `synced >= target`
    /// check deliberately precedes the poison check — a commit whose bytes
    /// were already covered by an *earlier successful* fsync stays `Ok`
    /// even if the writer was poisoned afterwards.
    fn group_sync(&self, target: u64) -> DsResult<()> {
        let mut st = self.sync_state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.synced >= target {
                return Ok(());
            }
            if self.is_poisoned() {
                drop(st);
                return Err(DsError::ReadOnly(
                    self.poison_reason()
                        .unwrap_or_else(|| "wal fsync failed".into()),
                ));
            }
            if st.syncing {
                st = self.sync_cv.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            st.syncing = true;
            drop(st);
            // Everything appended up to here rides this fsync — records from
            // followers that arrived after our own append are swept along.
            let high = self.inner().len;
            let res = self.sync_file.sync();
            self.counters.fsyncs.bump();
            if let Err(e) = &res {
                // Poison *before* clearing `syncing`: once followers wake
                // they must observe the sticky state, not start a new fsync.
                self.poison(format!("wal fsync failed: {e}"));
            }
            st = self.sync_state.lock().unwrap_or_else(|e| e.into_inner());
            st.syncing = false;
            if res.is_ok() {
                st.synced = st.synced.max(high);
            }
            self.sync_cv.notify_all();
            res.map_err(|e| DsError::io("wal sync", &self.path, None, &e))?;
        }
    }

    /// Clonable handles to this writer's counters, for registry attachment.
    pub fn counters(&self) -> WalCounters {
        self.counters.clone()
    }

    /// Open a statement transaction; its operations are durable only after
    /// [`WalWriter::commit`]. Errors if a transaction is already open, or
    /// with [`DsError::ReadOnly`] if the writer is poisoned.
    pub fn begin(&self) -> DsResult<u64> {
        self.ensure_writable()?;
        let mut inner = self.inner();
        if inner.open_txn.is_some() {
            return Err(DsError::Storage("wal: transaction already open".into()));
        }
        let txn = inner.next_txn;
        inner.next_txn += 1;
        self.append_locked(&mut inner, &WalRecord::Begin { txn })?;
        inner.open_txn = Some(txn);
        Ok(txn)
    }

    /// Seal the open transaction: append `COMMIT`, then `fsync` via the
    /// group-commit path (one leader syncs for every committer whose records
    /// are already appended). An `Err` return means the transaction is NOT
    /// durable — in particular, a failed group fsync fails every commit
    /// batched behind it and leaves the writer read-only.
    pub fn commit(&self) -> DsResult<()> {
        let target = {
            let mut inner = self.inner();
            let txn = inner
                .open_txn
                .take()
                .ok_or_else(|| DsError::Storage("wal: commit with no open transaction".into()))?;
            self.ensure_writable()?;
            self.append_locked(&mut inner, &WalRecord::Commit { txn })?;
            inner.len
        };
        self.counters.commits.bump();
        self.group_sync(target)
    }

    /// Abandon the open transaction. Its records stay in the file but carry
    /// no `COMMIT`, so recovery discards them — redo-only rollback.
    pub fn rollback(&self) {
        self.inner().open_txn = None;
    }

    /// Log one redo operation. Inside an open transaction the record is
    /// buffered by the OS until commit; outside one it is auto-committed
    /// (`BEGIN` + op + `COMMIT` + group-synced fsync) so direct table
    /// mutations are durable on their own. Concurrent autocommitters batch
    /// their fsyncs through the group-commit leader (see the module docs).
    pub fn log(&self, op: WalOp) -> DsResult<()> {
        self.ensure_writable()?;
        let target = {
            let mut inner = self.inner();
            match inner.open_txn {
                Some(txn) => return self.append_locked(&mut inner, &WalRecord::Op { txn, op }),
                None => {
                    let txn = inner.next_txn;
                    inner.next_txn += 1;
                    self.append_locked(&mut inner, &WalRecord::Begin { txn })?;
                    self.append_locked(&mut inner, &WalRecord::Op { txn, op })?;
                    self.append_locked(&mut inner, &WalRecord::Commit { txn })?;
                    inner.len
                }
            }
        };
        self.counters.commits.bump();
        self.group_sync(target)
    }
}

/// Result of scanning a WAL file front to back.
#[derive(Debug)]
pub struct WalScan {
    /// Generation stamped in the header (matched against the page file's).
    pub generation: u64,
    /// Every intact record with the file offset just past it, in log order.
    pub records: Vec<(WalRecord, u64)>,
    /// Offset of the first torn/corrupt byte — the truncation point.
    pub valid_len: u64,
}

/// Scan a WAL file, stopping at the first torn or corrupt record.
///
/// Returns `Ok(None)` when the file is missing or its header is unreadable
/// (both mean "no log to replay" — e.g. a crash between checkpoint rename
/// and WAL reset). Corruption *after* the header only shortens the result:
/// everything before the damage is returned, everything after is dead.
pub fn scan_wal(path: impl AsRef<Path>) -> DsResult<Option<WalScan>> {
    scan_wal_with(&os_vfs(), path)
}

/// [`scan_wal`] against an explicit [`Vfs`].
pub fn scan_wal_with(vfs: &Arc<dyn Vfs>, path: impl AsRef<Path>) -> DsResult<Option<WalScan>> {
    let path = path.as_ref();
    let raw = match vfs.read(path) {
        Ok(raw) => raw,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(DsError::io("wal read", path, None, &e)),
    };
    if raw.len() < WAL_HEADER_SIZE as usize
        || raw[0..4] != WAL_MAGIC
        || crate::codec::u16_le(&raw[4..6]) != WAL_VERSION
        || crc32(&raw[0..16]) != crate::codec::u32_le(&raw[16..20])
    {
        return Ok(None);
    }
    let generation = crate::codec::u64_le(&raw[8..16]);
    let mut records = Vec::new();
    let mut off = WAL_HEADER_SIZE as usize;
    loop {
        if off + 8 > raw.len() {
            break; // torn frame header
        }
        let len = crate::codec::u32_le(&raw[off..off + 4]);
        let stored_crc = crate::codec::u32_le(&raw[off + 4..off + 8]);
        if len > MAX_RECORD || off + 8 + len as usize > raw.len() {
            break; // insane length or torn payload
        }
        let payload = &raw[off + 8..off + 8 + len as usize];
        if crc32(payload) != stored_crc {
            break; // bit rot
        }
        let rec = match decode_record(payload) {
            Ok(r) => r,
            Err(_) => break, // valid CRC but undecodable: treat as torn
        };
        off += 8 + len as usize;
        records.push((rec, off as u64));
    }
    Ok(Some(WalScan {
        generation,
        records,
        valid_len: off as u64,
    }))
}

/// The committed operations of a scan, in commit order.
pub fn committed_ops(scan: &WalScan) -> Vec<WalOp> {
    use std::collections::HashMap;
    let mut pending: HashMap<u64, Vec<WalOp>> = HashMap::new();
    let mut committed = Vec::new();
    for (rec, _) in &scan.records {
        match rec {
            WalRecord::Begin { txn } => {
                pending.insert(*txn, Vec::new());
            }
            WalRecord::Op { txn, op } => {
                pending.entry(*txn).or_default().push(op.clone());
            }
            WalRecord::Commit { txn } => {
                if let Some(ops) = pending.remove(txn) {
                    committed.extend(ops);
                }
            }
        }
    }
    committed
}

/// Replay committed *table* redo operations — DML and `CREATE`/`DROP TABLE`
/// DDL — against a catalog restored from the matching checkpoint. Engine
/// operations ([`WalOp::is_engine_op`]: sheet edits and binding
/// create/drop) are skipped — the engine replays those against its decoded
/// sheets. Returns the number of table operations applied; every row
/// operation is also recorded in `changes`, with the display position it
/// applied at, as the live statement recorded it.
///
/// Tables must *not* have a WAL attached during replay (a freshly decoded
/// snapshot does not), or the recovery would re-log itself.
pub fn apply_committed(
    catalog: &mut Catalog,
    ops: &[WalOp],
    changes: &mut ChangeSet,
) -> DsResult<usize> {
    let mut applied = 0;
    for op in ops {
        match op {
            WalOp::Insert {
                table,
                key,
                pos,
                row,
            } => {
                let pos = *pos as usize;
                catalog
                    .get_mut(table)?
                    .insert_at_with_key(pos, *key, row.clone())?;
                changes.push(table, ChangeKind::Insert, *key, pos);
            }
            WalOp::UpdateCell {
                table,
                key,
                col,
                value,
            } => {
                let mut t = catalog.get_mut(table)?;
                t.update_cell(*key, *col as usize, value.clone())?;
                changes.push(table, ChangeKind::Update, *key, row_position(&t, *key)?);
            }
            WalOp::UpdateRow { table, key, row } => {
                let mut t = catalog.get_mut(table)?;
                t.update_row(*key, row.clone())?;
                changes.push(table, ChangeKind::Update, *key, row_position(&t, *key)?);
            }
            WalOp::Delete { table, key } => {
                let pos = catalog.get_mut(table)?.delete_row(*key)?;
                changes.push(table, ChangeKind::Delete, *key, pos);
            }
            WalOp::CreateTable { table, schema } => {
                let t = crate::table::Table::new(
                    table.clone(),
                    schema.clone(),
                    crate::catalog::DEFAULT_POLICY,
                );
                catalog.insert_table(t)?;
            }
            WalOp::DropTable { table } => {
                catalog.drop_table(table)?;
            }
            WalOp::SheetCell { .. }
            | WalOp::SheetGrid { .. }
            | WalOp::BindCreate { .. }
            | WalOp::BindDrop { .. } => continue,
        }
        applied += 1;
    }
    Ok(applied)
}

/// The display position of `key`, which a replayed update just rewrote.
fn row_position(t: &crate::table::Table, key: RowKey) -> DsResult<usize> {
    t.position_of(key).ok_or_else(|| {
        DsError::Storage(format!(
            "wal replay: row key {key} not in table {}",
            t.name()
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("dsp-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn wal_tag_registry_is_unique_and_contiguous() {
        let mut values: Vec<u8> = WAL_TAGS.iter().map(|s| s.tag).collect();
        values.sort_unstable();
        let expect: Vec<u8> = (1..=WAL_TAGS.len() as u8).collect();
        assert_eq!(
            values, expect,
            "tag bytes must be unique and contiguous from 1"
        );
        let mut names: Vec<&str> = WAL_TAGS.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), WAL_TAGS.len(), "record names must be unique");
    }

    fn op(i: i64) -> WalOp {
        WalOp::Insert {
            table: "t".into(),
            key: i as u64,
            pos: i as u64,
            row: vec![Value::Int(i), Value::text(format!("row{i}"))],
        }
    }

    #[test]
    fn records_round_trip() {
        for rec in [
            WalRecord::Begin { txn: 9 },
            WalRecord::Commit { txn: 9 },
            WalRecord::Op { txn: 9, op: op(4) },
            WalRecord::Op {
                txn: 1,
                op: WalOp::UpdateCell {
                    table: "x".into(),
                    key: 2,
                    col: 1,
                    value: Value::Empty,
                },
            },
            WalRecord::Op {
                txn: 1,
                op: WalOp::UpdateRow {
                    table: "x".into(),
                    key: 2,
                    row: vec![Value::Bool(true)],
                },
            },
            WalRecord::Op {
                txn: 1,
                op: WalOp::Delete {
                    table: "x".into(),
                    key: 2,
                },
            },
            WalRecord::Op {
                txn: 2,
                op: WalOp::SheetCell {
                    sheet: "Sheet1".into(),
                    row: 3,
                    col: 1,
                    content: SheetCellContent::Value(Value::Int(7)),
                },
            },
            WalRecord::Op {
                txn: 2,
                op: WalOp::SheetCell {
                    sheet: "Data".into(),
                    row: 0,
                    col: 0,
                    content: SheetCellContent::Formula("=SUM(A1:B2)".into()),
                },
            },
            WalRecord::Op {
                txn: 2,
                op: WalOp::SheetGrid {
                    sheet: "Sheet1".into(),
                    edit: GridEditKind::DeleteRows,
                    at: 4,
                    count: 2,
                },
            },
            WalRecord::Op {
                txn: 3,
                op: WalOp::BindCreate {
                    meta: BindingMeta {
                        id: 5,
                        sheet: "Sheet1".into(),
                        table: "t".into(),
                        row: 2,
                        col: 3,
                        model: crate::binding::BindModel::Tom,
                        cols: vec![0, 1, 2],
                    },
                },
            },
            WalRecord::Op {
                txn: 3,
                op: WalOp::BindDrop { id: 5 },
            },
            WalRecord::Op {
                txn: 4,
                op: WalOp::CreateTable {
                    table: "fresh".into(),
                    schema: Schema::new(vec![
                        crate::schema::ColumnDef::new("id", dataspread_types::DataType::Int)
                            .not_null(),
                        crate::schema::ColumnDef::new("name", dataspread_types::DataType::Text),
                    ])
                    .unwrap()
                    .with_pkey(&["id"])
                    .unwrap(),
                },
            },
            WalRecord::Op {
                txn: 4,
                op: WalOp::DropTable {
                    table: "fresh".into(),
                },
            },
        ] {
            let bytes = encode_record(&rec);
            assert_eq!(decode_record(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn scan_returns_committed_and_drops_open_txn() {
        let path = tmp("committed");
        let w = WalWriter::create(&path, 3).unwrap();
        w.begin().unwrap();
        w.log(op(1)).unwrap();
        w.log(op(2)).unwrap();
        w.commit().unwrap();
        w.begin().unwrap();
        w.log(op(3)).unwrap();
        // No commit: the process "crashes" here.
        drop(w);
        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(scan.generation, 3);
        let ops = committed_ops(&scan);
        assert_eq!(ops, vec![op(1), op(2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn autocommit_outside_txn() {
        let path = tmp("autocommit");
        let w = WalWriter::create(&path, 1).unwrap();
        w.log(op(7)).unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(committed_ops(&scan), vec![op(7)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_at_last_valid_record() {
        let path = tmp("torn");
        let w = WalWriter::create(&path, 1).unwrap();
        w.begin().unwrap();
        w.log(op(1)).unwrap();
        w.commit().unwrap();
        w.begin().unwrap();
        w.log(op(2)).unwrap();
        w.commit().unwrap();
        drop(w);
        let full = std::fs::read(&path).unwrap();
        // Chop mid-record: everything from the cut on is dead.
        for cut in (WAL_HEADER_SIZE as usize)..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_wal(&path).unwrap().unwrap();
            assert!(scan.valid_len <= cut as u64);
            let ops = committed_ops(&scan);
            assert!(ops.len() <= 2);
            // Prefix property: surviving ops are exactly the first k.
            for (i, o) in ops.iter().enumerate() {
                assert_eq!(*o, op(i as i64 + 1));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rollback_discards_records() {
        let path = tmp("rollback");
        let w = WalWriter::create(&path, 1).unwrap();
        w.begin().unwrap();
        w.log(op(1)).unwrap();
        w.rollback();
        w.begin().unwrap();
        w.log(op(2)).unwrap();
        w.commit().unwrap();
        drop(w);
        let scan = scan_wal(&path).unwrap().unwrap();
        assert_eq!(committed_ops(&scan), vec![op(2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn single_threaded_commit_is_one_fsync_each() {
        let path = tmp("gc-single");
        let w = WalWriter::create(&path, 1).unwrap();
        for i in 0..5 {
            w.log(op(i)).unwrap();
        }
        let c = w.counters();
        assert_eq!(c.commits.get(), 5);
        assert_eq!(
            c.fsyncs.get(),
            5,
            "uncontended autocommit pays its own fsync"
        );
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn group_sync_below_watermark_skips_fsync() {
        let path = tmp("gc-watermark");
        let w = WalWriter::create(&path, 1).unwrap();
        w.log(op(1)).unwrap();
        let before = w.counters().fsyncs.get();
        // Already durable: a sync request at or below the watermark is free.
        let target = w.inner().len;
        w.group_sync(target).unwrap();
        w.group_sync(WAL_HEADER_SIZE).unwrap();
        assert_eq!(w.counters().fsyncs.get(), before);
        drop(w);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_autocommits_all_durable_and_batched() {
        use std::sync::Arc;
        let path = tmp("gc-threads");
        let w = Arc::new(WalWriter::create(&path, 1).unwrap());
        const THREADS: u64 = 8;
        const OPS: u64 = 25;
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let w = Arc::clone(&w);
                std::thread::spawn(move || {
                    for i in 0..OPS {
                        w.log(op((t * OPS + i) as i64)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (commits, fsyncs) = (w.counters().commits.get(), w.counters().fsyncs.get());
        assert_eq!(commits, THREADS * OPS);
        assert!(fsyncs >= 1 && fsyncs <= commits);
        drop(w);
        let scan = scan_wal(&path).unwrap().unwrap();
        let mut keys: Vec<u64> = committed_ops(&scan)
            .iter()
            .map(|o| match o {
                WalOp::Insert { key, .. } => *key,
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..THREADS * OPS).collect::<Vec<_>>());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn invalid_header_reads_as_no_log() {
        let path = tmp("badheader");
        std::fs::write(&path, b"not a wal file").unwrap();
        assert!(scan_wal(&path).unwrap().is_none());
        assert!(scan_wal(tmp("missing")).unwrap().is_none());
        std::fs::remove_file(&path).unwrap();
    }
}
