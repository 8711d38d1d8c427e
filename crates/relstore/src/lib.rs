//! The *relational storage manager* (paper §3) — now durable.
//!
//! An embedded storage engine standing in for the PostgreSQL back-end of the
//! DataSpread demo (substitution #2 in `DESIGN.md`), built so that the
//! paper's storage arguments are *measurable*:
//!
//! * [`table::Table`] stores rows along **attribute groups** — the paper's
//!   hybrid of row- and column-store. The [`table::GroupPolicy`] selects
//!   between the stock row-store baseline, a pure column-store, and the
//!   bounded-width hybrid; experiment `C2` benchmarks `ALTER TABLE` across
//!   them.
//! * Fragments live in slotted 4 KiB [`page::Page`]s; every logical page
//!   touch is counted ([`table::TableStats`]) — the paper's "disk blocks
//!   touched" cost model, counted exactly rather than simulated.
//! * A table attached to a **durable store** writes real bytes: the
//!   [`pager::PageFile`] maps pages to frames of a checksummed on-disk file,
//!   the [`wal::WalWriter`] appends CRC-framed redo records fsynced on
//!   commit, and [`snapshot`] implements checkpointing plus ARIES-lite
//!   recovery (replay committed records, truncate the torn tail). Pages
//!   reach the page file only at checkpoints. Formats and protocol:
//!   `docs/STORAGE.md`.
//! * Each table maintains its presentation order in a positional index
//!   (`dataspread-posindex`), so windowed scans and positional inserts — the
//!   operations a spreadsheet interface issues — are O(log n).
//! * [`catalog::Catalog`] is the named-table entry point used by the SQL
//!   layer.

#![warn(missing_docs)]

pub mod binding;
pub mod catalog;
pub mod change;
pub mod codec;
pub mod crc;
pub mod metered;
pub mod page;
pub mod pager;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod vfs;
pub mod wal;

pub use binding::{BindModel, BindingMeta};
pub use catalog::{Catalog, TableRef, TableRefMut, TableShard, DEFAULT_POLICY};
pub use change::{ChangeKind, ChangeSet, RowChange};
pub use metered::{MeteredVfs, VfsMeter};
pub use page::{Page, PAGE_SIZE};
pub use pager::{PageFile, PageFileSnapshot, PageFileStats};
pub use schema::{ColumnDef, KeyTuple, Schema};
pub use snapshot::{
    load_catalog, load_catalog_with, save_catalog, save_catalog_with, LoadedCatalog, Replayed,
    StoreHandle, WalTail,
};
pub use stats::{ColumnSketch, ColumnSummary, TableStatistics, KMV_K};
pub use table::{GroupPolicy, RowIter, SnapRowIter, Table, TableSnapshot, TableStats};
pub use vfs::{
    os_vfs, FaultKind, FaultPlan, FaultStats, FaultVfs, OsVfs, RecoveryImage, Vfs, VfsFile,
};
pub use wal::{GridEditKind, SheetCellContent, WalCounters, WalOp, WalRecord, WalWriter};

pub use dataspread_posindex::RowKey;
