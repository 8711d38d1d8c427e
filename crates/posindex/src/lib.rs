//! The *positional index* (paper §3).
//!
//! > "We introduce a new type of index, positional, which makes
//! > interface-oriented operations, e.g., ordered presentation, efficient."
//!
//! A spreadsheet presents tuples *in an order*, addressed by row number. A
//! stock RDBMS has no efficient way to answer "which tuple is displayed at row
//! 481,227?" or "insert this tuple *between* rows 12 and 13" — the classical
//! workaround stores an explicit row-number column, making positional insert
//! O(n) (every subsequent tuple is renumbered).
//!
//! This crate provides:
//!
//! * [`CountedBtree`] — an order-statistics B-tree over stable row keys.
//!   `key_at`, `insert_at`, `remove_at`, and `position_of` are all O(log n);
//!   windowed reads are O(log n + window).
//! * [`DenseIndex`] — the stock baseline: a dense row-number assignment where
//!   positional insert/delete renumbers the suffix. Used as the comparison
//!   arm in experiment `C3` and as the *model* in property tests.
//!
//! Both index types implement [`PositionalIndex`], so the storage layer and
//! the benches can swap them freely. [`KeyMap`] is the dense key-indexed
//! map behind the counted B-tree's reverse index and the storage layer's
//! row directories.

pub mod counted_btree;
pub mod dense;
pub mod keymap;

pub use counted_btree::CountedBtree;
pub use dense::DenseIndex;
pub use keymap::KeyMap;

use dataspread_types::DsResult;

/// Stable identity of a tuple, assigned once at insert and never reused.
/// Positions change as rows are inserted/deleted above; keys do not.
pub type RowKey = u64;

/// Common interface of positional indexes: a sequence of distinct row keys
/// addressable by position.
pub trait PositionalIndex {
    /// Number of keys in the index.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert `key` so it ends up at position `pos` (everything at `pos` and
    /// after shifts down by one). Errors if `pos > len` or `key` is already
    /// present.
    fn insert_at(&mut self, pos: usize, key: RowKey) -> DsResult<()>;

    /// Append at the end.
    fn push(&mut self, key: RowKey) -> DsResult<()> {
        self.insert_at(self.len(), key)
    }

    /// Remove and return the key at `pos`. Errors if out of bounds.
    fn remove_at(&mut self, pos: usize) -> DsResult<RowKey>;

    /// The key currently at `pos`, if in bounds.
    fn key_at(&self, pos: usize) -> Option<RowKey>;

    /// Reverse lookup: the current position of `key`.
    fn position_of(&self, key: RowKey) -> Option<usize>;

    /// The keys at positions `pos .. pos+count` (clamped to the end) — the
    /// window-fetch primitive.
    fn range(&self, pos: usize, count: usize) -> Vec<RowKey>;

    /// All keys in positional order.
    fn to_vec(&self) -> Vec<RowKey> {
        self.range(0, self.len())
    }

    /// Remove by key; returns the position it occupied.
    fn remove_key(&mut self, key: RowKey) -> DsResult<usize> {
        let pos = self.position_of(key).ok_or_else(|| {
            dataspread_types::DsError::Storage(format!("row key {key} not in positional index"))
        })?;
        self.remove_at(pos)?;
        Ok(pos)
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;

    #[test]
    fn default_methods_delegate() {
        let mut idx = DenseIndex::new();
        idx.push(10).unwrap();
        idx.push(20).unwrap();
        idx.push(30).unwrap();
        assert_eq!(idx.to_vec(), vec![10, 20, 30]);
        assert_eq!(idx.remove_key(20).unwrap(), 1);
        assert_eq!(idx.to_vec(), vec![10, 30]);
        assert!(idx.remove_key(99).is_err());
    }
}
