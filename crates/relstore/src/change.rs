//! Change sets: what a statement, or a replayed WAL tail, did to each
//! table's rows.
//!
//! A change set lists row changes in apply order, grouped by table. Every
//! entry is exactly one [`Table::version`] bump of its table, so an observer
//! that last saw version `v` holds the whole story when `v + entries ==
//! version`; any other bump (DDL, a direct write) leaves a gap it must
//! cover some other way. Each entry records the display position the row
//! had when the change applied: an insert's landing position, a delete's
//! vacated one, an update's (unmoved) one. That is what lets a bound sheet
//! region re-render from the first position a statement touched instead
//! of diffing the whole table.
//!
//! The DML and replay paths build change sets around the table calls, not
//! inside [`Table`]: bulk loads through [`Table::insert`] pay nothing.
//!
//! [`Table`]: crate::Table
//! [`Table::version`]: crate::Table::version
//! [`Table::insert`]: crate::Table::insert

use crate::RowKey;

/// What one row change did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeKind {
    /// A row was inserted at the entry's position.
    Insert,
    /// The row at the entry's position was deleted.
    Delete,
    /// The row at the entry's position was rewritten in place.
    Update,
}

/// One applied row change: its kind, the row's key, and the row's display
/// position when the change applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowChange {
    /// What the change did.
    pub kind: ChangeKind,
    /// The row's storage key.
    pub key: RowKey,
    /// The row's display position at apply time.
    pub pos: usize,
}

/// The row changes of one statement or one replayed WAL tail, per table in
/// apply order (see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChangeSet {
    tables: Vec<(String, Vec<RowChange>)>,
}

impl ChangeSet {
    /// Record one change applied to `table`.
    pub fn push(&mut self, table: &str, kind: ChangeKind, key: RowKey, pos: usize) {
        let change = RowChange { kind, key, pos };
        match self.index_of(table) {
            Some(i) => self.tables[i].1.push(change),
            None => self.tables.push((table.to_string(), vec![change])),
        }
    }

    /// The changes applied to `table` (names compare case-insensitively),
    /// in apply order; `None` when it has none.
    pub fn for_table(&self, table: &str) -> Option<&[RowChange]> {
        self.index_of(table).map(|i| self.tables[i].1.as_slice())
    }

    /// Total number of changes over every table.
    pub fn len(&self) -> usize {
        self.tables.iter().map(|(_, c)| c.len()).sum()
    }

    /// No change recorded.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    fn index_of(&self, table: &str) -> Option<usize> {
        // The last table first: a statement touches one table, and a WAL
        // tail mostly runs in per-table streaks.
        (0..self.tables.len())
            .rev()
            .find(|&i| self.tables[i].0.eq_ignore_ascii_case(table))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_group_by_table_in_apply_order() {
        let mut c = ChangeSet::default();
        assert!(c.is_empty());
        c.push("t", ChangeKind::Insert, 7, 3);
        c.push("u", ChangeKind::Delete, 1, 0);
        c.push("T", ChangeKind::Update, 2, 1);
        assert_eq!(c.len(), 3);
        let t = c.for_table("t").unwrap();
        assert_eq!(
            t,
            [
                RowChange {
                    kind: ChangeKind::Insert,
                    key: 7,
                    pos: 3
                },
                RowChange {
                    kind: ChangeKind::Update,
                    key: 2,
                    pos: 1
                },
            ]
        );
        assert_eq!(c.for_table("U").map(<[_]>::len), Some(1));
        assert_eq!(c.for_table("v"), None);
    }
}
