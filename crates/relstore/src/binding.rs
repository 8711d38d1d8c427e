//! Durable metadata for table-bound sheet regions (paper §2.1, the hybrid
//! data models).
//!
//! A *binding* attaches a rectangular sheet region to a stored table so the
//! grid and the relation become two views of one store. The paper names
//! three presentation models and all three are one metadata shape here:
//!
//! * **TOM** (Table-Oriented Model) — the whole table with a header row
//!   naming its columns.
//! * **ROM** (Row-Oriented Model) — the table's row set in positional order
//!   (via the positional index), no header.
//! * **COM** (Column-Oriented Model) — a selected subset of columns, no
//!   header row requirement (the engine renders COM headerless).
//!
//! This module owns only the *durable metadata* — the engine-side registry,
//! edit routing, and refresh logic live in `dataspread::bind`. Metadata is
//! persisted twice: as a checkpoint section in the workbook snapshot stream,
//! and as WAL records ([`crate::wal::WalOp::BindCreate`] /
//! [`crate::wal::WalOp::BindDrop`]) so a binding created or dropped between
//! checkpoints survives a crash.

use dataspread_types::{DsError, DsResult};

use crate::codec::{put_str, put_u32, put_u64, Cursor};

/// Which presentation model a binding renders (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindModel {
    /// Whole table with a header row.
    Tom,
    /// Row set in positional order, no header.
    Rom,
    /// Selected columns, no header.
    Com,
}

impl BindModel {
    fn code(self) -> u8 {
        match self {
            BindModel::Tom => 0,
            BindModel::Rom => 1,
            BindModel::Com => 2,
        }
    }

    fn from_code(c: u8) -> DsResult<Self> {
        Ok(match c {
            0 => BindModel::Tom,
            1 => BindModel::Rom,
            2 => BindModel::Com,
            other => return Err(DsError::Storage(format!("binding: bad model code {other}"))),
        })
    }

    /// Does this model render a header row above the data rows?
    pub fn has_header(self) -> bool {
        matches!(self, BindModel::Tom)
    }
}

/// The durable description of one binding: which sheet rectangle mirrors
/// which table, and how.
///
/// The rectangle is *anchored*, not sized: its top-left corner is
/// (`row`, `col`) and its extent is derived live — height is the table's
/// row count (plus a header row for TOM), width is `cols.len()`. `cols`
/// holds schema column indices in display order; TOM/ROM bindings list
/// every column, COM a subset.
#[derive(Clone, Debug, PartialEq)]
pub struct BindingMeta {
    /// Workbook-unique binding id (never reused).
    pub id: u64,
    /// Name of the sheet holding the bound region.
    pub sheet: String,
    /// Name of the backing table.
    pub table: String,
    /// Top-left anchor row (the header row for TOM).
    pub row: u32,
    /// Top-left anchor column.
    pub col: u32,
    /// Presentation model.
    pub model: BindModel,
    /// Schema column indices displayed, in display order.
    pub cols: Vec<u32>,
}

impl BindingMeta {
    /// Serialize into a checkpoint/WAL stream.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        put_u64(buf, self.id);
        put_str(buf, &self.sheet);
        put_str(buf, &self.table);
        put_u32(buf, self.row);
        put_u32(buf, self.col);
        buf.push(self.model.code());
        put_u32(buf, self.cols.len() as u32);
        for &c in &self.cols {
            put_u32(buf, c);
        }
    }

    /// Decode from a checkpoint/WAL stream.
    pub fn decode(cur: &mut Cursor<'_>) -> DsResult<BindingMeta> {
        let id = cur.u64()?;
        let sheet = cur.str()?;
        let table = cur.str()?;
        let row = cur.u32()?;
        let col = cur.u32()?;
        let model = BindModel::from_code(cur.u8()?)?;
        let ncols = cur.u32()? as usize;
        let mut cols = Vec::with_capacity(ncols.min(cur.remaining()));
        for _ in 0..ncols {
            cols.push(cur.u32()?);
        }
        Ok(BindingMeta {
            id,
            sheet,
            table,
            row,
            col,
            model,
            cols,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        let meta = BindingMeta {
            id: 7,
            sheet: "Data".into(),
            table: "people".into(),
            row: 3,
            col: 1,
            model: BindModel::Com,
            cols: vec![2, 0],
        };
        let mut buf = Vec::new();
        meta.encode(&mut buf);
        let mut cur = Cursor::new(&buf);
        let back = BindingMeta::decode(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back, meta);
    }

    #[test]
    fn huge_column_count_is_a_storage_error() {
        let meta = BindingMeta {
            id: 1,
            sheet: "S".into(),
            table: "t".into(),
            row: 0,
            col: 0,
            model: BindModel::Com,
            cols: vec![],
        };
        let mut buf = Vec::new();
        meta.encode(&mut buf);
        // The trailing u32 is the column count.
        let n = buf.len();
        buf[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = BindingMeta::decode(&mut Cursor::new(&buf)).unwrap_err();
        assert!(matches!(err, DsError::Storage(_)), "{err:?}");
    }

    #[test]
    fn models_have_stable_codes_and_headers() {
        for (m, header) in [
            (BindModel::Tom, true),
            (BindModel::Rom, false),
            (BindModel::Com, false),
        ] {
            assert_eq!(BindModel::from_code(m.code()).unwrap(), m);
            assert_eq!(m.has_header(), header);
        }
        assert!(BindModel::from_code(9).is_err());
    }
}
