//! A sheet: schemaless interface data and formulas.
//!
//! Paper §3 (Interface Manager / Interface Storage): the sheet holds the
//! *interface data* — cells addressed by position, no schema — in a
//! [`TiledGrid`]. The tuple key ↔ location mapping lives with each table
//! (its positional index); the sheet itself addresses cells by position only.
//!
//! Formula cells keep their parsed [`Formula`] here, next to the *cached*
//! display value in the cell store — so every read path (`RANGEVALUE`,
//! `RANGETABLE`, region scans) sees computed results with zero formula
//! awareness. Recomputation is the workbook's job: the sheet records which
//! cells an edit changed (`Sheet::take_pending`), for the workbook to fold
//! in before that edit returns, and evaluates a freshly typed formula once
//! against itself. Structural edits shift the sheet's own cells, formulas
//! and self-references; the workbook rewrites the references other sheets
//! hold into it in the same call. When the owning workbook is durable,
//! every cell and structural edit is WAL-logged (the logical input, not the
//! computed value) so grid edits survive a crash between checkpoints.

use std::collections::{BTreeMap, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use dataspread_formula::{CellProvider, Formula, GridOp};
use dataspread_gridstore::{CellStore, TiledGrid};
use dataspread_relstore::wal::{GridEditKind, SheetCellContent, WalOp, WalWriter};
use dataspread_types::addr::{MAX_COL, MAX_ROW};
use dataspread_types::{CellAddr, CellError, DsError, DsResult, Range, SheetRef, Value};

/// A formula cell: the original source text plus its parsed form. `ast` is
/// `None` when the source did not parse — the cell then displays `#NAME?`
/// but the text is preserved for editing and persistence.
#[derive(Clone, Debug)]
pub(crate) struct CellFormula {
    pub src: String,
    pub ast: Option<Formula>,
}

/// One sheet of a workbook.
pub struct Sheet {
    name: String,
    cells: TiledGrid<Value>,
    /// Formula cells, keyed by position (row-major order for deterministic
    /// snapshots). The cell store holds their cached values.
    formulas: BTreeMap<CellAddr, CellFormula>,
    /// Redo log for grid edits when the owning workbook is durable.
    wal: Option<Arc<WalWriter>>,
    /// Cells edited since the workbook last recomputed.
    pending: HashSet<CellAddr>,
}

impl std::fmt::Debug for Sheet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sheet")
            .field("name", &self.name)
            .field("cells", &self.cells.cell_count())
            .field("formulas", &self.formulas.len())
            .finish()
    }
}

/// Formula resolution against a lone sheet: `Current` and the sheet's own
/// name resolve here, anything else is `#REF!`. The workbook substitutes its
/// cross-sheet provider when it recomputes.
struct LocalCells<'a>(&'a Sheet);

impl LocalCells<'_> {
    fn resolve(&self, sheet: &SheetRef) -> Result<&Sheet, CellError> {
        match sheet {
            SheetRef::Named(n) if !n.eq_ignore_ascii_case(&self.0.name) => Err(CellError::Ref),
            _ => Ok(self.0),
        }
    }
}

impl CellProvider for LocalCells<'_> {
    fn cell_value(&self, sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError> {
        Ok(self.resolve(sheet)?.value(addr))
    }

    fn visit_range(
        &self,
        sheet: &SheetRef,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &Value) -> ControlFlow<()>,
    ) -> Result<(), CellError> {
        self.resolve(sheet)?.visit_range(range, f);
        Ok(())
    }
}

impl Sheet {
    pub fn new(name: impl Into<String>) -> Self {
        Sheet {
            name: name.into(),
            cells: TiledGrid::default(),
            formulas: BTreeMap::new(),
            wal: None,
            pending: HashSet::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Direct access to the backing store (stats, block counts).
    pub fn store(&self) -> &TiledGrid<Value> {
        &self.cells
    }

    // ---- durability ------------------------------------------------------

    /// Attach the workbook's WAL: every subsequent cell/structural edit is
    /// logged (auto-committed) so it survives a crash between checkpoints.
    pub(crate) fn attach_wal(&mut self, wal: Arc<WalWriter>) {
        self.wal = Some(wal);
    }

    fn log_cell(&self, addr: CellAddr, content: SheetCellContent) -> DsResult<()> {
        match &self.wal {
            Some(wal) => wal.log(WalOp::SheetCell {
                sheet: self.name.clone(),
                row: addr.row,
                col: addr.col,
                content,
            }),
            None => Ok(()),
        }
    }

    fn log_grid(&self, edit: GridEditKind, at: u32, count: u32) -> DsResult<()> {
        match &self.wal {
            Some(wal) => wal.log(WalOp::SheetGrid {
                sheet: self.name.clone(),
                edit,
                at,
                count,
            }),
            None => Ok(()),
        }
    }

    // ---- cells -----------------------------------------------------------

    /// The value displayed at `addr` (empty cells read as [`Value::Empty`];
    /// formula cells read their cached computed value).
    pub fn value(&self, addr: CellAddr) -> Value {
        self.cells.get(addr).cloned().unwrap_or(Value::Empty)
    }

    /// Visit the non-empty displayed values of `range` row-major, a tile
    /// at a time, until `f` breaks: how formulas read ranges.
    pub(crate) fn visit_range(
        &self,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &Value) -> ControlFlow<()>,
    ) {
        let _ = self.cells.try_for_each_in_range(range, f);
    }

    /// Raw store write shared by the edit paths and the recompute path.
    fn store_write(&mut self, addr: CellAddr, v: Value) -> Value {
        let old = if v.is_empty() {
            self.cells.remove(addr)
        } else {
            self.cells.set(addr, v)
        };
        old.unwrap_or(Value::Empty)
    }

    /// Overwrite a cell's *cached* value during recomputation: no WAL record
    /// (computed values are derivable), no pending mark, the formula stays.
    pub(crate) fn set_cached(&mut self, addr: CellAddr, v: Value) {
        self.store_write(addr, v);
    }

    /// Write one mirror cell of a table-bound region: no WAL record (the
    /// binding re-renders from the recovered table), but the edit is marked
    /// pending so formulas watching the region recompute, and any formula at
    /// the address is displaced (bound cells cannot hold formulas).
    pub(crate) fn write_bound(&mut self, addr: CellAddr, v: Value) {
        self.formulas.remove(&addr);
        self.pending.insert(addr);
        self.store_write(addr, v);
    }

    /// Write one literal cell. Writing `Empty` clears the cell (the stores
    /// hold only non-empty cells). Replaces any formula at `addr`. Returns
    /// the previous displayed value. Errors only on WAL I/O failure when the
    /// sheet is durable.
    pub fn set_value(&mut self, addr: CellAddr, v: Value) -> DsResult<Value> {
        self.log_cell(addr, SheetCellContent::Value(v.clone()))?;
        self.formulas.remove(&addr);
        self.pending.insert(addr);
        Ok(self.store_write(addr, v))
    }

    /// Type keyboard input into a cell: `=`-prefixed input is parsed and
    /// stored as a formula (unparseable source displays `#NAME?`), anything
    /// else goes through spreadsheet literal recognition. Returns the value
    /// the cell now displays.
    ///
    /// On a lone sheet the formula is evaluated once, immediately, against
    /// this sheet (cross-sheet references read `#REF!`). Inside a workbook,
    /// use [`crate::Workbook::set_input`] — it evaluates through the
    /// cross-sheet dependency graph and recomputes dependents.
    pub fn set_input(&mut self, addr: CellAddr, input: &str) -> DsResult<Value> {
        if input.trim_start().starts_with('=') {
            return self.set_formula(addr, input.trim());
        }
        let v = Value::from_input(input);
        self.set_value(addr, v.clone())?;
        Ok(v)
    }

    /// [`Sheet::set_input`] inside a workbook: a formula is stored, not
    /// evaluated (see [`Sheet::store_formula`]).
    pub(crate) fn store_input(&mut self, addr: CellAddr, input: &str) -> DsResult<()> {
        if input.trim_start().starts_with('=') {
            return self.store_formula(addr, input.trim());
        }
        self.set_value(addr, Value::from_input(input)).map(drop)
    }

    /// Store formula source at `addr` and evaluate it once against this
    /// sheet. Returns the displayed value.
    pub fn set_formula(&mut self, addr: CellAddr, src: &str) -> DsResult<Value> {
        self.store_formula(addr, src)?;
        let v = match self.formula_ast(addr) {
            Some(f) => f.eval(&LocalCells(self)),
            None => Value::Error(CellError::Name),
        };
        self.store_write(addr, v.clone());
        Ok(v)
    }

    /// Store formula source at `addr` and mark it pending, without
    /// evaluating it: inside a workbook (live edits and WAL replay alike)
    /// the write boundary's flush evaluates it once, with its dependents.
    /// Unparseable source shows `#NAME?` at once, which no evaluation
    /// changes.
    pub(crate) fn store_formula(&mut self, addr: CellAddr, src: &str) -> DsResult<()> {
        self.log_cell(addr, SheetCellContent::Formula(src.to_string()))?;
        let ast = Formula::parse(src).ok();
        if ast.is_none() {
            self.store_write(addr, Value::Error(CellError::Name));
        }
        self.formulas.insert(
            addr,
            CellFormula {
                src: src.to_string(),
                ast,
            },
        );
        self.pending.insert(addr);
        Ok(())
    }

    /// The formula source at `addr`, if the cell holds one.
    pub fn formula_text(&self, addr: CellAddr) -> Option<&str> {
        self.formulas.get(&addr).map(|f| f.src.as_str())
    }

    /// Number of formula cells on this sheet.
    pub fn formula_count(&self) -> usize {
        self.formulas.len()
    }

    pub(crate) fn formula_ast(&self, addr: CellAddr) -> Option<&Formula> {
        self.formulas.get(&addr).and_then(|f| f.ast.as_ref())
    }

    /// Positions of every formula cell, row-major.
    pub(crate) fn formula_addrs(&self) -> Vec<CellAddr> {
        self.formulas.keys().copied().collect()
    }

    /// Take (and clear) the cells edited since the last recomputation.
    pub(crate) fn take_pending(&mut self) -> HashSet<CellAddr> {
        std::mem::take(&mut self.pending)
    }

    /// Mark a cell edited without writing it, so the next flush
    /// re-evaluates the formula there and its dependents.
    pub(crate) fn mark_pending(&mut self, addr: CellAddr) {
        self.pending.insert(addr);
    }

    pub(crate) fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Fill a rectangular region from a row-major matrix starting at `at`.
    /// On a durable sheet the whole region logs as **one** WAL transaction —
    /// one fsync instead of one per cell, and replay applies the region
    /// atomically.
    pub fn set_region(&mut self, at: CellAddr, rows: &[Vec<Value>]) -> DsResult<()> {
        self.in_wal_txn(|s| {
            for (dr, row) in rows.iter().enumerate() {
                for (dc, v) in row.iter().enumerate() {
                    s.set_value(
                        CellAddr::new(at.row + dr as u32, at.col + dc as u32),
                        v.clone(),
                    )?;
                }
            }
            Ok(())
        })
    }

    /// Write a list of literal cells as **one** WAL transaction (one fsync),
    /// like [`Sheet::set_region`] but for an arbitrary cell set — the
    /// workbook batches the unbound remainder of a partially-bound region
    /// write through this.
    pub fn set_cells(&mut self, writes: &[(CellAddr, Value)]) -> DsResult<()> {
        self.in_wal_txn(|s| {
            for (addr, v) in writes {
                s.set_value(*addr, v.clone())?;
            }
            Ok(())
        })
    }

    /// Run `edits` inside one WAL transaction when the sheet is durable.
    /// On failure this mirrors `Workbook::execute`'s convention: the cells
    /// that did apply are already logged, so commit them and recovery
    /// rebuilds exactly what memory saw. The original error outranks a
    /// commit I/O error.
    fn in_wal_txn(&mut self, edits: impl FnOnce(&mut Self) -> DsResult<()>) -> DsResult<()> {
        let Some(wal) = self.wal.clone() else {
            return edits(self);
        };
        wal.begin()?;
        let applied = edits(self);
        applied.and(wal.commit())
    }

    /// Dense row-major matrix of a region (empty cells as `Empty`).
    pub fn region(&self, range: Range) -> Vec<Vec<Value>> {
        let mut out = vec![vec![Value::Empty; range.width() as usize]; range.height() as usize];
        self.cells.for_each_in_range(range, &mut |a, v| {
            out[(a.row - range.start.row) as usize][(a.col - range.start.col) as usize] = v.clone();
        });
        out
    }

    pub fn cell_count(&self) -> usize {
        self.cells.cell_count()
    }

    pub fn used_bounds(&self) -> Option<Range> {
        self.cells.used_bounds()
    }

    // ---- structural edits -------------------------------------------------

    /// Shift the formula cells themselves and every *self*-reference inside
    /// them (`A1` and `ThisSheet!A1` alike) for a structural edit. References
    /// from other sheets are the workbook's job (`Workbook::edit_grid`).
    fn shift_formulas(&mut self, op: GridOp) {
        let old = std::mem::take(&mut self.formulas);
        for (addr, f) in old {
            if let Some(new_addr) = op.map_addr(addr) {
                self.formulas.insert(new_addr, f);
            }
            // Formulas on deleted rows/cols vanish with their cells.
        }
        let me = self.name.clone();
        for f in self.formulas.values_mut() {
            if let Some(ast) = &mut f.ast {
                let applies = |s: &SheetRef| match s {
                    SheetRef::Current => true,
                    SheetRef::Named(n) => n.eq_ignore_ascii_case(&me),
                };
                if ast.adjust(op, &applies) {
                    // Keep the stored source in sync with the rewritten AST.
                    f.src = ast.to_string();
                }
            }
        }
    }

    /// Rewrite references this sheet's formulas hold into another (edited)
    /// sheet: only `Named` qualifiers can point at a foreign sheet. Called by
    /// the workbook when a *different* sheet has a structural edit, in the
    /// same call as the edit.
    pub(crate) fn adjust_foreign_refs(&mut self, op: GridOp, edited: &str) {
        for f in self.formulas.values_mut() {
            if let Some(ast) = &mut f.ast {
                let applies = |s: &SheetRef| matches!(s, SheetRef::Named(n) if n.eq_ignore_ascii_case(edited));
                if ast.adjust(op, &applies) {
                    f.src = ast.to_string();
                }
            }
        }
    }

    /// Insert `count` blank rows at `at`: cells shift down. Formulas shift
    /// with their cells; self-references are rewritten.
    pub fn insert_rows(&mut self, at: u32, count: u32) -> DsResult<()> {
        self.edit_grid(GridOp::InsertRows { at, count })
    }

    /// Delete `count` rows at `at`: their cells vanish, rows below shift up.
    /// Self-references into the deleted span become `#REF!`.
    pub fn delete_rows(&mut self, at: u32, count: u32) -> DsResult<()> {
        self.edit_grid(GridOp::DeleteRows { at, count })
    }

    /// Insert `count` blank columns at `at`.
    pub fn insert_cols(&mut self, at: u32, count: u32) -> DsResult<()> {
        self.edit_grid(GridOp::InsertCols { at, count })
    }

    /// Delete columns `[at, at + count)`.
    pub fn delete_cols(&mut self, at: u32, count: u32) -> DsResult<()> {
        self.edit_grid(GridOp::DeleteCols { at, count })
    }

    /// The one path of the four structural edits. An edit that would leave
    /// the address space — a span `[at, at + count)` past the last row or
    /// column, or an insert that would push a used cell past it — is
    /// rejected before it is logged, so lone sheets, the workbook and WAL
    /// replay share the rule.
    pub(crate) fn edit_grid(&mut self, op: GridOp) -> DsResult<()> {
        use GridEditKind as K;
        let (kind, at, count, rows, insert) = match op {
            GridOp::InsertRows { at, count } => (K::InsertRows, at, count, true, true),
            GridOp::DeleteRows { at, count } => (K::DeleteRows, at, count, true, false),
            GridOp::InsertCols { at, count } => (K::InsertCols, at, count, false, true),
            GridOp::DeleteCols { at, count } => (K::DeleteCols, at, count, false, false),
        };
        if count == 0 {
            return Ok(());
        }
        let max = u64::from(if rows { MAX_ROW } else { MAX_COL });
        let span_fits = u64::from(at) + u64::from(count) <= max + 1;
        let shift_fits = || {
            self.last_used(rows)
                .is_none_or(|last| u64::from(last) + u64::from(count) <= max)
        };
        if !span_fits || (insert && !shift_fits()) {
            return Err(DsError::Interface(format!(
                "{op:?} reaches past the last {}",
                if rows { "row" } else { "column" }
            )));
        }
        self.log_grid(kind, at, count)?;
        match op {
            GridOp::InsertRows { .. } => self.cells.insert_rows(at, count),
            GridOp::DeleteRows { .. } => self.cells.delete_rows(at, count),
            GridOp::InsertCols { .. } => self.cells.insert_cols(at, count),
            GridOp::DeleteCols { .. } => self.cells.delete_cols(at, count),
        }
        self.shift_formulas(op);
        Ok(())
    }

    /// The last row (or column) holding a value or a formula. A formula
    /// whose value is empty has no cell in the store, so both are read.
    fn last_used(&self, rows: bool) -> Option<u32> {
        let axis = |a: CellAddr| if rows { a.row } else { a.col };
        let cells = self.cells.used_bounds().map(|b| axis(b.end));
        let formulas = self.formulas.keys().map(|&a| axis(a)).max();
        cells.max(formulas)
    }

    /// Parse-and-validate helper used by the workbook's A1 entry points.
    pub(crate) fn parse_range(a1: &str) -> DsResult<Range> {
        Range::parse_a1(a1)
            .map_err(|_| DsError::Interface(format!("invalid range reference `{a1}`")))
    }

    // ---- persistence (checkpoint format; see docs/STORAGE.md) -------------

    /// Serialize the sheet into the workbook snapshot stream: name, the
    /// reserved fields, every non-empty cell (formula cells store their
    /// cached value), and every formula source.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        use dataspread_relstore::codec::{encode_value, put_str, put_u32, put_u64};
        put_str(buf, &self.name);
        // Reserved (was the sheet's store kind): written as zero.
        buf.push(0);
        // Reserved (was the row-key watermark and the stable row-key
        // list): written as a zero watermark and an empty list.
        put_u64(buf, 0);
        put_u64(buf, 0);
        let mut cells: Vec<(CellAddr, Value)> = Vec::with_capacity(self.cells.cell_count());
        self.cells
            .for_each_cell(&mut |a, v| cells.push((a, v.clone())));
        // Deterministic order for byte-stable snapshots.
        cells.sort_by_key(|(a, _)| (a.row, a.col));
        put_u64(buf, cells.len() as u64);
        for (a, v) in cells {
            put_u32(buf, a.row);
            put_u32(buf, a.col);
            encode_value(buf, &v);
        }
        // Formula sources (BTreeMap iteration is already row-major).
        put_u64(buf, self.formulas.len() as u64);
        for (a, f) in &self.formulas {
            put_u32(buf, a.row);
            put_u32(buf, a.col);
            put_str(buf, &f.src);
        }
    }

    /// Rebuild a sheet from the snapshot stream. Formula sources are
    /// re-parsed; cached values come back from the cell section, so no
    /// evaluation happens here (the workbook indexes the formulas and
    /// recomputes only what recovery dirtied). `with_formulas` is false when
    /// decoding a version-1 stream, which predates formula sections.
    pub(crate) fn decode(
        cur: &mut dataspread_relstore::codec::Cursor<'_>,
        with_formulas: bool,
    ) -> DsResult<Sheet> {
        let name = cur.str()?;
        // Reserved (was the sheet's store kind): ignored.
        cur.u8()?;
        // Reserved (was the row-key watermark and `n_keys × u64` stable row
        // keys): read and discarded.
        cur.u64()?;
        let nkeys = cur.u64()?;
        let key_bytes = nkeys
            .checked_mul(8)
            .and_then(|n| usize::try_from(n).ok())
            .ok_or_else(|| DsError::Storage(format!("sheet `{name}`: {nkeys} row keys")))?;
        cur.bytes(key_bytes)?;
        let mut sheet = Sheet::new(name);
        let ncells = cur.u64()? as usize;
        for _ in 0..ncells {
            let row = cur.u32()?;
            let col = cur.u32()?;
            let v = cur.value()?;
            sheet.cells.set(CellAddr::new(row, col), v);
        }
        if with_formulas {
            let nformulas = cur.u64()? as usize;
            for _ in 0..nformulas {
                let row = cur.u32()?;
                let col = cur.u32()?;
                let src = cur.str()?;
                let ast = Formula::parse(&src).ok();
                sheet
                    .formulas
                    .insert(CellAddr::new(row, col), CellFormula { src, ast });
            }
        }
        Ok(sheet)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    #[test]
    fn cell_round_trip_all_stores() {
        let mut s = Sheet::new("S");
        assert_eq!(s.value(a("B2")), Value::Empty);
        s.set_input(a("B2"), "42").unwrap();
        assert_eq!(s.value(a("B2")), Value::Int(42));
        s.set_value(a("B2"), Value::Empty).unwrap();
        assert_eq!(s.cell_count(), 0, "clears on Empty write");
    }

    #[test]
    fn formula_input_is_not_text() {
        let mut s = Sheet::new("S");
        s.set_input(a("A1"), "2").unwrap();
        s.set_input(a("A2"), "3").unwrap();
        let v = s.set_input(a("A3"), "=A1+A2").unwrap();
        assert_eq!(v, Value::Int(5));
        assert_eq!(s.value(a("A3")), Value::Int(5));
        assert_eq!(s.formula_text(a("A3")), Some("=A1+A2"));
        // Unparseable formula input: #NAME?, never silent text.
        let v = s.set_input(a("A4"), "=NOPE(").unwrap();
        assert_eq!(v, Value::Error(CellError::Name));
        assert_eq!(s.formula_text(a("A4")), Some("=NOPE("));
        // Overwriting with a literal clears the formula.
        s.set_input(a("A3"), "9").unwrap();
        assert_eq!(s.formula_text(a("A3")), None);
        assert_eq!(s.value(a("A3")), Value::Int(9));
    }

    #[test]
    fn lone_sheet_resolves_own_name_only() {
        let mut s = Sheet::new("Data");
        s.set_input(a("A1"), "4").unwrap();
        assert_eq!(s.set_input(a("B1"), "=Data!A1*2").unwrap(), Value::Int(8));
        assert_eq!(
            s.set_input(a("B2"), "=Other!A1").unwrap(),
            Value::Error(CellError::Ref)
        );
    }

    #[test]
    fn region_round_trip() {
        let mut s = Sheet::new("S");
        s.set_region(
            a("B2"),
            &[
                vec![Value::Int(1), Value::Int(2)],
                vec![Value::Int(3), Value::Empty],
            ],
        )
        .unwrap();
        let m = s.region(Range::parse_a1("B2:C3").unwrap());
        assert_eq!(m[0], vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(m[1], vec![Value::Int(3), Value::Empty]);
    }

    #[test]
    fn formulas_shift_with_structural_edits() {
        let mut s = Sheet::new("S");
        s.set_input(a("A1"), "10").unwrap();
        s.set_input(a("B5"), "=A1*2").unwrap();
        s.set_input(a("A5"), "bottom").unwrap();
        s.insert_rows(2, 3).unwrap();
        assert_eq!(
            s.value(a("A8")),
            Value::text("bottom"),
            "cell below shifted"
        );
        // The formula cell moved from B5 to B8; its ref to A1 is unchanged.
        assert_eq!(s.formula_text(a("B5")), None);
        assert_eq!(s.formula_text(a("B8")), Some("=A1*2"));
        // Deleting row 1 breaks the reference.
        s.delete_rows(0, 1).unwrap();
        assert_eq!(s.formula_text(a("B7")), Some("=(#REF!*2)"));
        // Deleting the formula's own row drops the formula.
        s.delete_rows(6, 1).unwrap();
        assert_eq!(s.formula_count(), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut s = Sheet::new("Grid");
        s.set_input(a("A1"), "hello").unwrap();
        s.set_input(a("C7"), "3.5").unwrap();
        s.set_input(a("B2"), "#REF!").unwrap();
        s.set_input(a("D1"), "=C7+1").unwrap();
        s.insert_rows(1, 2).unwrap();
        let mut buf = Vec::new();
        s.encode(&mut buf);
        let mut cur = dataspread_relstore::codec::Cursor::new(&buf);
        let back = Sheet::decode(&mut cur, true).unwrap();
        assert!(cur.is_empty());
        assert_eq!(back.name(), "Grid");
        // insert_rows(1, 2) shifted C7→C9 and B2→B4; A1/D1 stayed put.
        assert_eq!(back.value(a("A1")), Value::text("hello"));
        assert_eq!(back.value(a("C9")), Value::Float(3.5));
        assert!(back.value(a("B4")).is_error());
        assert_eq!(back.value(a("C7")), Value::Empty);
        // The formula survived with its shifted reference and cached value.
        assert_eq!(back.formula_text(a("D1")), Some("=(C9+1)"));
        assert_eq!(back.value(a("D1")), Value::Float(4.5));
        assert_eq!(back.cell_count(), s.cell_count());
    }

    #[test]
    fn decode_huge_row_key_count_is_a_storage_error() {
        use dataspread_relstore::codec::{put_str, put_u64};
        let mut buf = Vec::new();
        put_str(&mut buf, "S");
        buf.push(0); // reserved
        put_u64(&mut buf, 1); // next row key
        put_u64(&mut buf, u64::MAX); // row key count
        let mut cur = dataspread_relstore::codec::Cursor::new(&buf);
        let err = Sheet::decode(&mut cur, true).err().unwrap();
        assert!(matches!(err, DsError::Storage(_)), "{err:?}");
    }

    /// A row insert costs the sheet nothing per row above it: a one-cell
    /// sheet encodes to the same length whether the insert lands at row 10
    /// or at row 1 000 000.
    #[test]
    fn insert_depth_does_not_grow_the_encoding() {
        let encoded_len = |at| {
            let mut s = Sheet::new("S");
            s.set_input(a("A1"), "x").unwrap();
            s.insert_rows(at, 1).unwrap();
            let mut buf = Vec::new();
            s.encode(&mut buf);
            buf.len()
        };
        assert_eq!(encoded_len(10), encoded_len(1_000_000));
    }

    /// A formula showing an empty value holds no cell in the store, yet an
    /// insert must not push it off the sheet either.
    #[test]
    fn insert_cannot_push_an_empty_formula_off_the_sheet() {
        let mut s = Sheet::new("S");
        let last = CellAddr::new(MAX_ROW, 0);
        s.set_formula(last, "=C1").unwrap();
        assert_eq!(s.cell_count(), 0);
        assert!(matches!(s.insert_rows(0, 1), Err(DsError::Interface(_))));
        assert_eq!(s.formula_text(last), Some("=C1"));
    }
}
