//! Property suite: after any random sequence of grid edits, the state the
//! *incremental* recompute engine left behind is identical to a full
//! from-scratch recalculation — incremental recompute must be an
//! optimization, never a semantics change.

use std::cell::Cell;
use std::sync::Arc;

use dataspread::{SheetId, Workbook};
use dataspread_formula::{CellProvider, Formula};
use dataspread_relstore::vfs::{FaultPlan, FaultVfs, RecoveryImage, Vfs};
use dataspread_testkit as testkit;
use dataspread_types::{CellAddr, CellError, Range, SheetRef, Value};

const ROWS: u32 = 8;
const COLS: u32 = 4;

fn rand_addr(rng: &mut testkit::Rng) -> CellAddr {
    CellAddr::new(rng.u32_in(0, ROWS), rng.u32_in(0, COLS))
}

fn a1(addr: CellAddr) -> String {
    addr.to_a1()
}

/// A random reference, optionally sheet-qualified.
fn rand_ref(rng: &mut testkit::Rng, sheets: &[&str]) -> String {
    let addr = rand_addr(rng);
    if rng.below(3) == 0 {
        format!("{}!{}", sheets[rng.index(sheets.len())], a1(addr))
    } else {
        a1(addr)
    }
}

fn rand_range(rng: &mut testkit::Rng, sheets: &[&str]) -> String {
    let a = rand_addr(rng);
    let b = rand_addr(rng);
    let r = Range::new(a, b).to_a1();
    // `Range::to_a1` collapses 1×1 ranges to a bare cell; force the colon
    // form so aggregates always see a range argument.
    let r = if r.contains(':') {
        r
    } else {
        format!("{r}:{r}")
    };
    if rng.below(3) == 0 {
        format!("{}!{}", sheets[rng.index(sheets.len())], r)
    } else {
        r
    }
}

fn rand_formula(rng: &mut testkit::Rng, sheets: &[&str]) -> String {
    match rng.weighted(&[3, 3, 2, 2, 2, 1]) {
        0 => format!("=SUM({})", rand_range(rng, sheets)),
        1 => format!("={}+{}", rand_ref(rng, sheets), rand_ref(rng, sheets)),
        2 => format!(
            "=IF({}>{},{},{})",
            rand_ref(rng, sheets),
            rng.below(50),
            rand_ref(rng, sheets),
            rng.below(10)
        ),
        3 => format!("=AVG({})", rand_range(rng, sheets)),
        4 => format!("={}*2-{}", rand_ref(rng, sheets), rand_ref(rng, sheets)),
        _ => format!("=COUNT({})&\"!\"", rand_range(rng, sheets)),
    }
}

/// Every cell value in the workbook, dense over a fixed window (large enough
/// to cover all edits including shifted cells).
fn snapshot(wb: &Workbook, sheets: &[SheetId]) -> Vec<Vec<Vec<Value>>> {
    let window = Range::from_bounds(0, 0, ROWS + 12, COLS + 12);
    sheets.iter().map(|&s| wb.sheet(s).region(window)).collect()
}

#[test]
fn incremental_recompute_equals_full_recompute() {
    testkit::cases(60, 0xF0121A, |rng| {
        let mut wb = Workbook::new();
        let s1 = wb.current_sheet();
        let s2 = wb.add_sheet("Data").unwrap();
        let ids = [s1, s2];
        let names = ["Sheet1", "Data"];
        let edits = rng.usize_in(10, 40);
        for _ in 0..edits {
            let sheet = ids[rng.index(2)];
            match rng.weighted(&[5, 4, 2, 1, 1, 1, 1]) {
                // Literal write.
                0 => {
                    let v = rng.below(100).to_string();
                    wb.set_input(sheet, rand_addr(rng), &v).unwrap();
                }
                // Formula write.
                1 => {
                    let f = rand_formula(rng, &names);
                    wb.set_input(sheet, rand_addr(rng), &f).unwrap();
                }
                // Clear.
                2 => {
                    wb.set_value(sheet, rand_addr(rng), Value::Empty).unwrap();
                }
                // Structural edits (small, near the data).
                3 => wb
                    .insert_rows(sheet, rng.u32_in(0, ROWS), rng.u32_in(1, 3))
                    .unwrap(),
                4 => wb
                    .delete_rows(sheet, rng.u32_in(0, ROWS), rng.u32_in(1, 3))
                    .unwrap(),
                5 => wb
                    .insert_cols(sheet, rng.u32_in(0, COLS), rng.u32_in(1, 2))
                    .unwrap(),
                _ => wb
                    .delete_cols(sheet, rng.u32_in(0, COLS), rng.u32_in(1, 2))
                    .unwrap(),
            }
        }
        // The incremental engine's state…
        let incremental = snapshot(&wb, &ids);
        // …must match a full from-scratch recalculation.
        wb.recalculate();
        let full = snapshot(&wb, &ids);
        assert_eq!(incremental, full, "incremental ≠ full recompute");

        // Every surviving formula's stored source must still parse (the
        // structural-edit rewriter keeps sources canonical, `#REF!`
        // included), so it round-trips through persistence.
        for &s in &ids {
            let sheet = wb.sheet(s);
            let window = Range::from_bounds(0, 0, ROWS + 12, COLS + 12);
            for addr in window.iter_cells() {
                if let Some(src) = sheet.formula_text(addr) {
                    Formula::parse(src)
                        .unwrap_or_else(|e| panic!("stored formula `{src}` no longer parses: {e}"));
                }
            }
        }
    });
}

#[test]
fn incremental_touches_only_downstream_formulas() {
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    // A diamond A1 → {B1, B2} → C1 plus 50 unrelated formulas.
    wb.set_input(s, CellAddr::new(0, 0), "1").unwrap();
    wb.set_input(s, CellAddr::parse_a1("B1").unwrap(), "=A1+1")
        .unwrap();
    wb.set_input(s, CellAddr::parse_a1("B2").unwrap(), "=A1*2")
        .unwrap();
    wb.set_input(s, CellAddr::parse_a1("C1").unwrap(), "=B1+B2")
        .unwrap();
    for i in 0..50 {
        wb.set_input(s, CellAddr::new(i + 20, 0), &format!("=Z{}+1", i + 100))
            .unwrap();
    }
    let before = recomputed(&wb);
    let visited_before = visited(&wb);
    wb.set_input(s, CellAddr::new(0, 0), "10").unwrap();
    let touched = recomputed(&wb) - before;
    assert_eq!(
        touched, 3,
        "editing A1 must recompute exactly B1, B2, C1 — not the 50 unrelated formulas"
    );
    assert_eq!(
        visited(&wb) - visited_before,
        3,
        "the pass must not even examine the 50 unrelated formulas"
    );
    assert_eq!(
        wb.cell(s, CellAddr::parse_a1("C1").unwrap()),
        Value::Int(31)
    );
}

/// Formula cells evaluated (or poisoned with `#CYCLE!`) so far.
fn recomputed(wb: &Workbook) -> u64 {
    wb.metrics_snapshot()
        .counter("calc_cells_recomputed")
        .unwrap_or(0)
}

/// Formula cells any recompute pass has examined so far.
fn visited(wb: &Workbook) -> u64 {
    wb.metrics_snapshot()
        .counter("calc_graph_nodes_visited")
        .unwrap_or(0)
}

/// Cases per property run: `DSP_STRESS_ITERS` (default 60), as the
/// concurrency and chaos suites read it.
fn iters() -> u64 {
    std::env::var("DSP_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60)
}

/// A random cell of `sheet` that holds a formula now, if any.
fn formula_cell(wb: &Workbook, sheet: SheetId, rng: &mut testkit::Rng) -> Option<CellAddr> {
    let window = Range::from_bounds(0, 0, ROWS + 12, COLS + 12);
    let cells: Vec<CellAddr> = window
        .iter_cells()
        .filter(|&a| wb.sheet(sheet).formula_text(a).is_some())
        .collect();
    (!cells.is_empty()).then(|| cells[rng.index(cells.len())])
}

/// One step of the lockstep stream, applied to both workbooks.
#[derive(Debug)]
enum Edit {
    Input(SheetId, CellAddr, String),
    Value(SheetId, CellAddr, Value),
    /// A block of literals (blanks clear) written by one `set_region`.
    Region(SheetId, CellAddr, Vec<Vec<Value>>),
    /// Insert rows, delete rows, insert columns, delete columns (0..=3).
    Structural(u32, SheetId, u32, u32),
    AddLater,
}

impl Edit {
    fn apply(&self, wb: &mut Workbook) {
        match self {
            Edit::Input(s, a, input) => {
                wb.set_input(*s, *a, input).unwrap();
            }
            Edit::Value(s, a, v) => {
                wb.set_value(*s, *a, v.clone()).unwrap();
            }
            Edit::Region(s, a, rows) => {
                wb.set_region(*s, *a, rows).unwrap();
            }
            Edit::Structural(k, s, at, n) => match k {
                0 => wb.insert_rows(*s, *at, *n),
                1 => wb.delete_rows(*s, *at, *n),
                2 => wb.insert_cols(*s, at % COLS, *n),
                _ => wb.delete_cols(*s, at % COLS, *n),
            }
            .unwrap(),
            Edit::AddLater => {
                wb.add_sheet("Later").unwrap();
            }
        }
    }
}

/// The in-memory store the lockstep's incremental workbook lives in.
const STORE: &str = "/store";

/// The lockstep cuts the power under its incremental workbook and reopens
/// it after every this many edits.
const REOPEN_EVERY: usize = 7;

/// Cut the power under `wb` and reopen its store. A twin opened from a copy
/// of the same crash image and then recalculated in full must show exactly
/// what the reopened workbook shows.
fn reopen_after_power_cut(wb: Workbook, fault: &FaultVfs, sheets: &[SheetId]) -> Workbook {
    drop(wb);
    fault.reset_to_recovery(RecoveryImage::Synced);
    let image = FaultVfs::new(FaultPlan::quiet());
    for path in fault.file_names() {
        image
            .write_file(&path, &fault.read(&path).unwrap())
            .unwrap();
    }
    let reopened = Workbook::open_with_vfs(STORE, Arc::new(fault.clone())).unwrap();
    let mut twin = Workbook::open_with_vfs(STORE, Arc::new(image)).unwrap();
    twin.recalculate();
    assert_eq!(
        snapshot(&reopened, sheets),
        snapshot(&twin, sheets),
        "reopened values ≠ a full recalculation of the same image"
    );
    reopened
}

#[test]
fn incremental_matches_full_after_every_edit() {
    // Two workbooks take one seeded edit stream: `inc` relies on the
    // dependents index alone, `full` recalculates from scratch after every
    // edit. They must agree after every step, not just at the end — a
    // final `recalculate()` would rebuild a broken index and hide it.
    // `inc` is saved to an in-memory store, and every `REOPEN_EVERY` edits
    // it loses power and is reopened: open recomputes only what the WAL
    // tail dirtied (everything after a replayed structural edit), and must
    // still agree.
    let names = ["Sheet1", "Data", "Later"];
    // Reopens whose tail held no structural edit, and ones whose tail did.
    let tails = [Cell::new(0u32), Cell::new(0u32)];
    testkit::cases(iters(), 0x1A57_57E9, |rng| {
        let fault = FaultVfs::new(FaultPlan::quiet());
        let mut inc = Workbook::new();
        let mut full = Workbook::new();
        let mut ids = vec![inc.current_sheet()];
        ids.push(inc.add_sheet("Data").unwrap());
        full.add_sheet("Data").unwrap();
        inc.save_with_vfs(STORE, Arc::new(fault.clone())).unwrap();
        let mut structural_tail = false;
        let edits = rng.usize_in(20, 60);
        // Mid-stream, healing every `Later!…` reference typed so far.
        let later_at = rng.index(edits);
        let mut self_refs: Vec<(SheetId, CellAddr)> = Vec::new();
        for step in 0..edits {
            let sheet = ids[rng.index(ids.len())];
            let formula_or_any = |rng: &mut testkit::Rng| {
                formula_cell(&inc, sheet, rng).unwrap_or_else(|| rand_addr(rng))
            };
            let edit = if step == later_at {
                Edit::AddLater
            } else {
                match rng.weighted(&[5, 4, 3, 2, 2, 1, 2, 2, 3, 4]) {
                    0 => Edit::Input(sheet, rand_addr(rng), rng.below(100).to_string()),
                    1 => Edit::Input(sheet, rand_addr(rng), rand_formula(rng, &names)),
                    // Retype a formula with new precedents.
                    2 => Edit::Input(sheet, formula_or_any(rng), rand_formula(rng, &names)),
                    // Overwrite a formula cell with a literal, or clear it.
                    3 => Edit::Value(
                        sheet,
                        formula_or_any(rng),
                        Value::Int(rng.below(100) as i64),
                    ),
                    4 => Edit::Value(sheet, formula_or_any(rng), Value::Empty),
                    5 => Edit::Value(sheet, rand_addr(rng), Value::Empty),
                    // A self-reference (direct, or through a range) …
                    6 => {
                        let addr = rand_addr(rng);
                        self_refs.push((sheet, addr));
                        let f = match rng.bool() {
                            true => format!("={}+1", a1(addr)),
                            false => format!("=SUM(A1:{})", a1(CellAddr::new(ROWS, COLS))),
                        };
                        Edit::Input(sheet, addr, f)
                    }
                    // … and breaking one again.
                    7 => {
                        let (sheet, addr) = self_refs.pop().unwrap_or((sheet, rand_addr(rng)));
                        Edit::Input(sheet, addr, rand_formula(rng, &names))
                    }
                    // A block of up to 3×3 literals over a formula cell (or
                    // anywhere): one flush stabs several dirty positions,
                    // some of them formulas that leave the work set.
                    8 => {
                        let cell = formula_or_any(rng);
                        let at = CellAddr::new(
                            cell.row.saturating_sub(rng.u32_in(0, 3)),
                            cell.col.saturating_sub(rng.u32_in(0, 3)),
                        );
                        let (h, w) = (rng.usize_in(1, 4), rng.usize_in(1, 4));
                        let mut cell_value = || match rng.below(4) {
                            0 => Value::Empty,
                            _ => Value::Int(rng.below(100) as i64),
                        };
                        let rows = (0..h)
                            .map(|_| (0..w).map(|_| cell_value()).collect())
                            .collect();
                        Edit::Region(sheet, at, rows)
                    }
                    _ => Edit::Structural(
                        rng.u32_in(0, 4),
                        sheet,
                        rng.u32_in(0, ROWS),
                        rng.u32_in(1, 3),
                    ),
                }
            };
            edit.apply(&mut inc);
            edit.apply(&mut full);
            full.recalculate();
            match edit {
                Edit::Structural(..) => structural_tail = true,
                // Adding a sheet checkpoints: the tail starts over.
                Edit::AddLater => {
                    ids.push(inc.sheet_id("Later").unwrap());
                    structural_tail = false;
                }
                _ => {}
            }
            if step % REOPEN_EVERY == REOPEN_EVERY - 1 {
                inc = reopen_after_power_cut(std::mem::take(&mut inc), &fault, &ids);
                let kind = &tails[usize::from(structural_tail)];
                kind.set(kind.get() + 1);
                structural_tail = false;
            }
            assert_eq!(
                snapshot(&inc, &ids),
                snapshot(&full, &ids),
                "step {step} ({edit:?}): incremental ≠ full recompute"
            );
        }
    });
    assert!(
        tails.iter().all(|t| t.get() > 0),
        "reopened tails without and with a structural edit: {tails:?}"
    );
}

/// The engine's sheets seen only through `cell_value`: evaluating against
/// this takes the provider trait's default, cell-by-cell `visit_range`.
struct CellByCell<'a> {
    wb: &'a Workbook,
    home: SheetId,
}

impl CellProvider for CellByCell<'_> {
    fn cell_value(&self, sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError> {
        let id = match sheet {
            SheetRef::Current => self.home,
            SheetRef::Named(n) => self.wb.sheet_id(n).map_err(|_| CellError::Ref)?,
        };
        Ok(self.wb.sheet(id).value(addr))
    }
}

/// Data grid extent for the range-visit property: wider and taller than a
/// 32×32 tile, so ranges cross tile rows and tile columns.
const GRID_ROWS: u32 = 70;
const GRID_COLS: u32 = 40;

/// A random data cell. `error_weight` 0 keeps a case error-free, so large
/// ranges are not all poisoned.
fn rand_grid_value(rng: &mut testkit::Rng, error_weight: u32) -> Value {
    const FLOATS: [f64; 6] = [1e16, 1.0, -1e16, 0.1, 2.5, -0.0];
    const TEXTS: [&str; 4] = ["a", "B", "7", "x y"];
    const ERRORS: [CellError; 4] = [
        CellError::Div0,
        CellError::Ref,
        CellError::Na,
        CellError::Num,
    ];
    match rng.weighted(&[50, 20, 12, 8, 5, error_weight]) {
        0 => Value::Empty,
        1 => Value::Int(rng.below(20) as i64 - 5),
        2 => Value::Float(FLOATS[rng.index(FLOATS.len())]),
        3 => Value::text(TEXTS[rng.index(TEXTS.len())]),
        4 => Value::Bool(rng.bool()),
        _ => Value::Error(ERRORS[rng.index(ERRORS.len())]),
    }
}

/// A random 2-D range over the data grid, sometimes qualified with a real,
/// self-naming or missing sheet.
fn rand_grid_range(rng: &mut testkit::Rng) -> String {
    let mut corner = || CellAddr::new(rng.u32_in(0, GRID_ROWS), rng.u32_in(0, GRID_COLS));
    let r = Range::new(corner(), corner());
    let a1 = match r.to_a1() {
        s if s.contains(':') => s,
        s => format!("{s}:{s}"),
    };
    match rng.weighted(&[6, 3, 1, 1]) {
        0 => a1,
        1 => format!("Data!{a1}"),
        2 => format!("Sheet1!{a1}"),
        _ => format!("Missing!{a1}"),
    }
}

fn rand_range_formula(rng: &mut testkit::Rng) -> String {
    const AGGS: [&str; 5] = ["SUM", "AVG", "COUNT", "MIN", "MAX"];
    match rng.weighted(&[6, 2, 2, 2]) {
        0 => format!("={}({})", AGGS[rng.index(AGGS.len())], rand_grid_range(rng)),
        1 => format!(
            "={}({},{},{})",
            AGGS[rng.index(AGGS.len())],
            rand_grid_range(rng),
            rng.below(10),
            rand_grid_range(rng)
        ),
        2 => format!("=CONCAT(\"<\",{},\">\")", rand_grid_range(rng)),
        _ => {
            let needle = match rng.bool() {
                true => (rng.below(20) as i64 - 5).to_string(),
                false => "\"a\"".to_string(),
            };
            format!(
                "=VLOOKUP({needle},{},{},{})",
                rand_grid_range(rng),
                rng.u32_in(1, 5),
                if rng.bool() { "TRUE" } else { "FALSE" }
            )
        }
    }
}

#[test]
fn range_visit_matches_cell_by_cell_eval() {
    // The engine reads formula ranges a tile at a time; that must be an
    // optimization only. Every value the workbook shows is compared, bit
    // for bit, with the formula evaluated one `cell_value` at a time.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
            _ => a == b,
        }
    }
    testkit::cases(iters(), 0x7115_0A1C, |rng| {
        let mut wb = Workbook::new();
        let ids = [wb.current_sheet(), wb.add_sheet("Data").unwrap()];
        let error_weight = rng.below(2) as u32;
        for &s in &ids {
            let grid: Vec<Vec<Value>> = (0..GRID_ROWS)
                .map(|_| {
                    (0..GRID_COLS)
                        .map(|_| rand_grid_value(rng, error_weight))
                        .collect()
                })
                .collect();
            wb.set_region(s, CellAddr::new(0, 0), &grid).unwrap();
        }
        // Formulas live right of the grid, so none reads another.
        let mut formulas: Vec<(SheetId, CellAddr, Formula)> = Vec::new();
        for round in 0..3 {
            for _ in 0..rng.usize_in(4, 10) {
                let s = ids[rng.index(2)];
                let addr = CellAddr::new(rng.u32_in(0, GRID_ROWS), GRID_COLS + 2 + round);
                let src = rand_range_formula(rng);
                wb.set_input(s, addr, &src).unwrap();
                formulas.retain(|&(fs, fa, _)| (fs, fa) != (s, addr));
                formulas.push((s, addr, Formula::parse(&src).unwrap()));
            }
            // Incremental passes re-read the ranges after data edits.
            for _ in 0..rng.usize_in(0, 8) {
                let addr = CellAddr::new(rng.u32_in(0, GRID_ROWS), rng.u32_in(0, GRID_COLS));
                let v = rand_grid_value(rng, error_weight);
                wb.set_value(ids[rng.index(2)], addr, v).unwrap();
            }
            for (s, addr, f) in &formulas {
                let shown = wb.cell(*s, *addr);
                let expected = f.eval(&CellByCell { wb: &wb, home: *s });
                assert!(
                    same(&shown, &expected),
                    "{f} at {}: shown {shown:?}, cell by cell {expected:?}",
                    addr.to_a1()
                );
            }
        }
    });
}

/// Bit-for-bit value equality: `0.0` and `-0.0` differ.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// A typed input whose float sums depend on the order they are added in
/// (`0.1 + 1e16 - 1e16` is `0`, `0.1 + (1e16 - 1e16)` is `0.1`).
fn rand_order_sensitive_input(rng: &mut testkit::Rng) -> String {
    const INPUTS: [&str; 7] = ["0.1", "1e16", "-1e16", "2.5", "3", "x", "TRUE"];
    INPUTS[rng.index(INPUTS.len())].to_string()
}

/// An aggregate over one of the case's shared ranges, sometimes in first
/// position (one fold a pass may share), sometimes behind a scalar (some
/// written with an exponent) or a cell (a fold into a running
/// accumulator), sometimes sheet-qualified.
fn rand_shared_range_formula(rng: &mut testkit::Rng, pool: &[String], sheets: &[&str]) -> String {
    const AGGS: [&str; 5] = ["SUM", "AVG", "COUNT", "MIN", "MAX"];
    const SCALARS: [&str; 7] = ["0.1", "2.5", "-3", "7", "1e3", "2.5E-1", "1E+2"];
    let range = |rng: &mut testkit::Rng| {
        let r = &pool[rng.index(pool.len())];
        match rng.below(3) {
            0 => format!("{}!{r}", sheets[rng.index(sheets.len())]),
            _ => r.clone(),
        }
    };
    let agg = AGGS[rng.index(AGGS.len())];
    match rng.weighted(&[5, 2, 3, 2, 2, 2]) {
        0 => format!("={agg}({})", range(rng)),
        1 => format!("={agg}({})+{}", range(rng), rng.below(10)),
        2 => format!(
            "={agg}({},{})",
            SCALARS[rng.index(SCALARS.len())],
            range(rng)
        ),
        3 => format!("={agg}({},{})", range(rng), range(rng)),
        4 => format!("={agg}({},{})", a1(rand_addr(rng)), range(rng)),
        _ => format!("={}+1", a1(rand_addr(rng))),
    }
}

#[test]
fn every_formula_shows_its_source_evaluated_alone() {
    // The fixpoint oracle for the per-pass range memo: after every step,
    // each formula's cached value is its source parsed afresh and
    // evaluated alone, one `cell_value` at a time — no memo, no tile walk.
    // (The lockstep property cannot see a wrong memo: its `full` side
    // reads through the memo too.) Ranges come from a small per-case
    // pool, so readers share them within a pass; both sheets use them
    // unqualified, so one range text names two different rectangles.
    let names = ["Sheet1", "Data"];
    let hits = std::cell::Cell::new(0);
    testkit::cases(iters(), 0xF1C5_EDA7, |rng| {
        let mut wb = Workbook::new();
        let ids = [wb.current_sheet(), wb.add_sheet("Data").unwrap()];
        let pool: Vec<String> = (0..4)
            .map(|_| {
                let r = Range::new(rand_addr(rng), rand_addr(rng)).to_a1();
                if r.contains(':') {
                    r
                } else {
                    format!("{r}:{r}")
                }
            })
            .collect();
        for step in 0..rng.usize_in(20, 50) {
            let sheet = ids[rng.index(2)];
            match rng.weighted(&[6, 6, 2, 1, 1, 1]) {
                0 => wb
                    .set_input(sheet, rand_addr(rng), &rand_order_sensitive_input(rng))
                    .map(drop),
                // Mostly right of the pool's ranges, so few readers sit on
                // a cycle (and show `#CYCLE!`, which the oracle skips).
                1 => {
                    let addr = match rng.below(3) {
                        0 => rand_addr(rng),
                        _ => CellAddr::new(rng.u32_in(0, ROWS), COLS + rng.u32_in(0, 3)),
                    };
                    let src = rand_shared_range_formula(rng, &pool, &names);
                    wb.set_input(sheet, addr, &src).map(drop)
                }
                2 => wb.set_value(sheet, rand_addr(rng), Value::Empty).map(drop),
                3 => wb.insert_rows(sheet, rng.u32_in(0, ROWS), 1),
                4 => wb.delete_cols(sheet, rng.u32_in(0, COLS), 1),
                _ => {
                    wb.recalculate();
                    Ok(())
                }
            }
            .unwrap();
            for &s in &ids {
                let window = Range::from_bounds(0, 0, ROWS + 12, COLS + 12);
                for addr in window.iter_cells() {
                    let Some(src) = wb.sheet(s).formula_text(addr) else {
                        continue;
                    };
                    let shown = wb.sheet(s).value(addr);
                    if matches!(shown, Value::Error(CellError::Cycle)) {
                        continue;
                    }
                    // Every source the stream writes is valid, exponent
                    // literals included: one that fails to parse is a bug.
                    let alone = Formula::parse(src)
                        .unwrap_or_else(|e| panic!("step {step}: {src} does not parse: {e}"))
                        .eval(&CellByCell { wb: &wb, home: s });
                    assert!(
                        same_bits(&shown, &alone),
                        "step {step}: {src} at {}: shown {shown:?}, alone {alone:?}",
                        addr.to_a1()
                    );
                }
            }
        }
        let snap = wb.metrics_snapshot();
        hits.set(hits.get() + snap.counter("calc_range_memo_hits").unwrap_or(0));
    });
    assert!(hits.get() > 0, "no pass shared a range fold");
}
