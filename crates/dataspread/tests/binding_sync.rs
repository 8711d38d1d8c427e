//! The hybrid data-model binding layer (paper §2.1 TOM/ROM/COM): unit
//! coverage for two-way sync plus the convergence property suites.
//!
//! Convergence invariant (the acceptance bar): after ANY interleaving of
//! bound-cell edits, SQL DML, and structural grid edits, the bound region
//! rendered from the grid equals `SELECT`-ing the backing table in
//! positional order, and formulas over the region match a full
//! recalculation. Bindings round-trip through `save`/`open`, including
//! crash-injection WAL replay.

use dataspread::{BindModel, Workbook};
use dataspread_testkit as testkit;
use dataspread_types::{CellAddr, CellError, Range, Value};

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

/// A workbook with table `t(a INT, b TEXT)` holding three rows.
fn setup() -> Workbook {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE t (a INT, b TEXT);
         INSERT INTO t VALUES (1, 'one'), (2, 'two'), (3, 'three');",
    )
    .unwrap();
    wb
}

/// Assert the bound region's grid cells equal the backing table scanned in
/// positional order (projected through the binding's display columns).
fn assert_converged(wb: &mut Workbook, id: u64) {
    let Some(meta) = wb.binding_meta(id) else {
        return; // binding detached: nothing to compare
    };
    let sheet = wb.sheet_id(&meta.sheet).unwrap();
    let rows: Vec<Vec<Value>> = wb
        .catalog()
        .get(&meta.table)
        .unwrap()
        .scan()
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let names: Vec<String> = {
        let schema = wb.catalog().get(&meta.table).unwrap().schema().clone();
        meta.cols
            .iter()
            .map(|&c| schema.column(c as usize).name.clone())
            .collect()
    };
    let header = meta.model == BindModel::Tom;
    if header {
        for (slot, name) in names.iter().enumerate() {
            assert_eq!(
                wb.cell(sheet, CellAddr::new(meta.row, meta.col + slot as u32)),
                Value::text(name.clone()),
                "header cell {slot} diverged"
            );
        }
    }
    let data_start = meta.row + header as u32;
    for (pos, row) in rows.iter().enumerate() {
        for (slot, &ci) in meta.cols.iter().enumerate() {
            let addr = CellAddr::new(data_start + pos as u32, meta.col + slot as u32);
            assert_eq!(
                wb.cell(sheet, addr),
                row[ci as usize],
                "cell at table pos {pos} display slot {slot} diverged"
            );
        }
    }
}

// ---- rendering & cell-level sync ----------------------------------------

#[test]
fn tom_renders_header_and_rows() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("B2"), "t", BindModel::Tom).unwrap();
    assert_eq!(wb.binding_rect(id), Some(Range::parse_a1("B2:C5").unwrap()));
    assert_eq!(wb.cell(s, a("B2")), Value::text("a"));
    assert_eq!(wb.cell(s, a("C2")), Value::text("b"));
    assert_eq!(wb.cell(s, a("B3")), Value::Int(1));
    assert_eq!(wb.cell(s, a("C5")), Value::text("three"));
    assert_converged(&mut wb, id);
}

#[test]
fn rom_renders_bare_rows_and_grows_from_empty() {
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE e (x INT)").unwrap();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "e", BindModel::Rom).unwrap();
    assert_eq!(wb.binding_rect(id), None, "empty headerless region");
    wb.execute("INSERT INTO e VALUES (10), (20)").unwrap();
    assert_eq!(wb.binding_rect(id), Some(Range::parse_a1("A1:A2").unwrap()));
    assert_eq!(wb.cell(s, a("A1")), Value::Int(10));
    assert_eq!(wb.cell(s, a("A2")), Value::Int(20));
    assert_converged(&mut wb, id);
}

#[test]
fn com_projects_selected_columns_in_order() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table_cols(s, a("E1"), "t", &["b", "a"]).unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::text("one"), "b first");
    assert_eq!(wb.cell(s, a("F1")), Value::Int(1), "a second");
    assert_converged(&mut wb, id);
    // Unknown / duplicate columns are rejected.
    assert!(wb.bind_table_cols(s, a("H1"), "t", &["nope"]).is_err());
    assert!(wb.bind_table_cols(s, a("H1"), "t", &["a", "a"]).is_err());
    // bind_table refuses the COM model (it has no column list).
    assert!(wb.bind_table(s, a("H1"), "t", BindModel::Com).is_err());
}

#[test]
fn bound_cell_edit_is_table_dml() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    // Edit a data cell: the table row changes.
    let old = wb.set_value(s, a("B3"), Value::text("TWO")).unwrap();
    assert_eq!(old, Value::text("two"));
    let (_, rows) = wb.query("SELECT b FROM t WHERE a = 2").unwrap();
    assert_eq!(rows, vec![vec![Value::text("TWO")]]);
    // Typed input is schema-conformed: text "7" into the INT column stores
    // (and displays) the integer.
    wb.set_input(s, a("A2"), "7").unwrap();
    let (_, rows) = wb.query("SELECT COUNT(*) FROM t WHERE a = 7").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
    assert_eq!(wb.cell(s, a("A2")), Value::Int(7));
    // A value the schema rejects leaves both sides untouched.
    assert!(wb.set_value(s, a("A2"), Value::text("xyz")).is_err());
    assert_eq!(wb.cell(s, a("A2")), Value::Int(7));
    assert_converged(&mut wb, id);
}

#[test]
fn formulas_are_rejected_inside_bindings() {
    let mut wb = setup();
    let s = wb.current_sheet();
    wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    assert!(wb.set_input(s, a("A2"), "=1+1").is_err());
    // Outside the region they are fine.
    assert_eq!(wb.set_input(s, a("E1"), "=1+1").unwrap(), Value::Int(2));
}

#[test]
fn header_edit_renames_column() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.set_input(s, a("B1"), "label").unwrap();
    assert!(wb
        .catalog()
        .get("t")
        .unwrap()
        .schema()
        .index_of("label")
        .is_some());
    let (_, rows) = wb.query("SELECT label FROM t WHERE a = 1").unwrap();
    assert_eq!(rows, vec![vec![Value::text("one")]]);
    // Blank or non-text names are rejected; duplicates too.
    assert!(wb.set_value(s, a("B1"), Value::Int(9)).is_err());
    assert!(wb.set_input(s, a("B1"), "a").is_err(), "duplicate name");
    assert_converged(&mut wb, id);
}

// ---- table → sheet propagation ------------------------------------------

#[test]
fn sql_dml_rerenders_and_recomputes_formulas() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.set_input(s, a("E1"), "=SUM(A2:A100)").unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::Int(6));
    // INSERT grows the region; the watching SUM recomputes.
    wb.execute("INSERT INTO t VALUES (40, 'forty')").unwrap();
    assert_eq!(wb.cell(s, a("A5")), Value::Int(40));
    assert_eq!(wb.cell(s, a("E1")), Value::Int(46));
    // UPDATE rewrites in place.
    wb.execute("UPDATE t SET a = 100 WHERE b = 'two'").unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::Int(144));
    // DELETE shrinks the region and clears the vacated row.
    wb.execute("DELETE FROM t WHERE a >= 40").unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::Int(4));
    assert_eq!(wb.cell(s, a("A5")), Value::Empty, "vacated cell cleared");
    assert_eq!(wb.cell(s, a("A4")), Value::Empty, "two rows died");
    assert_eq!(wb.cell(s, a("A3")), Value::Int(3));
    assert_converged(&mut wb, id);
}

#[test]
fn positional_insert_lands_at_its_display_row() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.insert_tuple_at("t", 1, vec![Value::Int(15), Value::text("mid")])
        .unwrap();
    assert_eq!(wb.cell(s, a("A3")), Value::Int(15), "displayed at pos 1");
    assert_eq!(wb.cell(s, a("A4")), Value::Int(2), "old pos 1 shifted down");
    assert_converged(&mut wb, id);
}

#[test]
fn alter_table_reshapes_the_region() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    // ADD COLUMN: TOM bindings gain it at the right edge.
    wb.execute("ALTER TABLE t ADD COLUMN c REAL DEFAULT 0.5")
        .unwrap();
    assert_eq!(wb.cell(s, a("C1")), Value::text("c"));
    assert_eq!(wb.cell(s, a("C2")), Value::Float(0.5));
    // RENAME propagates into the header row.
    wb.execute("ALTER TABLE t RENAME COLUMN c TO score")
        .unwrap();
    assert_eq!(wb.cell(s, a("C1")), Value::text("score"));
    // DROP COLUMN narrows the region; vacated cells clear.
    wb.execute("ALTER TABLE t DROP COLUMN b").unwrap();
    assert_eq!(wb.cell(s, a("B1")), Value::text("score"), "shifted left");
    assert_eq!(wb.cell(s, a("C1")), Value::Empty, "vacated");
    assert_converged(&mut wb, id);
}

#[test]
fn drop_table_freezes_values_as_literals() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.execute("DROP TABLE t").unwrap();
    assert!(wb.binding_meta(id).is_none(), "binding detached");
    // The last rendered values survive as plain cells.
    assert_eq!(wb.cell(s, a("A1")), Value::text("a"));
    assert_eq!(wb.cell(s, a("B4")), Value::text("three"));
    // And are ordinary cells now: formulas may use (and overwrite) them.
    assert_eq!(wb.set_input(s, a("A2"), "=A3+A4").unwrap(), Value::Int(5));
}

#[test]
fn unbind_keeps_values() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.unbind(id).unwrap();
    assert!(wb.binding_meta(id).is_none());
    assert_eq!(wb.cell(s, a("B3")), Value::text("two"));
    // The table no longer hears edits to the former region.
    wb.set_value(s, a("A2"), Value::Int(99)).unwrap();
    let (_, rows) = wb.query("SELECT COUNT(*) FROM t WHERE a = 99").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(0)]]);
    assert!(wb.unbind(id).is_err(), "already gone");
}

#[test]
fn overlapping_bindings_are_rejected() {
    let mut wb = setup();
    let s = wb.current_sheet();
    wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    assert!(wb.bind_table(s, a("B2"), "t", BindModel::Rom).is_err());
    // Same anchor on another sheet is fine.
    let s2 = wb.add_sheet("Other").unwrap();
    wb.bind_table(s2, a("A1"), "t", BindModel::Rom).unwrap();
}

// ---- structural edits over bindings -------------------------------------

#[test]
fn insert_rows_inside_region_inserts_empty_tuples() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    // Insert one grid row between table positions 0 and 1 (display row 2).
    wb.insert_rows(s, 2, 1).unwrap();
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 4);
    assert_eq!(wb.cell(s, a("A3")), Value::Empty, "new empty tuple");
    assert_eq!(wb.cell(s, a("A4")), Value::Int(2), "old row shifted");
    // The empty tuple is editable like any bound cell.
    wb.set_value(s, a("A3"), Value::Int(15)).unwrap();
    let (_, rows) = wb.query("SELECT b FROM t WHERE a = 15").unwrap();
    assert_eq!(rows, vec![vec![Value::Empty]]);
    assert_converged(&mut wb, id);
}

#[test]
fn insert_rows_at_or_above_anchor_shifts_the_binding() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A2"), "t", BindModel::Tom).unwrap();
    wb.set_input(s, a("A1"), "title").unwrap();
    wb.insert_rows(s, 0, 2).unwrap();
    let meta = wb.binding_meta(id).unwrap();
    assert_eq!(meta.row, 3, "anchor shifted down by 2");
    assert_eq!(wb.cell(s, a("A3")), Value::text("title"));
    assert_eq!(wb.cell(s, a("A4")), Value::text("a"), "header follows");
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 3, "no new rows");
    assert_converged(&mut wb, id);
}

#[test]
fn insert_rows_below_region_leaves_it_alone() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.insert_rows(s, 4, 3).unwrap();
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 3);
    assert_eq!(wb.binding_meta(id).unwrap().row, 0);
    assert_converged(&mut wb, id);
}

#[test]
fn insert_rows_inside_respects_not_null() {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE p (id INT PRIMARY KEY, v INT);
         INSERT INTO p VALUES (1, 10), (2, 20);",
    )
    .unwrap();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "p", BindModel::Rom).unwrap();
    // An all-NULL tuple violates the NOT NULL pk: the structural edit is
    // refused before the grid moves.
    assert!(wb.insert_rows(s, 1, 1).is_err());
    assert_eq!(wb.cell(s, a("A2")), Value::Int(2), "grid untouched");
    assert_converged(&mut wb, id);
}

#[test]
fn delete_rows_overlapping_region_deletes_tuples() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    // Delete display rows 2-3 (table positions 1-2).
    wb.delete_rows(s, 2, 2).unwrap();
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 1);
    let (_, rows) = wb.query("SELECT a FROM t").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(1)]]);
    assert_converged(&mut wb, id);
}

#[test]
fn delete_rows_straddling_top_and_bottom() {
    let mut wb = setup();
    let s = wb.current_sheet();
    // Headerless region at rows 3..6 (display).
    let id = wb.bind_table(s, a("A4"), "t", BindModel::Rom).unwrap();
    // Straddle the top: rows 2-3 (one above + first data row).
    wb.delete_rows(s, 2, 2).unwrap();
    let meta = wb.binding_meta(id).unwrap();
    assert_eq!(meta.row, 2, "anchor pulled up to the deletion point");
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 2);
    assert_eq!(wb.cell(s, a("A3")), Value::Int(2));
    // Straddle the bottom: last data row + one below.
    wb.delete_rows(s, 3, 2).unwrap();
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 1);
    assert_converged(&mut wb, id);
}

#[test]
fn delete_rows_covering_header_detaches_and_clears() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A2"), "t", BindModel::Tom).unwrap();
    // Delete rows 0-2: one above + the header + the first data row.
    wb.delete_rows(s, 0, 3).unwrap();
    assert!(wb.binding_meta(id).is_none(), "header loss detaches");
    // The overlapped data row died with the span; survivors stay in the
    // table but their mirror cells are cleared (the view is gone).
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 2);
    assert_eq!(wb.cell(s, a("A1")), Value::Empty);
    assert_eq!(wb.cell(s, a("A2")), Value::Empty);
}

#[test]
fn delete_rows_covering_whole_region() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A2"), "t", BindModel::Tom).unwrap();
    wb.delete_rows(s, 0, 10).unwrap();
    assert!(wb.binding_meta(id).is_none());
    assert_eq!(
        wb.catalog().get("t").unwrap().row_count(),
        0,
        "every covered tuple deleted"
    );
}

#[test]
fn insert_cols_inside_region_adds_table_column() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.insert_cols(s, 1, 1).unwrap();
    let t = wb.catalog().get("t").unwrap();
    assert_eq!(t.schema().width(), 3, "grid column became a table column");
    drop(t);
    let meta = wb.binding_meta(id).unwrap();
    assert_eq!(meta.cols, vec![0, 2, 1], "spliced into display order");
    assert_eq!(wb.cell(s, a("A1")), Value::text("a"));
    assert_eq!(wb.cell(s, a("C1")), Value::text("b"), "b shifted right");
    // The new column is editable through the grid.
    wb.set_value(s, a("B2"), Value::Int(77)).unwrap();
    // The generated name dedups against the existing `b`.
    let (_, rows) = wb.query("SELECT b_2 FROM t LIMIT 1").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(77)]]);
    assert_converged(&mut wb, id);
}

#[test]
fn insert_cols_left_shifts_delete_cols_narrows() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("B1"), "t", BindModel::Tom).unwrap();
    wb.insert_cols(s, 0, 2).unwrap();
    assert_eq!(wb.binding_meta(id).unwrap().col, 3);
    assert_eq!(wb.cell(s, a("D1")), Value::text("a"));
    // Delete the display column of `a` (grid col 3): TOM drops the table
    // column.
    wb.delete_cols(s, 3, 1).unwrap();
    assert_eq!(wb.catalog().get("t").unwrap().schema().width(), 1);
    assert_eq!(wb.binding_meta(id).unwrap().col, 3);
    assert_eq!(wb.cell(s, a("D1")), Value::text("b"));
    assert_converged(&mut wb, id);
}

#[test]
fn delete_cols_on_com_narrows_projection_only() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table_cols(s, a("A1"), "t", &["a", "b"]).unwrap();
    wb.delete_cols(s, 0, 1).unwrap();
    assert_eq!(
        wb.catalog().get("t").unwrap().schema().width(),
        2,
        "COM is a projection: the table keeps the column"
    );
    let meta = wb.binding_meta(id).unwrap();
    assert_eq!(meta.cols, vec![1], "display narrowed to b");
    assert_eq!(meta.col, 0);
    assert_eq!(wb.cell(s, a("A1")), Value::text("one"));
    assert_converged(&mut wb, id);
}

#[test]
fn delete_cols_covering_region_detaches() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("B1"), "t", BindModel::Tom).unwrap();
    wb.delete_cols(s, 0, 5).unwrap();
    assert!(wb.binding_meta(id).is_none());
    assert_eq!(
        wb.catalog().get("t").unwrap().schema().width(),
        2,
        "full-cover detach keeps the table intact"
    );
}

// ---- formulas over bindings ----------------------------------------------

#[test]
fn vlookup_into_bound_region() {
    let mut wb = setup();
    let s = wb.current_sheet();
    wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.set_input(s, a("E1"), "=VLOOKUP(2,A2:B4,2,FALSE)")
        .unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::text("two"));
    // The lookup tracks table DML.
    wb.execute("UPDATE t SET b = 'zwei' WHERE a = 2").unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::text("zwei"));
    wb.execute("DELETE FROM t WHERE a = 2").unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::Error(CellError::Na));
    // CONCAT over the bound column.
    wb.set_input(s, a("E2"), "=CONCAT(B2:B4)").unwrap();
    assert_eq!(wb.cell(s, a("E2")), Value::text("onethree"));
}

// ---- convergence property suite ------------------------------------------

/// Cases per run: `DSP_STRESS_ITERS` (default 40), the knob CI's stress
/// job raises.
fn iters() -> u64 {
    std::env::var("DSP_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(40)
}

/// Random interleavings of bound-cell edits, SQL DML (failing statements
/// included), positional DML, and structural grid edits: the grid and the
/// table must stay two views of one store, and the incremental recompute
/// must equal a full recalculation. Half the cases key the table on `a`,
/// so point statements take the key probe; a sibling COM binding of `b`
/// sees every edit second-hand, through the row path when it can.
#[test]
fn convergence_under_random_interleavings() {
    testkit::cases(iters(), 0xB17D, |rng| {
        let mut wb = Workbook::new();
        let keyed = rng.bool();
        wb.execute(if keyed {
            "CREATE TABLE t (a INT PRIMARY KEY, b INT)"
        } else {
            "CREATE TABLE t (a INT, b INT)"
        })
        .unwrap();
        let s = wb.current_sheet();
        let header = rng.bool();
        let model = if header {
            BindModel::Tom
        } else {
            BindModel::Rom
        };
        // Anchor low enough that structural edits above/below both happen.
        let id = wb.bind_table(s, a("B3"), "t", model).unwrap();
        let sibling = wb.bind_table_cols(s, a("H3"), "t", &["b"]).unwrap();
        // A formula watching the whole `a` display column.
        wb.set_input(s, a("F1"), "=SUM(B1:B60)").unwrap();
        let mut next = 0i64;
        for _ in 0..rng.index(25) + 5 {
            let nrows = wb.catalog().get("t").unwrap().row_count();
            // The `a` of the row at `pos`, if it exists and is not NULL.
            let some_a = |wb: &Workbook, pos: usize| {
                let t = wb.catalog().get("t").unwrap();
                match t.get_row(t.key_at(pos)?).unwrap()[0] {
                    Value::Int(n) => Some(n),
                    _ => None,
                }
            };
            match rng.below(12) {
                // SQL append.
                0 | 1 => {
                    next += 1;
                    wb.execute(&format!("INSERT INTO t VALUES ({next}, {})", next * 10))
                        .unwrap();
                }
                // SQL update / delete by predicate.
                2 => {
                    wb.execute(&format!(
                        "UPDATE t SET b = b + 1 WHERE a > {}",
                        rng.index(6)
                    ))
                    .unwrap();
                }
                3 => {
                    wb.execute(&format!("DELETE FROM t WHERE a = {}", rng.index(12) + 1))
                        .unwrap();
                }
                // A multi-row INSERT whose second row fails: statements are
                // not atomic, so the first row stays and must reach the
                // region (and the formula over it) all the same.
                8 => {
                    next += 1;
                    let sql = format!("INSERT INTO t VALUES ({next}, {next}), ({}, 'x')", next + 1);
                    assert!(wb.execute(&sql).is_err());
                    assert_eq!(wb.catalog().get("t").unwrap().row_count(), nrows + 1);
                }
                // Positional insert.
                4 => {
                    next += 1;
                    let pos = rng.index(nrows + 1);
                    wb.insert_tuple_at("t", pos, vec![Value::Int(next), Value::Int(next)])
                        .unwrap();
                }
                // Bound-cell edit in either binding (when the region has
                // rows): the other one re-renders the edited row.
                5 => {
                    if nrows > 0 {
                        let (target, cols) = if rng.bool() { (id, 2) } else { (sibling, 1) };
                        let meta = wb.binding_meta(target).unwrap();
                        let head = (meta.model == BindModel::Tom) as u32;
                        let row = meta.row + head + rng.index(nrows) as u32;
                        let col = meta.col + rng.u32_in(0, cols);
                        next += 1;
                        wb.set_value(s, CellAddr::new(row, col), Value::Int(next))
                            .unwrap();
                    }
                }
                // Structural row edits: above, inside, below, straddling.
                // A row inserted inside a keyed region would need a NULL
                // key, so it is refused before the grid moves.
                6 => {
                    let at = rng.u32_in(0, 10);
                    let r = wb.insert_rows(s, at, rng.u32_in(1, 3));
                    assert!(r.is_ok() || keyed, "{r:?}");
                }
                // Point UPDATE by `a`: the row path for both bindings.
                9 => {
                    if let Some(k) = some_a(&wb, rng.index(nrows.max(1))) {
                        next += 1;
                        wb.execute(&format!("UPDATE t SET b = {next} WHERE a = {k}"))
                            .unwrap();
                    }
                }
                // Key-changing UPDATE, to a fresh `a` or to another row's
                // (which, keyed, fails having changed nothing).
                10 => {
                    if let Some(k) = some_a(&wb, rng.index(nrows.max(1))) {
                        next += 1;
                        let to = match some_a(&wb, rng.index(nrows)) {
                            Some(other) if rng.bool() => other,
                            _ => next,
                        };
                        let r = wb.execute(&format!("UPDATE t SET a = {to} WHERE a = {k}"));
                        assert!(r.is_ok() || keyed, "{r:?}");
                    }
                }
                // A multi-row UPDATE that fails part-way: the rows before
                // the bad one stay rewritten, with no change set, and must
                // reach both regions through the diff.
                11 => {
                    if let Some(k) = some_a(&wb, rng.index(nrows.max(1))) {
                        let sql =
                            format!("UPDATE t SET b = CASE WHEN a = {k} THEN 'x' ELSE b + 1 END");
                        assert!(wb.execute(&sql).is_err());
                    }
                }
                _ => {
                    let at = rng.u32_in(0, 10);
                    let count = rng.u32_in(1, 4);
                    wb.delete_rows(s, at, count).unwrap();
                }
            }
            if wb.binding_meta(id).is_none() {
                break; // a structural edit legitimately detached the binding
            }
            assert_converged(&mut wb, id);
            assert_converged(&mut wb, sibling);
            // Incremental recompute ≡ full recalculation.
            let before = wb.cell(s, a("F1"));
            wb.recalculate();
            assert_eq!(wb.cell(s, a("F1")), before, "incremental != full recalc");
        }
    });
}

/// The workbook `wb` shows, rendered from scratch: a fresh workbook holding
/// copies of `wb`'s tables (rows in display order), the same bindings
/// created anew — so each renders through the full region diff — and the
/// same formula cells.
fn full_render_twin(wb: &Workbook, formulas: &[CellAddr]) -> Workbook {
    let mut twin = Workbook::new();
    for name in wb.catalog().table_names() {
        let src = wb.catalog().get(&name).unwrap();
        let cat = twin.catalog_mut();
        cat.create_table(&name, src.schema().clone()).unwrap();
        let mut t = cat.get_mut(&name).unwrap();
        for (_, row) in src.scan().unwrap() {
            t.insert(row).unwrap();
        }
    }
    let s = wb.current_sheet();
    for id in wb.binding_ids() {
        let meta = wb.binding_meta(id).unwrap();
        let at = CellAddr::new(meta.row, meta.col);
        if meta.model == BindModel::Com {
            let schema = wb.catalog().get(&meta.table).unwrap().schema().clone();
            let names: Vec<String> = (meta.cols.iter())
                .map(|&c| schema.column(c as usize).name.clone())
                .collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            twin.bind_table_cols(s, at, &meta.table, &names).unwrap();
        } else {
            twin.bind_table(s, at, &meta.table, meta.model).unwrap();
        }
    }
    for &f in formulas {
        twin.set_input(s, f, wb.formula_text(s, f).unwrap())
            .unwrap();
    }
    twin
}

/// Lockstep: whatever mix of statements reaches a bound table, the region
/// its change sets leave equals a full render from scratch — cell for
/// cell over the whole used area, so a row left behind below a shrunk
/// region shows — and the table's own scan, and the formula over the
/// mirror equals the twin's and a full recalculation. Steps: single- and
/// multi-row `INSERT … VALUES`, `INSERT … SELECT`, point, predicate and
/// whole-table `DELETE`, point, predicate and key-changing `UPDATE`,
/// statements that fail part-way, `insert_tuple_at` at any position,
/// bound-cell edits, and direct `catalog_mut` writes (synced at once, or
/// left for the next statement to find as a version gap). The table is
/// keyed or not; the binding is TOM or ROM, beside a COM sibling.
#[test]
fn change_set_rerender_matches_a_full_render() {
    let cases = iters();
    testkit::cases(cases, 0x5EF1_C5E7, |rng| {
        let mut wb = Workbook::new();
        let keyed = rng.bool();
        wb.execute(if keyed {
            "CREATE TABLE t (a INT PRIMARY KEY, b INT, c TEXT)"
        } else {
            "CREATE TABLE t (a INT, b INT, c TEXT)"
        })
        .unwrap();
        wb.execute_script(
            "CREATE TABLE src (a INT, b INT, c TEXT);
             INSERT INTO src VALUES (1, 5, 'p'), (2, 6, 'q'), (3, 7, NULL);",
        )
        .unwrap();
        let mut next = 0i64;
        for _ in 0..rng.index(12) {
            next += 1;
            wb.execute(&format!(
                "INSERT INTO t VALUES ({next}, {}, 'r{next}')",
                next % 5
            ))
            .unwrap();
        }
        let s = wb.current_sheet();
        let model = if rng.bool() {
            BindModel::Tom
        } else {
            BindModel::Rom
        };
        let id = wb.bind_table(s, a("B3"), "t", model).unwrap();
        let sibling = wb.bind_table_cols(s, a("G3"), "t", &["c", "a"]).unwrap();
        let formulas = [a("K1")];
        wb.set_input(s, formulas[0], "=SUM(B1:D90)").unwrap();
        // A direct write not yet synced: the region is behind until a
        // step re-renders every binding.
        let mut gap = false;
        for step in 0..rng.usize_in(5, 40) {
            let n = wb.catalog().get("t").unwrap().row_count();
            let a_at = |wb: &Workbook, pos: usize| {
                let t = wb.catalog().get("t").unwrap();
                match t.get_row(t.key_at(pos)?).unwrap()[0] {
                    Value::Int(v) => Some(v),
                    _ => None,
                }
            };
            let pick = if n > 0 { a_at(&wb, rng.index(n)) } else { None };
            next += 1;
            let refreshed = match rng.below(13) {
                0 => {
                    wb.execute(&format!("INSERT INTO t VALUES ({next}, {}, 'v')", next % 7))
                        .unwrap();
                    true
                }
                // Several rows; sometimes the last one fails (a text `b`),
                // after the others have landed.
                1 => {
                    let k = rng.usize_in(2, 5);
                    let mut rows: Vec<String> = (0..k as i64)
                        .map(|i| format!("({}, {i}, 'm')", next + i))
                        .collect();
                    let bad = rng.bool();
                    if bad {
                        rows.push(format!("({}, 'x', 'm')", next + k as i64));
                    }
                    next += k as i64 + 1;
                    let r = wb.execute(&format!("INSERT INTO t VALUES {}", rows.join(", ")));
                    assert_eq!(r.is_err(), bad, "{r:?}");
                    true
                }
                2 => {
                    let r = wb.execute(&format!(
                        "INSERT INTO t SELECT a + {next}, b, c FROM src WHERE a <= {}",
                        rng.below(4)
                    ));
                    next += 3;
                    r.unwrap();
                    true
                }
                3 => pick.is_some_and(|k| {
                    wb.execute(&format!("DELETE FROM t WHERE a = {k}")).unwrap();
                    true
                }),
                4 => {
                    let sql = if rng.below(4) == 0 {
                        "DELETE FROM t".to_string()
                    } else {
                        format!("DELETE FROM t WHERE b > {}", rng.below(7))
                    };
                    wb.execute(&sql).unwrap();
                    true
                }
                5 => {
                    let sql = match pick {
                        Some(k) if rng.bool() => format!("UPDATE t SET b = {next} WHERE a = {k}"),
                        _ => format!("UPDATE t SET c = 'u{next}' WHERE b < {}", rng.below(7)),
                    };
                    wb.execute(&sql).unwrap();
                    true
                }
                // Key-changing, to a fresh `a` or onto another row's
                // (which, keyed, fails having changed nothing).
                6 => pick.is_some_and(|k| {
                    let to = match a_at(&wb, rng.index(n)) {
                        Some(other) if rng.bool() => other,
                        _ => next,
                    };
                    let r = wb.execute(&format!("UPDATE t SET a = {to} WHERE a = {k}"));
                    assert!(r.is_ok() || keyed, "{r:?}");
                    true
                }),
                // Fails part-way: the rows before the bad one stay
                // rewritten, with no change set.
                7 => pick.is_some_and(|k| {
                    let sql = format!("UPDATE t SET b = CASE WHEN a = {k} THEN 'x' ELSE b + 1 END");
                    assert!(wb.execute(&sql).is_err());
                    true
                }),
                8 => {
                    let row = vec![Value::Int(next), Value::Int(-next), Value::text("p")];
                    wb.insert_tuple_at("t", rng.index(n + 1), row).unwrap();
                    true
                }
                // Bound-cell edit in either binding: it renders its own
                // cell and the sibling's row, nothing else.
                9 => {
                    if n > 0 {
                        let (target, width) = if rng.bool() { (id, 3) } else { (sibling, 2) };
                        let meta = wb.binding_meta(target).unwrap();
                        let head = (meta.model == BindModel::Tom) as u32;
                        let row = meta.row + head + rng.index(n) as u32;
                        let col = meta.col + rng.u32_in(0, width);
                        let _ = wb.set_value(s, CellAddr::new(row, col), Value::Int(next));
                    }
                    false
                }
                // Direct catalog writes: a version gap no change set
                // covers. Synced now, or found by the next statement.
                _ => {
                    {
                        let mut t = wb.catalog_mut().get_mut("t").unwrap();
                        match (rng.below(3), t.key_at(rng.index(n.max(1)))) {
                            (0, Some(key)) => {
                                t.delete_row(key).unwrap();
                            }
                            (1, Some(key)) => {
                                t.update_cell(key, 1, Value::Int(next)).unwrap();
                            }
                            _ => {
                                let row = vec![Value::Int(next), Value::Int(1), Value::Empty];
                                t.insert_at(rng.index(n + 1), row).unwrap();
                            }
                        }
                    }
                    gap = true;
                    rng.bool() && {
                        wb.sync_bindings().unwrap();
                        true
                    }
                }
            };
            gap &= !refreshed;
            if gap {
                continue;
            }
            assert_converged(&mut wb, id);
            assert_converged(&mut wb, sibling);
            let mut twin = full_render_twin(&wb, &formulas);
            let used = |wb: &Workbook| wb.sheet(s).used_bounds();
            let area = match (used(&wb), used(&twin)) {
                (Some(x), Some(y)) => Some(Range::from_bounds(
                    0,
                    0,
                    x.end.row.max(y.end.row),
                    x.end.col.max(y.end.col),
                )),
                (x, y) => x.or(y),
            };
            if let Some(area) = area {
                for addr in area.iter_cells() {
                    assert_eq!(
                        wb.cell(s, addr),
                        twin.cell(s, addr),
                        "step {step}: {} differs from a full render",
                        addr.to_a1()
                    );
                }
            }
            let shown = wb.cell(s, formulas[0]);
            twin.recalculate();
            wb.recalculate();
            assert_eq!(wb.cell(s, formulas[0]), shown, "step {step}: incremental");
            assert_eq!(twin.cell(s, formulas[0]), shown, "step {step}: twin");
        }
    });
    println!("change_set_rerender_matches_a_full_render: {cases} cases");
}

// ---- persistence ---------------------------------------------------------

#[test]
fn bindings_round_trip_through_save_open() {
    let dir = std::env::temp_dir().join(format!("dsp-bind-roundtrip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("B2"), "t", BindModel::Tom).unwrap();
    wb.set_input(s, a("E1"), "=SUM(B3:B20)").unwrap();
    wb.save(&dir).unwrap();
    // Post-checkpoint work rides the WAL only: DML, a bound edit, a second
    // binding, and a DDL pair (CREATE TABLE no longer forces a checkpoint).
    wb.execute("INSERT INTO t VALUES (10, 'ten')").unwrap();
    wb.set_value(s, a("B3"), Value::Int(5)).unwrap();
    wb.execute("CREATE TABLE u (x INT)").unwrap();
    wb.execute("INSERT INTO u VALUES (42)").unwrap();
    let id2 = wb.bind_table(s, a("E5"), "u", BindModel::Rom).unwrap();
    let expect_sum = wb.cell(s, a("E1"));
    drop(wb); // crash

    let mut wb = Workbook::open(&dir).unwrap();
    let s = wb.current_sheet();
    assert_eq!(wb.binding_ids(), vec![id, id2]);
    assert_eq!(wb.cell(s, a("B3")), Value::Int(5), "bound edit replayed");
    assert_eq!(wb.cell(s, a("B6")), Value::Int(10), "insert replayed");
    assert_eq!(
        wb.cell(s, a("E5")),
        Value::Int(42),
        "WAL-created table bound"
    );
    assert_eq!(wb.cell(s, a("E1")), expect_sum);
    assert_converged(&mut wb, id);
    assert_converged(&mut wb, id2);
    // The bindings are still live after reopen.
    wb.execute("INSERT INTO u VALUES (43)").unwrap();
    assert_eq!(wb.cell(s, a("E6")), Value::Int(43));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unbind_freeze_is_durable() {
    let dir = std::env::temp_dir().join(format!("dsp-bind-freeze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.save(&dir).unwrap();
    wb.execute("DROP TABLE t").unwrap(); // detaches, freezes values
    assert!(wb.binding_meta(id).is_none());
    drop(wb);

    let wb = Workbook::open(&dir).unwrap();
    let s = wb.current_sheet();
    assert!(wb.binding_ids().is_empty(), "BindDrop replayed");
    assert_eq!(
        wb.cell(s, a("B3")),
        Value::text("two"),
        "frozen values replayed as literal cells"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sibling_bindings_on_one_table_stay_in_sync() {
    let mut wb = setup();
    let s = wb.current_sheet();
    let id1 = wb.bind_table(s, a("A1"), "t", BindModel::Rom).unwrap();
    let id2 = wb.bind_table_cols(s, a("E1"), "t", &["a"]).unwrap();
    // A bound edit through one binding renders in the other.
    wb.set_value(s, a("A1"), Value::Int(99)).unwrap();
    assert_eq!(wb.cell(s, a("E1")), Value::Int(99), "sibling saw the edit");
    assert_converged(&mut wb, id1);
    assert_converged(&mut wb, id2);
    // And an edit through the sibling flows back.
    wb.set_value(s, a("E2"), Value::Int(55)).unwrap();
    assert_eq!(wb.cell(s, a("A2")), Value::Int(55));
    assert_converged(&mut wb, id1);
    assert_converged(&mut wb, id2);
}

/// What one bound point statement costs on a keyed table of `n` rows,
/// bound as a ROM region (A:B) and a COM sibling of `b` (D), with one
/// formula on the edited row and one over the whole column: the
/// `table_page_reads` and `calc_cells_recomputed` deltas of a point
/// `UPDATE`, then of a keystroke into the ROM region.
fn point_costs(n: usize) -> [(u64, u64); 2] {
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        .unwrap();
    {
        let mut t = wb.catalog_mut().get_mut("t").unwrap();
        for i in 0..n as i64 {
            t.insert(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
    }
    let s = wb.current_sheet();
    wb.bind_table(s, a("A1"), "t", BindModel::Rom).unwrap();
    wb.bind_table_cols(s, a("D1"), "t", &["b"]).unwrap();
    wb.set_input(s, a("F1"), "=B3*2").unwrap();
    wb.set_input(s, a("F2"), &format!("=SUM(B1:B{n})")).unwrap();
    let counters = |wb: &Workbook| {
        let m = wb.metrics_snapshot();
        let c = |name: &str| m.counter(name).unwrap();
        (c("table_page_reads"), c("calc_cells_recomputed"))
    };
    let delta = |wb: &Workbook, (r, c): (u64, u64)| {
        let (r2, c2) = counters(wb);
        (r2 - r, c2 - c)
    };
    let before = counters(&wb);
    wb.execute("UPDATE t SET b = -1 WHERE a = 2").unwrap();
    let update = delta(&wb, before);
    assert_eq!(wb.cell(s, a("D3")), Value::Int(-1), "sibling row rendered");
    assert_eq!(wb.cell(s, a("F1")), Value::Int(-2));
    let before = counters(&wb);
    wb.set_value(s, a("B3"), Value::Int(-5)).unwrap();
    let keystroke = delta(&wb, before);
    assert_eq!(wb.cell(s, a("D3")), Value::Int(-5), "sibling row rendered");
    assert_eq!(wb.cell(s, a("F1")), Value::Int(-10));
    [update, keystroke]
}

#[test]
fn bound_point_statements_cost_the_same_at_any_table_size() {
    // The key probe finds the row and the row path re-renders it, so
    // neither the page reads nor the formulas recomputed grow with the
    // table (a scan or a region diff would read every row). Both formulas
    // watch the edited cell; nothing else recomputes.
    let small = point_costs(100);
    assert_eq!(small, point_costs(10_000));
    for (_, recomputed) in small {
        assert_eq!(recomputed, 2);
    }
}

/// What a bound `INSERT` at the end and a `DELETE` of the second-to-last
/// row cost on a keyed table of `n` rows, bound as a ROM region (A:B) and a
/// COM sibling of `b` (D), with a formula over the whole column: the
/// `bind_cells_diffed` and `table_page_reads` deltas of each statement.
fn append_and_delete_costs(n: usize) -> [(u64, u64); 2] {
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        .unwrap();
    {
        let mut t = wb.catalog_mut().get_mut("t").unwrap();
        for i in 0..n as i64 {
            t.insert(vec![Value::Int(i), Value::Int(i)]).unwrap();
        }
    }
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Rom).unwrap();
    let sibling = wb.bind_table_cols(s, a("D1"), "t", &["b"]).unwrap();
    wb.set_input(s, a("F1"), &format!("=SUM(B1:B{})", n + 1))
        .unwrap();
    let counters = |wb: &Workbook| {
        let m = wb.metrics_snapshot();
        let c = |name: &str| m.counter(name).unwrap();
        (c("bind_cells_diffed"), c("table_page_reads"))
    };
    let delta = |wb: &Workbook, (d, r): (u64, u64)| {
        let (d2, r2) = counters(wb);
        (d2 - d, r2 - r)
    };
    let before = counters(&wb);
    wb.execute(&format!("INSERT INTO t VALUES ({n}, -1)"))
        .unwrap();
    let insert = delta(&wb, before);
    let last = CellAddr::new(n as u32, 0);
    assert_eq!(wb.cell(s, last), Value::Int(n as i64), "appended row");
    let before = counters(&wb);
    wb.execute(&format!("DELETE FROM t WHERE a = {}", n - 1))
        .unwrap();
    let delete = delta(&wb, before);
    assert_eq!(wb.cell(s, CellAddr::new(n as u32 - 1, 3)), Value::Int(-1));
    assert_eq!(wb.cell(s, last), Value::Empty, "vacated row cleared");
    let sum = (n as i64 - 1) * (n as i64 - 2) / 2 - 1;
    assert_eq!(wb.cell(s, a("F1")), Value::Int(sum));
    assert_converged(&mut wb, id);
    assert_converged(&mut wb, sibling);
    [insert, delete]
}

#[test]
fn bound_appends_and_tail_deletes_cost_the_same_at_any_table_size() {
    // Both bindings re-render from the first position the statement
    // touched: the appended row, or the deleted row and the one vacated
    // below it. Neither the cells written nor the pages read grow with
    // the table (the region diff read every row).
    let small = append_and_delete_costs(1_000);
    assert_eq!(small, append_and_delete_costs(16_000));
    // ROM (2 cells) + COM (1) for the new row; the delete rewrites the
    // moved-up row and clears the vacated one in both.
    assert_eq!(small[0].0, 3);
    assert_eq!(small[1].0, 6);
}

#[test]
fn unsynced_catalog_writes_reach_the_grid_with_the_next_update() {
    // A direct catalog write bumps the version without a sync, so the next
    // UPDATE's change set does not cover every bump since the last render:
    // the binding must diff its region, not re-render the updated row only.
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE t (a INT PRIMARY KEY, b INT);
         INSERT INTO t VALUES (1, 10), (2, 20), (3, 30);",
    )
    .unwrap();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Rom).unwrap();
    {
        let mut t = wb.catalog_mut().get_mut("t").unwrap();
        let k = t.key_at(0).unwrap();
        t.update_cell(k, 1, Value::Int(11)).unwrap();
    }
    wb.execute("UPDATE t SET b = 33 WHERE a = 3").unwrap();
    assert_eq!(wb.cell(s, a("B1")), Value::Int(11), "the unsynced write");
    assert_eq!(wb.cell(s, a("B3")), Value::Int(33), "the UPDATE");
    assert_converged(&mut wb, id);
}

#[test]
fn structural_edits_apply_once_per_backing_table() {
    let mut wb = setup();
    let s = wb.current_sheet();
    // Two side-by-side bindings over the same table, rows aligned.
    let id1 = wb.bind_table(s, a("A1"), "t", BindModel::Rom).unwrap();
    let id2 = wb.bind_table_cols(s, a("E1"), "t", &["a", "b"]).unwrap();
    // One grid-row insert inside both regions = ONE empty tuple.
    wb.insert_rows(s, 1, 1).unwrap();
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 4);
    assert_converged(&mut wb, id1);
    assert_converged(&mut wb, id2);
    // One grid-row delete covering both = the same tuple deleted once.
    wb.delete_rows(s, 1, 2).unwrap();
    assert_eq!(wb.catalog().get("t").unwrap().row_count(), 2);
    assert_converged(&mut wb, id1);
    assert_converged(&mut wb, id2);
}

#[test]
fn recovery_clears_rows_a_replayed_delete_shrank() {
    // The checkpoint renders the mirror at full height; a WAL-only DELETE
    // shrinks the table. Recovery must clear the checkpointed ghost row,
    // not leave it as a stale literal.
    let dir = std::env::temp_dir().join(format!("dsp-bind-shrink-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wb = setup();
    let s = wb.current_sheet();
    let id = wb.bind_table(s, a("A1"), "t", BindModel::Rom).unwrap();
    wb.save(&dir).unwrap();
    wb.execute("DELETE FROM t WHERE a = 3").unwrap(); // WAL-only
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    let s = wb.current_sheet();
    assert_eq!(wb.cell(s, a("A3")), Value::Empty, "ghost row cleared");
    assert_eq!(wb.cell(s, a("A2")), Value::Int(2));
    assert_converged(&mut wb, id);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Crash injection: truncate the WAL at every prefix length and reopen. The
/// recovered workbook must always satisfy the convergence invariant —
/// whatever op prefix survived, the grid and the tables agree.
#[test]
fn crash_injected_recovery_always_converges() {
    let dir = std::env::temp_dir().join(format!("dsp-bind-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wb = setup();
    let s = wb.current_sheet();
    wb.bind_table(s, a("B2"), "t", BindModel::Tom).unwrap();
    wb.set_input(s, a("F1"), "=SUM(B3:B30)").unwrap();
    wb.save(&dir).unwrap();
    // A WAL tail mixing every record family.
    wb.execute("INSERT INTO t VALUES (7, 'seven')").unwrap();
    wb.set_value(s, a("B3"), Value::Int(100)).unwrap();
    wb.insert_rows(s, 3, 1).unwrap(); // structural, inside the region
    wb.execute("CREATE TABLE u (x INT)").unwrap();
    wb.execute("INSERT INTO u VALUES (1)").unwrap();
    let id2 = wb.bind_table(s, a("E1"), "u", BindModel::Rom).unwrap();
    wb.unbind(id2).unwrap();
    drop(wb);

    let wal_path = dir.join("wal.dsp");
    let full = std::fs::read(&wal_path).unwrap();
    let mut rng = testkit::Rng::new(0xB1ED);
    // Every 7th cut plus the header boundary and the full tail.
    let mut cuts: Vec<usize> = (24..full.len()).filter(|_| rng.below(7) == 0).collect();
    cuts.push(24);
    cuts.push(full.len());
    for cut in cuts {
        // Reset the directory to checkpoint + truncated WAL.
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let mut wb = Workbook::open(&dir).unwrap();
        let s = wb.current_sheet();
        for id in wb.binding_ids() {
            assert_converged(&mut wb, id);
        }
        // Formula state equals a full recalculation.
        let before = wb.cell(s, a("F1"));
        wb.recalculate();
        assert_eq!(wb.cell(s, a("F1")), before, "cut at {cut}");
        // Opening re-checkpoints: put the original pair back for the next
        // cut by re-saving the checkpoint… the snapshot advanced, so write
        // the full WAL is stale now. Rebuild the baseline instead.
        std::fs::remove_dir_all(&dir).unwrap();
        let mut wb = setup();
        let s = wb.current_sheet();
        wb.bind_table(s, a("B2"), "t", BindModel::Tom).unwrap();
        wb.set_input(s, a("F1"), "=SUM(B3:B30)").unwrap();
        wb.save(&dir).unwrap();
        wb.execute("INSERT INTO t VALUES (7, 'seven')").unwrap();
        wb.set_value(s, a("B3"), Value::Int(100)).unwrap();
        wb.insert_rows(s, 3, 1).unwrap();
        wb.execute("CREATE TABLE u (x INT)").unwrap();
        wb.execute("INSERT INTO u VALUES (1)").unwrap();
        let id2 = wb.bind_table(s, a("E1"), "u", BindModel::Rom).unwrap();
        wb.unbind(id2).unwrap();
        drop(wb);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
