//! The full vertical path, end to end (acceptance test for the engine):
//!
//! 1. a sheet region is imported into a catalog table (interface → relational),
//! 2. SQL runs against that table with a `RANGEVALUE` reference resolved from
//!    the *live* grid (`sql` → engine → `relstore` + `gridstore`),
//! 3. a tuple is positionally inserted mid-window (O(log n) through the
//!    counted B-tree, `posindex`),
//! 4. the windowed fetch reflects the insert.

use dataspread::{QueryResult, Workbook};
use dataspread_types::{CellAddr, Range, Value};

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

fn r(s: &str) -> Range {
    Range::parse_a1(s).unwrap()
}

/// Lay out a small grade book on the sheet and import it.
fn build_workbook() -> Workbook {
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    let mut region: Vec<Vec<Value>> = vec![vec![
        Value::text("id"),
        Value::text("name"),
        Value::text("score"),
    ]];
    for i in 0..50i64 {
        region.push(vec![
            Value::Int(i),
            Value::text(format!("student{i:02}")),
            Value::Int(50 + i),
        ]);
    }
    wb.set_region(s, a("A1"), &region).unwrap();
    let n = wb.import_region(s, r("A1:C51"), "students", true).unwrap();
    assert_eq!(n, 50);
    wb
}

#[test]
fn import_sql_positional_insert_window_vertical_path() {
    let mut wb = build_workbook();
    let s = wb.current_sheet();

    // -- 2. SQL over the imported table, parameterized by a live cell. ------
    wb.set_input(s, a("E1"), "95").unwrap();
    let (cols, rows) = wb
        .query("SELECT name FROM students WHERE score > RANGEVALUE(E1) ORDER BY score DESC")
        .unwrap();
    assert_eq!(cols, vec!["name"]);
    assert_eq!(rows.len(), 4, "scores 96..99");
    assert_eq!(rows[0][0], Value::text("student49"));

    // Editing the cell re-parameterizes the same SQL — the sheet is live.
    wb.set_input(s, a("E1"), "97").unwrap();
    let (_, rows) = wb
        .query("SELECT name FROM students WHERE score > RANGEVALUE(E1) ORDER BY score DESC")
        .unwrap();
    assert_eq!(rows.len(), 2);

    // SQL INSERT through the executor lands in the same table.
    let res = wb
        .execute("INSERT INTO students VALUES (100, 'via sql', 0)")
        .unwrap();
    assert_eq!(res, QueryResult::Affected(1));
    let (_, rows) = wb.query("SELECT COUNT(*) FROM students").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(51)]]);
    wb.execute("DELETE FROM students WHERE id = 100").unwrap();

    // -- 3. Positional insert mid-window, routed through the counted B-tree.
    let before = wb.fetch_window("students", 18, 5).unwrap();
    assert_eq!(
        before[2].1[0],
        Value::Int(20),
        "row 20 displayed at position 20"
    );
    wb.insert_tuple_at(
        "students",
        20,
        vec![Value::Int(777), Value::text("wedge"), Value::Int(1)],
    )
    .unwrap();

    // -- 4. The window reflects the insert; rows below shifted down by one.
    let after = wb.fetch_window("students", 18, 5).unwrap();
    let ids: Vec<&Value> = after.iter().map(|(_, row)| &row[0]).collect();
    assert_eq!(
        ids,
        vec![
            &Value::Int(18),
            &Value::Int(19),
            &Value::Int(777),
            &Value::Int(20),
            &Value::Int(21)
        ]
    );
    // Positions after the window shifted too.
    let tail = wb.fetch_window("students", 50, 10).unwrap();
    assert_eq!(tail.len(), 1, "51 rows total now");
    assert_eq!(tail[0].1[0], Value::Int(49));
}

/// RANGETABLE turns a live region into a relation and joins it with a table.
#[test]
fn rangetable_join_under_every_store() {
    let mut wb = build_workbook();
    let s = wb.current_sheet();
    // A bonus sheet region keyed by student id.
    wb.set_region(
        s,
        a("E1"),
        &[
            vec![Value::text("id"), Value::text("bonus")],
            vec![Value::Int(3), Value::Int(5)],
            vec![Value::Int(7), Value::Int(9)],
        ],
    )
    .unwrap();
    let (_, rows) = wb
        .query(
            "SELECT name, score + bonus FROM students NATURAL JOIN RANGETABLE(E1:F3)
             ORDER BY id",
        )
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::text("student03"), Value::Int(58)],
            vec![Value::text("student07"), Value::Int(66)],
        ]
    );
}

/// Round trip: import → SQL UPDATE → export back to a sheet.
#[test]
fn import_update_export_round_trip() {
    let mut wb = build_workbook();
    wb.execute("UPDATE students SET score = score * 2 WHERE id < 2")
        .unwrap();
    let out = wb.add_sheet("Report").unwrap();
    wb.export_table("students", out, a("A1"), true).unwrap();
    assert_eq!(wb.sheet(out).value(a("C1")), Value::text("score"));
    assert_eq!(
        wb.sheet(out).value(a("C2")),
        Value::Int(100),
        "50 * 2 exported"
    );
    assert_eq!(
        wb.sheet(out).value(a("C4")),
        Value::Int(52),
        "untouched row exported"
    );
}
