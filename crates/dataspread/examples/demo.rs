//! End-to-end demo of the engine through the public API: grid edits, SQL
//! with live positional references, import/export, and positional DML.
//!
//! Run with `cargo run -p dataspread --example demo`.

use dataspread::{BindModel, Workbook};
use dataspread_types::{CellAddr, Range, Value};

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

fn main() {
    let mut wb = Workbook::new();
    let sheet = wb.current_sheet();

    // A grade book typed straight onto the grid.
    wb.set_region(
        sheet,
        a("A1"),
        &[
            vec![Value::text("id"), Value::text("name"), Value::text("score")],
            vec![Value::Int(1), Value::text("ada"), Value::Int(91)],
            vec![Value::Int(2), Value::text("alan"), Value::Int(87)],
            vec![Value::Int(3), Value::text("grace"), Value::Int(95)],
        ],
    )
    .unwrap();
    let n = wb
        .import_region(sheet, Range::parse_a1("A1:C4").unwrap(), "students", true)
        .unwrap();
    println!("imported {n} rows into `students`");

    // The cutoff lives in a cell; SQL reads it live.
    wb.set_input(sheet, a("E1"), "90").unwrap();
    let (cols, rows) = wb
        .query("SELECT name, score FROM students WHERE score > RANGEVALUE(E1) ORDER BY score DESC")
        .unwrap();
    println!("\n> SELECT name, score WHERE score > RANGEVALUE(E1)   -- E1 = 90");
    println!("{cols:?}");
    for r in &rows {
        println!("{r:?}");
    }

    // Edit the cell, same query, new answer.
    wb.set_input(sheet, a("E1"), "94").unwrap();
    let (_, rows) = wb
        .query("SELECT name FROM students WHERE score > RANGEVALUE(E1)")
        .unwrap();
    println!("\nafter E1 := 94 -> {rows:?}");

    // Positional DML: insert displayed-at-position-1, O(log n).
    wb.insert_tuple_at(
        "students",
        1,
        vec![Value::Int(99), Value::text("edsger"), Value::Int(88)],
    )
    .unwrap();
    println!("\nwindow rows 0..4 after positional insert at 1:");
    for (key, row) in wb.fetch_window("students", 0, 4).unwrap() {
        println!("  key {key}: {row:?}");
    }

    // Aggregation + a RANGETABLE join against a second region.
    wb.set_region(
        sheet,
        a("G1"),
        &[
            vec![Value::text("id"), Value::text("bonus")],
            vec![Value::Int(1), Value::Int(4)],
            vec![Value::Int(3), Value::Int(2)],
        ],
    )
    .unwrap();
    let (_, rows) = wb
        .query(
            "SELECT name, score + bonus AS total
             FROM students NATURAL JOIN RANGETABLE(G1:H3) ORDER BY total DESC",
        )
        .unwrap();
    println!("\njoin with RANGETABLE(G1:H3): {rows:?}");

    let (_, rows) = wb
        .query("SELECT COUNT(*), AVG(score) FROM students")
        .unwrap();
    println!("COUNT/AVG: {rows:?}");

    // Export back to a fresh sheet.
    let out = wb.add_sheet("Report").unwrap();
    let covered = wb.export_table("students", out, a("A1"), true).unwrap();
    println!("\nexported `students` to Report!{covered}");

    // Formulas: typed like a spreadsheet, recomputed incrementally, and
    // visible to SQL through RANGEVALUE.
    let e1 = wb.set_input(out, a("E1"), "=SUM(C2:C5)").unwrap();
    let e2 = wb.set_input(out, a("E2"), "=E1/4 & \" avg\"").unwrap();
    let src1 = wb.formula_text(out, a("E1")).unwrap().to_string();
    let src2 = wb.formula_text(out, a("E2")).unwrap().to_string();
    println!("\nReport!E1 {src1} = {e1}   E2 {src2} = {e2}");
    wb.set_input(out, a("C2"), "100").unwrap(); // edit a precedent
    println!("after C2 := 100 -> E1 = {}", wb.cell(out, a("E1")));
    wb.set_input(out, a("F1"), "=F2").unwrap();
    wb.set_input(out, a("F2"), "=F1").unwrap();
    println!("cyclic F1=F2, F2=F1 -> {}", wb.cell(out, a("F1")));

    // Hybrid data models (paper §2.1): bind a region to a table — the grid
    // and the relation become two views of one store.
    let live = wb.add_sheet("Live").unwrap();
    wb.bind_table(live, a("A1"), "students", BindModel::Tom)
        .unwrap();
    wb.set_input(live, a("F1"), "=SUM(C2:C20)").unwrap();
    println!(
        "
bound `students` at Live!A1 (TOM); =SUM over the score column = {}",
        wb.cell(live, a("F1"))
    );
    // Grid -> table: a bound-cell edit is UPDATE DML.
    wb.set_input(live, a("C2"), "99").unwrap();
    let (_, rows) = wb
        .query("SELECT name FROM students WHERE score = 99")
        .unwrap();
    println!("Live!C2 := 99 -> SELECT ... WHERE score = 99: {rows:?}");
    // Table -> grid: SQL INSERT grows the region, the SUM recomputes.
    wb.execute("INSERT INTO students VALUES (7, 'barbara', 90)")
        .unwrap();
    println!(
        "INSERT -> region grew to row {}, SUM = {}  (VLOOKUP 7 -> {})",
        wb.binding_rect(wb.binding_ids()[0]).unwrap().end.row + 1,
        wb.cell(live, a("F1")),
        wb.set_input(live, a("F2"), "=VLOOKUP(7,A2:C20,2,FALSE)")
            .unwrap(),
    );

    // Error surfaces, as a user would hit them.
    for bad in [
        "SELECT nope FROM students",
        "SELECT * FROM missing",
        "SELECT name FROM students LIMIT -1",
        "INSERT INTO students VALUES (1)",
        "SELECT RANGEVALUE(ZZZ)",
    ] {
        println!("\n> {bad}\n  !! {}", wb.execute(bad).unwrap_err());
    }
}
