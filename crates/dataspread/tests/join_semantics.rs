//! Join semantics the hash paths must preserve: LEFT JOIN null-extension,
//! NULL keys that never match, numeric Int/Float key equality, NATURAL JOIN
//! name rules and `LEFT JOIN` pushdown limits — each pinned to fixed
//! expected rows — plus `RANGETABLE` scan pruning. The random-input
//! equivalence suites live with the naive evaluator, in
//! `crates/slt/tests/differential.rs`.

use dataspread::gridstore::CellStore;
use dataspread::Workbook;
use dataspread_types::Value;

/// Run `sql`, which must succeed, and return its rows.
fn query_rows(wb: &mut Workbook, sql: &str) -> Vec<Vec<Value>> {
    wb.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}")).1
}

#[test]
fn left_join_preserves_unmatched_rows() {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE emp (eid INT, did INT);
         INSERT INTO emp VALUES (1, 10), (2, 30), (3, NULL);
         CREATE TABLE dept (did INT, dname TEXT);
         INSERT INTO dept VALUES (10, 'eng'), (20, 'ops');",
    )
    .unwrap();
    let rows = query_rows(
        &mut wb,
        "SELECT eid, dname FROM emp LEFT JOIN dept ON emp.did = dept.did ORDER BY eid",
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::text("eng")],
            vec![Value::Int(2), Value::Empty],
            vec![Value::Int(3), Value::Empty],
        ]
    );
}

#[test]
fn null_keys_never_equi_match() {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE a (k ANY, v INT);
         INSERT INTO a VALUES (NULL, 1), (7, 2);
         CREATE TABLE b (k ANY, w INT);
         INSERT INTO b VALUES (NULL, 10), (7, 20);",
    )
    .unwrap();
    // NULL = NULL is not true: only the 7s pair up.
    let rows = query_rows(&mut wb, "SELECT v, w FROM a JOIN b ON a.k = b.k");
    assert_eq!(rows, vec![vec![Value::Int(2), Value::Int(20)]]);
    // LEFT JOIN: the NULL-keyed left row survives, null-extended.
    let rows = query_rows(
        &mut wb,
        "SELECT v, w FROM a LEFT JOIN b ON a.k = b.k ORDER BY v",
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Empty],
            vec![Value::Int(2), Value::Int(20)],
        ]
    );
}

#[test]
fn mixed_int_float_keys_compare_numerically() {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE ints (k INT, v TEXT);
         INSERT INTO ints VALUES (2, 'two'), (3, 'three');
         CREATE TABLE floats (k REAL, w TEXT);
         INSERT INTO floats VALUES (2.0, 'deux'), (2.5, 'deux-et-demi'), (3.0, 'trois');",
    )
    .unwrap();
    let rows = query_rows(
        &mut wb,
        "SELECT v, w FROM ints JOIN floats ON ints.k = floats.k ORDER BY v",
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::text("three"), Value::text("trois")],
            vec![Value::text("two"), Value::text("deux")],
        ]
    );
}

#[test]
fn natural_join_rejects_duplicate_shared_names() {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE t (id INT, x INT);
         INSERT INTO t VALUES (1, 2);
         CREATE TABLE u (id INT, y INT);
         INSERT INTO u VALUES (1, 3);",
    )
    .unwrap();
    // A duplicate shared name on the right side is ambiguous…
    let err = wb
        .query("SELECT * FROM t NATURAL JOIN (SELECT id, y AS id FROM u) s")
        .unwrap_err();
    assert!(
        err.to_string().contains("more than once"),
        "unexpected error: {err}"
    );
    // …and on the left side too (the old executor silently joined on the
    // first match).
    let err = wb
        .query("SELECT * FROM (SELECT id, x AS id FROM t) s NATURAL JOIN u")
        .unwrap_err();
    assert!(
        err.to_string().contains("more than once"),
        "unexpected error: {err}"
    );
    // Non-shared duplicates are fine.
    let rows = query_rows(
        &mut wb,
        "SELECT * FROM t NATURAL JOIN (SELECT id, y AS z FROM u) s",
    );
    assert_eq!(rows.len(), 1);
}

#[test]
fn left_join_on_left_side_term_gates_matching_only() {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE l (k INT, p INT);
         INSERT INTO l VALUES (1, 0), (2, 1);
         CREATE TABLE r (k INT, w TEXT);
         INSERT INTO r VALUES (1, 'one'), (2, 'two');",
    )
    .unwrap();
    // p = 1 gates matching: row (1,0) must still appear, null-extended —
    // a pushdown that filtered the left scan would drop it.
    let rows = query_rows(
        &mut wb,
        "SELECT l.k, w FROM l LEFT JOIN r ON l.k = r.k AND l.p = 1 ORDER BY l.k",
    );
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Empty],
            vec![Value::Int(2), Value::text("two")],
        ]
    );
}

#[test]
fn left_join_where_on_right_side_is_not_pushed() {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE l (k INT);
         INSERT INTO l VALUES (1), (2);
         CREATE TABLE r (k INT);
         INSERT INTO r VALUES (1);",
    )
    .unwrap();
    // The anti-join pattern: WHERE r.k IS NULL must see the null-extended
    // rows, so it cannot sink into the right scan.
    let rows = query_rows(
        &mut wb,
        "SELECT l.k FROM l LEFT JOIN r ON l.k = r.k WHERE r.k IS NULL",
    );
    assert_eq!(rows, vec![vec![Value::Int(2)]]);
}

// ---- scan pruning --------------------------------------------------------

#[test]
fn rangetable_scan_is_column_bounded() {
    use dataspread_types::{col_to_letters, CellAddr};
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    // A 201×96 region (several 32×32 tile columns): header row, then
    // numbers.
    const COLS: i64 = 96;
    const DATA_ROWS: i64 = 200;
    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.push((0..COLS).map(|c| Value::text(format!("c{c}"))).collect());
    for r in 0..DATA_ROWS {
        rows.push((0..COLS).map(|c| Value::Int(r * COLS + c)).collect());
    }
    wb.set_region(s, CellAddr::parse_a1("A1").unwrap(), &rows)
        .unwrap();
    let region = format!("A1:{}{}", col_to_letters(COLS as u32 - 1), DATA_ROWS + 1);

    let (_, wide) = wb
        .query(&format!("SELECT * FROM RANGETABLE({region})"))
        .unwrap();
    wb.sheet(s).store().stats().reset();
    let (_, narrow) = wb
        .query(&format!(
            "SELECT c0, c1 FROM RANGETABLE({region}) WHERE c1 > 100"
        ))
        .unwrap();
    let narrow_reads = wb.sheet(s).store().stats().blocks_read();
    wb.sheet(s).store().stats().reset();
    let (_, wide2) = wb
        .query(&format!("SELECT * FROM RANGETABLE({region})"))
        .unwrap();
    let wide_reads = wb.sheet(s).store().stats().blocks_read();

    assert_eq!(wide, wide2);
    assert!(
        narrow_reads < wide_reads,
        "pruned scan must touch fewer blocks: {narrow_reads} vs {wide_reads}"
    );
    // Same answers as projecting the full read.
    let expect: Vec<Vec<Value>> = wide
        .iter()
        .filter(|r| matches!(r[1], Value::Int(i) if i > 100))
        .map(|r| vec![r[0].clone(), r[1].clone()])
        .collect();
    assert_eq!(narrow, expect);
}

#[test]
fn count_star_over_rangetable_reads_no_data_blocks() {
    use dataspread_types::CellAddr;
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    // Header row in the first tile row, data spilling into further tile
    // rows (64 > 32-row tiles), so a data read is visible in the counters.
    let mut rows: Vec<Vec<Value>> = Vec::new();
    rows.push(vec![Value::text("a"), Value::text("b")]);
    for r in 0..64i64 {
        rows.push(vec![Value::Int(r), Value::Int(r * 2)]);
    }
    wb.set_region(s, CellAddr::parse_a1("A1").unwrap(), &rows)
        .unwrap();

    wb.sheet(s).store().stats().reset();
    let (_, n) = wb.query("SELECT COUNT(*) FROM RANGETABLE(A1:B65)").unwrap();
    let count_reads = wb.sheet(s).store().stats().blocks_read();
    wb.sheet(s).store().stats().reset();
    let (_, full) = wb.query("SELECT a FROM RANGETABLE(A1:B65)").unwrap();
    let data_reads = wb.sheet(s).store().stats().blocks_read();

    assert_eq!(n, vec![vec![Value::Int(64)]]);
    assert_eq!(full.len(), 64);
    // COUNT(*) uses no columns: only the header row is consulted (twice —
    // names + header decision), never the data blocks below it.
    assert!(
        count_reads < data_reads,
        "COUNT(*) must not scan the region: {count_reads} vs {data_reads}"
    );
    assert!(
        count_reads <= 2,
        "COUNT(*) should touch only the header tile: {count_reads}"
    );
}
