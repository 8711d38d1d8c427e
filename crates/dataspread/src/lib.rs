//! The DataSpread engine: one object that *unifies databases and
//! spreadsheets* (Bendre et al., PVLDB 8(12), 2015).
//!
//! The five foundation crates each own one layer; this crate is the glue the
//! paper calls the system:
//!
//! ```text
//!            ┌────────────────────────────────────────────┐
//!            │              Workbook (this crate)         │
//!            │  SQL executor · positional DML · sync      │
//!            └──────┬──────────────────────┬──────────────┘
//!      interface side                      relational side
//!   ┌───────────────┴───────────┐   ┌──────┴───────────────────┐
//!   │ Sheet: CellStore (grid-   │   │ Catalog/Table (relstore) │
//!   │ store), cells addressed   │   │ ordered by CountedBtree  │
//!   │ by position               │   │ (posindex)               │
//!   └───────────────────────────┘   └──────────────────────────┘
//!                 shared vocabulary: dataspread_types
//!                 SQL front end:     dataspread_sql
//! ```
//!
//! What the engine adds:
//!
//! * [`Workbook`] / [`Sheet`] — sheets hold schemaless interface data in a
//!   tiled cell store, addressed by position; structural edits shift cells
//!   and rewrite formula references.
//! * Formulas — `=SUM(A1:B2)` cells ([`Workbook::set_input`]) parsed by
//!   `dataspread_formula`, tracked in a cross-sheet dependency graph, and
//!   recomputed *incrementally* in topological order ([`crate::calc`]);
//!   cycles display `#CYCLE!`, references broken by row/column deletion
//!   display `#REF!`.
//! * [`Workbook::execute`] — a SQL executor over the catalog (`SELECT` with
//!   joins/aggregates/ordering, DML, DDL) in which `RANGEVALUE('B1')` and
//!   `RANGETABLE('A1:C10')` read the *live* grid — formula results
//!   included.
//! * [`Workbook::import_region`] / [`Workbook::export_table`] — the two-way
//!   boundary crossing, with automatic schema inference (paper §2.2).
//! * Positional DML — [`Workbook::insert_tuple_at`] and
//!   [`Workbook::fetch_window`] route through the counted B-tree, making
//!   "insert a row between rows k and k+1" O(log n).
//!
//! ## Quick start
//!
//! ```
//! use dataspread::{QueryResult, Workbook};
//! use dataspread_types::{CellAddr, Value};
//!
//! let a = |s: &str| CellAddr::parse_a1(s).unwrap();
//! let mut wb = Workbook::new();
//! let sheet = wb.current_sheet();
//!
//! // Formula cells recompute incrementally when their inputs change.
//! wb.set_input(sheet, a("A1"), "10").unwrap();
//! wb.set_input(sheet, a("A2"), "20").unwrap();
//! assert_eq!(wb.set_input(sheet, a("B1"), "=SUM(A1:A2)").unwrap(), Value::Int(30));
//! wb.set_input(sheet, a("A1"), "15").unwrap();
//! assert_eq!(wb.cell(sheet, a("B1")), Value::Int(35));
//!
//! wb.execute("CREATE TABLE ages (name TEXT, age INT)").unwrap();
//! wb.execute("INSERT INTO ages VALUES ('ada', 36), ('alan', 41), ('grace', 29)").unwrap();
//!
//! // SQL that reads the live sheet: the formula cell holds the cutoff.
//! let (_, rows) = wb
//!     .query("SELECT name FROM ages WHERE age > RANGEVALUE(B1) ORDER BY name")
//!     .unwrap();
//! assert_eq!(rows, vec![vec![Value::text("ada")], vec![Value::text("alan")]]);
//!
//! // The paper's signature operation: positional insert, O(log n).
//! wb.insert_tuple_at("ages", 1, vec![Value::text("edsger"), Value::Int(35)]).unwrap();
//! let window = wb.fetch_window("ages", 0, 2).unwrap();
//! assert_eq!(window[1].1[0], Value::text("edsger"));
//! ```

pub mod bind;
pub mod calc;
pub mod concurrent;
pub mod engine;
pub mod exec;
pub(crate) mod metrics;
pub mod persist;
pub mod sheet;
pub mod workbook;

pub use bind::{BindModel, BindingMeta};
pub use concurrent::{ReadSession, SharedWorkbook, WorkbookSnapshot};
pub use engine::QueryResult;
pub use sheet::Sheet;
pub use workbook::{EngineHealth, SheetId, Workbook};

// Re-export the layer crates so downstream users need only one dependency.
pub use dataspread_formula as formula;
pub use dataspread_gridstore as gridstore;
pub use dataspread_obs as obs;
pub use dataspread_posindex as posindex;
pub use dataspread_relstore as relstore;
pub use dataspread_sql as sql;
pub use dataspread_types as types;

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_types::{CellAddr, Value};

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    fn setup() -> Workbook {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE students (id INT PRIMARY KEY, name TEXT NOT NULL, score REAL);
             INSERT INTO students VALUES (1, 'ada', 91.5), (2, 'alan', 87.0), (3, 'grace', 95.25);",
        )
        .unwrap();
        wb
    }

    #[test]
    fn select_project_filter_order() {
        let mut wb = setup();
        let (cols, rows) = wb
            .query("SELECT name, score FROM students WHERE score >= 90 ORDER BY score DESC")
            .unwrap();
        assert_eq!(cols, vec!["name", "score"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0][0], Value::text("grace"));
        assert_eq!(rows[1][0], Value::text("ada"));
    }

    #[test]
    fn select_without_from() {
        let mut wb = Workbook::new();
        let (_, rows) = wb.query("SELECT 1 + 2 * 3, 'x' || 'y'").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(7), Value::text("xy")]]);
    }

    #[test]
    fn aggregates_and_group_by() {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE t (dept TEXT, score INT);
             INSERT INTO t VALUES ('a', 10), ('a', 20), ('b', 30), ('b', NULL);",
        )
        .unwrap();
        let (cols, rows) = wb
            .query(
                "SELECT dept, COUNT(*), COUNT(score), SUM(score), AVG(score)
                 FROM t GROUP BY dept ORDER BY dept",
            )
            .unwrap();
        assert_eq!(cols[0], "dept");
        assert_eq!(
            rows[0],
            vec![
                Value::text("a"),
                Value::Int(2),
                Value::Int(2),
                Value::Int(30),
                Value::Float(15.0)
            ]
        );
        assert_eq!(
            rows[1],
            vec![
                Value::text("b"),
                Value::Int(2),
                Value::Int(1),
                Value::Int(30),
                Value::Float(30.0)
            ]
        );
    }

    #[test]
    fn global_aggregate_over_empty_table() {
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE e (x INT)").unwrap();
        let (_, rows) = wb.query("SELECT COUNT(*), SUM(x), MIN(x) FROM e").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(0), Value::Empty, Value::Empty]]);
    }

    #[test]
    fn having_filters_groups() {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE t (g INT, v INT);
             INSERT INTO t VALUES (1, 5), (1, 5), (2, 7);",
        )
        .unwrap();
        let (_, rows) = wb
            .query("SELECT g FROM t GROUP BY g HAVING COUNT(*) > 1")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn distinct_and_limit_offset() {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE t (x INT);
             INSERT INTO t VALUES (3), (1), (3), (2), (1);",
        )
        .unwrap();
        let (_, rows) = wb.query("SELECT DISTINCT x FROM t ORDER BY x").unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)]
            ]
        );
        let (_, rows) = wb
            .query("SELECT x FROM t ORDER BY x LIMIT 2 OFFSET 1")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
    }

    #[test]
    fn joins_inner_left_natural() {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE dept (did INT, dname TEXT);
             INSERT INTO dept VALUES (1, 'eng'), (2, 'ops');
             CREATE TABLE emp (eid INT, did INT, ename TEXT);
             INSERT INTO emp VALUES (10, 1, 'ada'), (11, 1, 'alan'), (12, 3, 'zed');",
        )
        .unwrap();
        let (_, rows) = wb
            .query("SELECT ename, dname FROM emp JOIN dept ON emp.did = dept.did ORDER BY ename")
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec![Value::text("ada"), Value::text("eng")]);

        let (_, rows) = wb
            .query(
                "SELECT ename, dname FROM emp LEFT JOIN dept ON emp.did = dept.did ORDER BY ename",
            )
            .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2], vec![Value::text("zed"), Value::Empty]);

        // NATURAL JOIN merges `did` into one column.
        let (cols, rows) = wb
            .query("SELECT * FROM emp NATURAL JOIN dept ORDER BY eid")
            .unwrap();
        assert_eq!(cols, vec!["eid", "did", "ename", "dname"]);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn subquery_in_from() {
        let mut wb = setup();
        let (_, rows) = wb
            .query(
                "SELECT n FROM (SELECT name AS n, score AS s FROM students) sub
                 WHERE s > 90 ORDER BY n",
            )
            .unwrap();
        assert_eq!(
            rows,
            vec![vec![Value::text("ada")], vec![Value::text("grace")]]
        );
    }

    #[test]
    fn insert_select_and_column_lists() {
        let mut wb = setup();
        wb.execute("CREATE TABLE honor (name TEXT, score REAL)")
            .unwrap();
        let n = wb
            .execute("INSERT INTO honor SELECT name, score FROM students WHERE score > 90")
            .unwrap();
        assert_eq!(n.affected(), Some(2));
        let n = wb
            .execute("INSERT INTO honor (name) VALUES ('manual')")
            .unwrap();
        assert_eq!(n.affected(), Some(1));
        let (_, rows) = wb
            .query("SELECT score FROM honor WHERE name = 'manual'")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Empty]]);
    }

    #[test]
    fn update_sees_old_row_and_counts() {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE t (a INT, b INT);
             INSERT INTO t VALUES (1, 10), (2, 20);",
        )
        .unwrap();
        // Swap via simultaneous assignment: both SETs read the old row.
        let n = wb.execute("UPDATE t SET a = b, b = a WHERE a = 1").unwrap();
        assert_eq!(n.affected(), Some(1));
        let (_, rows) = wb.query("SELECT a, b FROM t ORDER BY b").unwrap();
        assert_eq!(rows[0], vec![Value::Int(10), Value::Int(1)]);
    }

    #[test]
    fn delete_with_filter() {
        let mut wb = setup();
        let n = wb.execute("DELETE FROM students WHERE score < 90").unwrap();
        assert_eq!(n.affected(), Some(1));
        let (_, rows) = wb.query("SELECT COUNT(*) FROM students").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
    }

    #[test]
    fn ddl_alter_paths() {
        let mut wb = setup();
        wb.execute("ALTER TABLE students ADD COLUMN grade TEXT DEFAULT '?'")
            .unwrap();
        let (_, rows) = wb.query("SELECT grade FROM students WHERE id = 1").unwrap();
        assert_eq!(rows, vec![vec![Value::text("?")]]);
        wb.execute("ALTER TABLE students RENAME COLUMN grade TO letter")
            .unwrap();
        wb.execute("ALTER TABLE students DROP COLUMN letter")
            .unwrap();
        assert_eq!(wb.catalog().get("students").unwrap().schema().width(), 3);
        wb.execute("DROP TABLE IF EXISTS nope").unwrap();
        wb.execute("CREATE TABLE IF NOT EXISTS students (id INT)")
            .unwrap();
        assert_eq!(
            wb.catalog().get("students").unwrap().schema().width(),
            3,
            "kept original"
        );
    }

    #[test]
    fn rangevalue_reads_live_grid() {
        let mut wb = setup();
        let s = wb.current_sheet();
        wb.set_input(s, a("B1"), "90").unwrap();
        let (_, rows) = wb
            .query("SELECT COUNT(*) FROM students WHERE score > RANGEVALUE(B1)")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(2)]]);
        // Update the cell; the same query sees the new value.
        wb.set_input(s, a("B1"), "95").unwrap();
        let (_, rows) = wb
            .query("SELECT COUNT(*) FROM students WHERE score > RANGEVALUE(B1)")
            .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(1)]]);
    }

    #[test]
    fn rangetable_joins_grid_with_table() {
        let mut wb = setup();
        let s = wb.current_sheet();
        wb.set_region(
            s,
            a("A1"),
            &[
                vec![Value::text("id"), Value::text("bonus")],
                vec![Value::Int(1), Value::Int(5)],
                vec![Value::Int(3), Value::Int(7)],
            ],
        )
        .unwrap();
        let (_, rows) = wb
            .query("SELECT name, bonus FROM students NATURAL JOIN RANGETABLE(A1:B3) ORDER BY name")
            .unwrap();
        assert_eq!(
            rows,
            vec![
                vec![Value::text("ada"), Value::Int(5)],
                vec![Value::text("grace"), Value::Int(7)],
            ]
        );
    }

    #[test]
    fn order_by_alias_and_ordinal() {
        let mut wb = setup();
        let (_, rows) = wb
            .query("SELECT name AS n, score FROM students ORDER BY 2 DESC LIMIT 1")
            .unwrap();
        assert_eq!(rows[0][0], Value::text("grace"));
        let (_, rows) = wb
            .query("SELECT name AS n FROM students ORDER BY n")
            .unwrap();
        assert_eq!(rows[0][0], Value::text("ada"));
    }

    #[test]
    fn error_paths_are_reported() {
        let mut wb = setup();
        assert!(wb.query("SELECT nope FROM students").is_err());
        assert!(wb.query("SELECT * FROM missing").is_err());
        assert!(wb.execute("INSERT INTO students VALUES (1)").is_err());
        assert!(wb.execute("UPDATE students SET nope = 1").is_err());
        assert!(wb.query("SELECT name FROM students ORDER BY 9").is_err());
        assert!(wb.query("SELECT name FROM students LIMIT -1").is_err());
        assert!(wb.query("SELECT * FROM students GROUP BY name").is_err());
        // Duplicate pk via SQL surfaces the key violation.
        assert!(wb
            .execute("INSERT INTO students VALUES (1, 'dup', 0)")
            .is_err());
    }
}
