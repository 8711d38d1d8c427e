//! The durability acceptance path: a workbook with tables and sheet data
//! survives `save` → process restart → `open` with identical query results,
//! across checkpoints, WAL replay, and crash-shaped file states.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;

use dataspread::{BindModel, Workbook};
use dataspread_relstore::snapshot::{DATA_FILE, WAL_FILE};
use dataspread_relstore::vfs::{FaultPlan, FaultVfs, RecoveryImage};
use dataspread_testkit as testkit;
use dataspread_types::{CellAddr, Range, Value};

fn tmp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dsp-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn a(s: &str) -> CellAddr {
    CellAddr::parse_a1(s).unwrap()
}

/// Queries whose results must be identical across a save/open cycle.
fn fingerprint(wb: &mut Workbook) -> Vec<Vec<Vec<Value>>> {
    [
        "SELECT * FROM students ORDER BY id",
        "SELECT COUNT(*), SUM(score) FROM students",
        "SELECT name FROM students WHERE score > RANGEVALUE(B1) ORDER BY name",
        "SELECT s.name, b.bonus FROM students s JOIN bonuses b ON s.id = b.id ORDER BY s.id",
    ]
    .iter()
    .map(|q| wb.query(q).unwrap().1)
    .collect()
}

fn build_workbook() -> Workbook {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE students (id INT PRIMARY KEY, name TEXT NOT NULL, score REAL);
         INSERT INTO students VALUES (1, 'ada', 91.5), (2, 'alan', 87.0), (3, 'grace', 95.25);
         CREATE TABLE bonuses (id INT, bonus INT);
         INSERT INTO bonuses VALUES (1, 5), (3, 7);",
    )
    .unwrap();
    let s = wb.current_sheet();
    wb.set_input(s, a("B1"), "90").unwrap();
    wb.set_input(s, a("A1"), "cutoff:").unwrap();
    wb
}

#[test]
fn save_reopen_identical_results() {
    let dir = tmp_dir("roundtrip");
    let mut wb = build_workbook();
    let reference = fingerprint(&mut wb);
    wb.save(&dir).unwrap();
    assert!(wb.is_durable());
    assert_eq!(wb.store_dir(), Some(dir.as_path()));
    drop(wb); // process "restart"

    let mut wb = Workbook::open(&dir).unwrap();
    assert_eq!(fingerprint(&mut wb), reference);
    // Sheet state came back too: cells and the current-sheet pointer.
    let s = wb.current_sheet();
    assert_eq!(wb.sheet(s).value(a("A1")), Value::text("cutoff:"));
    assert_eq!(wb.sheet(s).value(a("B1")), Value::Int(90));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_tail_survives_crash_without_checkpoint() {
    let dir = tmp_dir("waltail");
    let mut wb = build_workbook();
    wb.save(&dir).unwrap();
    // Post-checkpoint DML: durable via the WAL alone. Simulate a crash by
    // copying the store files *before* any further checkpoint, then
    // reopening from the copy.
    wb.execute("INSERT INTO students VALUES (4, 'edsger', 88.0)")
        .unwrap();
    wb.execute("UPDATE students SET score = 99.0 WHERE id = 2")
        .unwrap();
    wb.execute("DELETE FROM bonuses WHERE id = 1").unwrap();
    wb.insert_tuple_at(
        "students",
        0,
        vec![Value::Int(5), Value::text("kay"), Value::Float(70.0)],
    )
    .unwrap();
    let reference = fingerprint(&mut wb);
    let order: Vec<Vec<Value>> = wb
        .fetch_window("students", 0, 10)
        .unwrap()
        .into_iter()
        .map(|(_, row)| row)
        .collect();

    let crashed = tmp_dir("waltail-crashed");
    std::fs::create_dir_all(&crashed).unwrap();
    for f in [DATA_FILE, WAL_FILE] {
        std::fs::copy(dir.join(f), crashed.join(f)).unwrap();
    }
    drop(wb);

    let mut wb = Workbook::open(&crashed).unwrap();
    assert_eq!(fingerprint(&mut wb), reference);
    // Positional order replayed too (the paper's signature operation).
    let reopened: Vec<Vec<Value>> = wb
        .fetch_window("students", 0, 10)
        .unwrap()
        .into_iter()
        .map(|(_, row)| row)
        .collect();
    assert_eq!(reopened, order);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

#[test]
fn ddl_checkpoints_automatically() {
    let dir = tmp_dir("ddl");
    let mut wb = build_workbook();
    wb.save(&dir).unwrap();
    wb.execute("ALTER TABLE students ADD COLUMN grade TEXT DEFAULT '?'")
        .unwrap();
    wb.execute("UPDATE students SET grade = 'A' WHERE id = 3")
        .unwrap();
    wb.execute("CREATE TABLE fresh (x INT)").unwrap();
    wb.execute("INSERT INTO fresh VALUES (11)").unwrap();
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    let (_, rows) = wb.query("SELECT grade FROM students WHERE id = 3").unwrap();
    assert_eq!(rows, vec![vec![Value::text("A")]]);
    let (_, rows) = wb.query("SELECT x FROM fresh").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(11)]]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn import_region_is_durable() {
    let dir = tmp_dir("import");
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    wb.set_region(
        s,
        a("A1"),
        &[
            vec![Value::text("k"), Value::text("v")],
            vec![Value::Int(1), Value::text("one")],
            vec![Value::Int(2), Value::text("two")],
        ],
    )
    .unwrap();
    wb.save(&dir).unwrap();
    wb.import_region(s, Range::parse_a1("A1:B3").unwrap(), "kv", true)
        .unwrap();
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    let (_, rows) = wb.query("SELECT v FROM kv ORDER BY k").unwrap();
    assert_eq!(
        rows,
        vec![vec![Value::text("one")], vec![Value::text("two")]]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn failed_statement_recovers_to_what_memory_saw() {
    let dir = tmp_dir("failed");
    let mut wb = build_workbook();
    wb.save(&dir).unwrap();
    wb.execute("INSERT INTO students VALUES (10, 'ok', 50.0)")
        .unwrap();
    // Multi-row insert failing on its LAST row (duplicate pk): the engine
    // applies row by row, so 20 and 21 are in memory when the statement
    // errors. The log must mirror that — recovery may not invent an
    // alternate history where the statement never ran.
    assert!(wb
        .execute("INSERT INTO students VALUES (20, 'p1', 1.0), (21, 'p2', 2.0), (20, 'dup', 3.0)")
        .is_err());
    let in_memory = wb
        .query("SELECT id FROM students WHERE id >= 10 ORDER BY id")
        .unwrap()
        .1;
    assert_eq!(
        in_memory,
        vec![
            vec![Value::Int(10)],
            vec![Value::Int(20)],
            vec![Value::Int(21)]
        ]
    );
    // The log stays usable for the next statement.
    wb.execute("INSERT INTO students VALUES (11, 'after', 60.0)")
        .unwrap();
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    let (_, rows) = wb
        .query("SELECT id FROM students WHERE id >= 10 ORDER BY id")
        .unwrap();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(10)],
            vec![Value::Int(11)],
            vec![Value::Int(20)],
            vec![Value::Int(21)]
        ],
        "disk must replay to exactly what live queries saw"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn saving_over_foreign_store_advances_generation() {
    let dir = tmp_dir("generation");
    let mut wb1 = build_workbook();
    wb1.save(&dir).unwrap(); // generation 1
    wb1.save(&dir).unwrap(); // generation 2
    drop(wb1);
    // A different workbook adopting the same directory must continue the
    // sequence, not restart at 1 — otherwise a crash between snapshot
    // rename and WAL reset could resurrect (or hard-reject) a stale WAL.
    let mut wb2 = Workbook::new();
    wb2.execute("CREATE TABLE other (y INT)").unwrap();
    wb2.save(&dir).unwrap();
    drop(wb2);
    let pf = dataspread::relstore::PageFile::open(dir.join(DATA_FILE)).unwrap();
    assert!(
        pf.generation() >= 3,
        "generation must be monotone, got {}",
        pf.generation()
    );
    drop(pf);
    let mut wb = Workbook::open(&dir).unwrap();
    let (_, rows) = wb.query("SELECT COUNT(*) FROM other").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(0)]]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn open_missing_or_corrupt_store_errors_cleanly() {
    let dir = tmp_dir("corrupt");
    assert!(Workbook::open(&dir).is_err(), "missing store");
    let mut wb = build_workbook();
    wb.save(&dir).unwrap();
    drop(wb);
    // Bit-flip inside the first frame's payload (offset 64 header + 16
    // frame header + 2): open must fail with an error, never decode
    // garbage.
    let data = dir.join(DATA_FILE);
    let mut raw = std::fs::read(&data).unwrap();
    raw[64 + 16 + 2] ^= 0x40;
    std::fs::write(&data, &raw).unwrap();
    assert!(Workbook::open(&dir).is_err(), "corrupt page file detected");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sheet_edits_survive_crash_without_checkpoint() {
    let dir = tmp_dir("sheetedits");
    let mut wb = build_workbook();
    wb.save(&dir).unwrap();
    // Post-checkpoint grid edits: literals, a formula, and a structural
    // edit — durable via the WAL alone, no checkpoint follows.
    let s = wb.current_sheet();
    wb.set_input(s, a("D1"), "10").unwrap();
    wb.set_input(s, a("D2"), "32").unwrap();
    let v = wb.set_input(s, a("D3"), "=SUM(D1:D2)").unwrap();
    assert_eq!(v, Value::Int(42));
    wb.set_input(s, a("E1"), "direct").unwrap(); // raw-path edit logs too
    wb.insert_rows(s, 0, 2).unwrap(); // shifts D1:D3 → D3:D5
    wb.set_value(s, a("F9"), Value::Bool(true)).unwrap();

    let crashed = tmp_dir("sheetedits-crashed");
    std::fs::create_dir_all(&crashed).unwrap();
    for f in [DATA_FILE, WAL_FILE] {
        std::fs::copy(dir.join(f), crashed.join(f)).unwrap();
    }
    drop(wb); // crash

    let mut wb = Workbook::open(&crashed).unwrap();
    let s = wb.current_sheet();
    assert_eq!(wb.cell(s, a("D3")), Value::Int(10));
    assert_eq!(wb.cell(s, a("D4")), Value::Int(32));
    assert_eq!(wb.cell(s, a("D5")), Value::Int(42), "formula recomputed");
    assert_eq!(wb.formula_text(s, a("D5")), Some("=SUM(D3:D4)"));
    assert_eq!(wb.cell(s, a("E3")), Value::text("direct"));
    assert_eq!(
        wb.cell(s, a("F9")),
        Value::Bool(true),
        "edit after the shift"
    );
    // The dependency graph is live after recovery: edit a precedent.
    wb.set_input(s, a("D3"), "100").unwrap();
    assert_eq!(wb.cell(s, a("D5")), Value::Int(132));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

#[test]
fn formula_cells_survive_save_open() {
    let dir = tmp_dir("formulasave");
    let mut wb = build_workbook();
    let s = wb.current_sheet();
    wb.set_input(s, a("C1"), "=RANGEVALUE").ok(); // not a formula fn: stays #NAME?
    wb.set_input(s, a("C2"), "=B1*2").unwrap(); // B1 = 90 from build_workbook
    wb.set_input(s, a("C3"), "=C2+C9").unwrap();
    wb.save(&dir).unwrap();
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    let s = wb.current_sheet();
    assert_eq!(wb.formula_text(s, a("C2")), Some("=B1*2"));
    assert_eq!(wb.cell(s, a("C2")), Value::Int(180));
    assert_eq!(wb.cell(s, a("C3")), Value::Int(180));
    assert!(wb.cell(s, a("C1")).is_error(), "unparseable stays an error");
    assert_eq!(wb.formula_text(s, a("C1")), Some("=RANGEVALUE"));
    // Still incremental after reopen.
    wb.set_input(s, a("B1"), "10").unwrap();
    assert_eq!(wb.cell(s, a("C2")), Value::Int(20));
    // And visible to SQL.
    let (_, rows) = wb.query("SELECT RANGEVALUE(C2)").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(20)]]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sheet_edit_wal_truncation_recovers_a_prefix() {
    // Crash injection: chop the WAL at random byte boundaries; recovery must
    // reconstruct the state after some *prefix* of the committed edits —
    // never a mixture, never garbage.
    let base = tmp_dir("sheettorn");
    let mut wb = build_workbook();
    wb.save(&base).unwrap();
    let s = wb.current_sheet();
    // Each edit is one auto-committed WAL transaction.
    let edits: Vec<(&str, &str)> = vec![
        ("D1", "5"),
        ("D2", "=D1*10"),
        ("D1", "7"),
        ("D3", "hello"),
        ("D2", "=D1+1"),
    ];
    // Expected cell states after each prefix of edits.
    let probe = ["D1", "D2", "D3"];
    let mut expected: Vec<Vec<Value>> = Vec::new();
    {
        let mut model = build_workbook();
        let ms = model.current_sheet();
        expected.push(probe.iter().map(|p| model.cell(ms, a(p))).collect());
        for (cell, input) in &edits {
            model.set_input(ms, a(cell), input).unwrap();
            expected.push(probe.iter().map(|p| model.cell(ms, a(p))).collect());
        }
    }
    for (cell, input) in &edits {
        wb.set_input(s, a(cell), input).unwrap();
    }
    drop(wb);

    let wal_bytes = std::fs::read(base.join(WAL_FILE)).unwrap();
    let mut rng = dataspread_testkit::Rng::new(0x7E57);
    for trial in 0..30 {
        let cut = rng.usize_in(0, wal_bytes.len() + 1);
        let dir = tmp_dir(&format!("sheettorn-{trial}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(base.join(DATA_FILE), dir.join(DATA_FILE)).unwrap();
        std::fs::write(dir.join(WAL_FILE), &wal_bytes[..cut]).unwrap();
        let wb = Workbook::open(&dir).unwrap();
        let s = wb.current_sheet();
        let state: Vec<Value> = probe.iter().map(|p| wb.cell(s, a(p))).collect();
        assert!(
            expected.contains(&state),
            "cut {cut}: recovered state {state:?} is not a prefix state"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn replayed_formulas_typed_after_structural_edits_keep_coordinates() {
    // Crash recovery replays the WAL tail in log order. A formula logged
    // AFTER a structural edit already refers to post-edit coordinates and
    // must not be shifted a second time; one logged BEFORE a cross-sheet
    // edit must be shifted by it exactly once.
    let dir = tmp_dir("replayorder");
    let mut wb = build_workbook();
    let data = {
        wb.save(&dir).unwrap();
        wb.add_sheet("Data").unwrap() // checkpoints (durable)
    };
    let s = wb.current_sheet();
    wb.set_input(data, a("A5"), "9").unwrap();
    wb.insert_rows(data, 0, 1).unwrap(); // A5 → A6
    wb.set_input(s, a("B1"), "=Data!A6").unwrap(); // post-shift coordinates
    assert_eq!(wb.cell(s, a("B1")), Value::Int(9));
    wb.set_input(data, a("A10"), "4").unwrap();
    wb.set_input(s, a("B2"), "=Data!A10").unwrap(); // pre-shift coordinates
    wb.insert_rows(data, 7, 2).unwrap(); // A10 → A12; A6 stays
    assert_eq!(wb.formula_text(s, a("B2")), Some("=Data!A12"));

    let crashed = tmp_dir("replayorder-crashed");
    std::fs::create_dir_all(&crashed).unwrap();
    for f in [DATA_FILE, WAL_FILE] {
        std::fs::copy(dir.join(f), crashed.join(f)).unwrap();
    }
    drop(wb);

    let wb = Workbook::open(&crashed).unwrap();
    let s = wb.current_sheet();
    assert_eq!(
        wb.formula_text(s, a("B1")),
        Some("=Data!A6"),
        "recovery must not double-shift a formula typed after the edit"
    );
    assert_eq!(wb.cell(s, a("B1")), Value::Int(9));
    assert_eq!(
        wb.formula_text(s, a("B2")),
        Some("=Data!A12"),
        "recovery must shift a formula typed before the edit exactly once"
    );
    assert_eq!(wb.cell(s, a("B2")), Value::Int(4));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

#[test]
fn repeated_saves_and_reopens_are_stable() {
    let dir = tmp_dir("repeat");
    let mut wb = build_workbook();
    wb.save(&dir).unwrap();
    for round in 0..5 {
        wb.execute(&format!(
            "INSERT INTO bonuses VALUES ({}, {})",
            100 + round,
            round
        ))
        .unwrap();
        wb.save(&dir).unwrap();
        drop(wb);
        wb = Workbook::open(&dir).unwrap();
    }
    let (_, rows) = wb.query("SELECT COUNT(*) FROM bonuses").unwrap();
    assert_eq!(rows, vec![vec![Value::Int(7)]]);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Optimizer statistics are part of the workbook meta: they survive
/// save → open exactly, and after a crash the checkpointed sketches plus the
/// replayed tail equal the live sketches at the crash — not exact ones: a
/// `DELETE` leaves them stale-high, and open must not re-analyze.
#[test]
fn statistics_survive_save_open_and_wal_replay() {
    let dir = tmp_dir("stats");
    let mut wb = build_workbook();
    wb.execute("ANALYZE").unwrap();
    let stats = |wb: &Workbook, table: &str| wb.catalog().get(table).unwrap().statistics().clone();
    let reference = stats(&wb, "students");
    let plan = wb
        .query("EXPLAIN SELECT name FROM students WHERE id = 2")
        .unwrap()
        .1;
    wb.save(&dir).unwrap();
    drop(wb); // process "restart"

    // Clean reopen: stats come back from the meta block, not a rebuild —
    // same sketches, same EXPLAIN estimates.
    let mut wb = Workbook::open(&dir).unwrap();
    assert_eq!(
        stats(&wb, "students"),
        reference,
        "persisted stats differ after open"
    );
    assert_eq!(
        wb.query("EXPLAIN SELECT name FROM students WHERE id = 2")
            .unwrap()
            .1,
        plan,
        "EXPLAIN must be stable across save/open"
    );

    // Crash injection: DML after the checkpoint reaches disk only through
    // the WAL. Copy the crash-shaped files and reopen; replay re-observes
    // what the live statements observed, and nothing else.
    wb.execute("INSERT INTO students VALUES (7, 'zz-top', 999.0)")
        .unwrap();
    wb.execute("DELETE FROM students WHERE id = 1").unwrap();
    wb.execute("UPDATE bonuses SET bonus = 70 WHERE id = 3")
        .unwrap();
    let live = [stats(&wb, "students"), stats(&wb, "bonuses")];
    // The delete left id 1 in the sketch: a re-analyze would differ.
    assert_eq!(live[0].column(0).unwrap().ndv(), 4.0);
    let live_rows = wb.query("SELECT COUNT(*) FROM students").unwrap().1;
    let crashed = tmp_dir("stats-crashed");
    std::fs::create_dir_all(&crashed).unwrap();
    for f in [DATA_FILE, WAL_FILE] {
        std::fs::copy(dir.join(f), crashed.join(f)).unwrap();
    }
    drop(wb); // crash

    let mut wb = Workbook::open(&crashed).unwrap();
    assert_eq!(
        wb.query("SELECT COUNT(*) FROM students").unwrap().1,
        live_rows
    );
    assert_eq!(wb.catalog().get("students").unwrap().row_count(), 3);
    assert_eq!(
        [stats(&wb, "students"), stats(&wb, "bonuses")],
        live,
        "reopened statistics must equal the live ones at the crash"
    );
    // ANALYZE after recovery snaps everything to exact again.
    wb.execute("ANALYZE students").unwrap();
    let t = wb.catalog().get("students").unwrap();
    assert_eq!(t.statistics().column(0).unwrap().ndv(), 3.0);
    drop(t);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&crashed).unwrap();
}

/// Formula cells evaluated (or poisoned) since the workbook was opened.
fn recomputed(wb: &Workbook) -> u64 {
    wb.metrics_snapshot()
        .counter("calc_cells_recomputed")
        .unwrap()
}

/// Recovery must leave a live dependents index behind, covering the
/// checkpointed formulas *and* the ones replayed from the WAL tail: an index
/// left empty on open would show every value right and recompute nothing.
#[test]
fn reopened_workbook_recomputes_dependents_incrementally() {
    let dir = tmp_dir("depindex");
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    // A 20-cell chain B1..B20 off A1, and 50 formulas reading column Z.
    wb.set_input(s, a("A1"), "1").unwrap();
    wb.set_input(s, a("B1"), "=A1+1").unwrap();
    for r in 2..=20 {
        wb.set_input(s, a(&format!("B{r}")), &format!("=B{}+1", r - 1))
            .unwrap();
    }
    for r in 1..=50 {
        wb.set_input(s, a(&format!("D{r}")), &format!("=Z{r}*2"))
            .unwrap();
    }
    wb.save(&dir).unwrap();
    // Typed after the checkpoint: lives only in the WAL tail.
    wb.set_input(s, a("C1"), "=B20*10").unwrap();
    assert_eq!(wb.cell(s, a("C1")), Value::Int(210));
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    let s = wb.current_sheet();
    assert_eq!(wb.formula_text(s, a("C1")), Some("=B20*10"));
    assert_eq!(wb.cell(s, a("C1")), Value::Int(210));
    // Open trusts the 70 checkpointed values and evaluates only the
    // formula the tail typed.
    assert_eq!(recomputed(&wb), 1, "open recomputes only the tail's C1");
    let before = recomputed(&wb);
    wb.set_input(s, a("A1"), "100").unwrap();
    for r in 1..=20 {
        assert_eq!(wb.cell(s, a(&format!("B{r}"))), Value::Int(100 + r));
    }
    assert_eq!(wb.cell(s, a("C1")), Value::Int(1200), "replayed dependent");
    assert_eq!(
        recomputed(&wb) - before,
        21,
        "exactly the chain and the replayed formula recompute"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A literal edit in the WAL tail reaches the checkpointed formulas that
/// read it: open recomputes exactly them, and nothing else.
#[test]
fn replayed_literal_edit_recomputes_its_dependents_on_open() {
    let dir = tmp_dir("tail-literal");
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    let data = wb.add_sheet("Data").unwrap();
    wb.set_input(data, a("A1"), "1").unwrap();
    wb.set_input(s, a("B1"), "=Data!A1+1").unwrap();
    for r in 2..=20 {
        wb.set_input(s, a(&format!("B{r}")), &format!("=B{}+1", r - 1))
            .unwrap();
    }
    for r in 1..=50 {
        wb.set_input(s, a(&format!("D{r}")), &format!("=Z{r}*2"))
            .unwrap();
    }
    wb.save(&dir).unwrap();
    wb.set_input(data, a("A1"), "100").unwrap();
    let live: Vec<Value> = (1..=20).map(|r| wb.cell(s, a(&format!("B{r}")))).collect();
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    let shown: Vec<Value> = (1..=20).map(|r| wb.cell(s, a(&format!("B{r}")))).collect();
    assert_eq!(shown, live);
    assert_eq!(wb.cell(s, a("B20")), Value::Int(120));
    assert_eq!(
        recomputed(&wb),
        20,
        "the chain off Data!A1, not the D column"
    );
    wb.recalculate();
    let full: Vec<Value> = (1..=20).map(|r| wb.cell(s, a(&format!("B{r}")))).collect();
    assert_eq!(shown, full);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpointed reference cycle, and a reader it poisons although the
/// reader's IF never evaluates it, stay poisoned across a reopen: open
/// re-derives the cycle set, so a later edit of the reader's other input
/// still poisons it, exactly as a full recalculation does.
#[test]
fn checkpointed_cycles_stay_poisoned_after_reopen() {
    let dir = tmp_dir("tail-cycle");
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    wb.set_input(s, a("A5"), "=B5+1").unwrap();
    wb.set_input(s, a("B5"), "=A5+1").unwrap();
    wb.set_input(s, a("D5"), "1").unwrap();
    wb.set_input(s, a("C5"), "=IF(D5>0,A5,7)").unwrap();
    wb.set_input(s, a("E5"), "=C5").unwrap();
    let cycle = Value::Error(dataspread_types::CellError::Cycle);
    assert_eq!(wb.cell(s, a("C5")), cycle);
    wb.save(&dir).unwrap();
    drop(wb);

    let mut wb = Workbook::open(&dir).unwrap();
    for cell in ["A5", "B5", "C5", "E5"] {
        assert_eq!(wb.cell(s, a(cell)), cycle, "{cell} after open");
    }
    wb.set_input(s, a("D5"), "0").unwrap();
    assert_eq!(wb.cell(s, a("C5")), cycle, "C5 is still fed by the cycle");
    assert_eq!(wb.cell(s, a("E5")), cycle);
    wb.recalculate();
    assert_eq!(wb.cell(s, a("C5")), cycle);
    // Breaking the cycle frees both readers.
    wb.set_input(s, a("B5"), "1").unwrap();
    assert_eq!(wb.cell(s, a("C5")), Value::Int(7));
    assert_eq!(wb.cell(s, a("E5")), Value::Int(7));
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------ power cuts in memory

/// The store directory on the in-memory file systems below.
const STORE: &str = "/store";

/// Cut the power under `wb` — every byte not yet synced is lost — and
/// reopen the store.
fn power_cut(wb: Workbook, fault: &FaultVfs) -> Workbook {
    drop(wb);
    fault.reset_to_recovery(RecoveryImage::Synced);
    Workbook::open_with_vfs(STORE, Arc::new(fault.clone())).unwrap()
}

/// Cases for the seeded crash property: `DSP_STRESS_ITERS` (default 24),
/// the knob CI's chaos job turns up.
fn iters() -> u64 {
    std::env::var("DSP_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(24)
}

/// A row of the crash property's table `t (k INT PRIMARY KEY, v INT, s TEXT)`.
type Row = (i64, i64, Option<String>);

/// One random statement (or checkpoint) against `t`, mirrored into `model`
/// (kept in key order). Keys, values and texts each come from fewer than
/// 256 distinct values, so the NDV sketches stay exact for what they saw.
/// `ANALYZE` is among the statements: it re-observes the rows, and its
/// sketches must survive a cut as the DML-maintained ones do.
fn crash_step(rng: &mut testkit::Rng, wb: &mut Workbook, model: &mut Vec<Row>) {
    let fresh_key = |rng: &mut testkit::Rng, model: &[Row]| {
        let k = rng.below(255) as i64;
        (!model.iter().any(|r| r.0 == k)).then_some(k)
    };
    let text = |rng: &mut testkit::Rng| (rng.below(5) > 0).then(|| format!("s{}", rng.below(255)));
    let sql_text = |s: &Option<String>| s.as_ref().map_or("NULL".to_string(), |s| format!("'{s}'"));
    let existing = (!model.is_empty()).then(|| rng.index(model.len()));
    let sql = match (rng.weighted(&[6, 4, 2, 2, 3, 1, 2, 1]), existing) {
        (1, Some(i)) => {
            let v = rng.below(255) as i64;
            model[i].1 = v;
            format!("UPDATE t SET v = {v} WHERE k = {}", model[i].0)
        }
        (2, Some(i)) => {
            let Some(k) = fresh_key(rng, model) else {
                return;
            };
            let old = model[i].0;
            model[i].0 = k;
            format!("UPDATE t SET k = {k} WHERE k = {old}")
        }
        (3, _) => {
            let (s, below) = (text(rng), rng.below(255) as i64);
            for r in model.iter_mut().filter(|r| r.1 < below) {
                r.2 = s.clone();
            }
            format!("UPDATE t SET s = {} WHERE v < {below}", sql_text(&s))
        }
        (4, Some(i)) => format!("DELETE FROM t WHERE k = {}", model.remove(i).0),
        (5, _) => {
            let above = 200 + rng.below(55) as i64;
            model.retain(|r| r.1 <= above);
            format!("DELETE FROM t WHERE v > {above}")
        }
        (6, _) => {
            wb.checkpoint().unwrap();
            return;
        }
        (7, _) => "ANALYZE t".to_string(),
        _ => {
            let Some(k) = fresh_key(rng, model) else {
                return;
            };
            let row = (k, rng.below(255) as i64, text(rng));
            let sql = format!(
                "INSERT INTO t VALUES ({k}, {}, {})",
                row.1,
                sql_text(&row.2)
            );
            model.push(row);
            sql
        }
    };
    model.sort();
    wb.execute(&sql).unwrap();
}

/// Power cuts at random points of random DML on a keyed table, with
/// checkpoints at random points between them: the reopened rows equal the
/// model of acknowledged statements, the reopened statistics equal the live
/// ones at the cut, and an exact count taken from the model alone stays
/// inside the sketches' envelope.
#[test]
fn power_cuts_keep_rows_and_live_statistics() {
    testkit::cases(iters(), 0x57A7_C0F5, |rng| {
        let fault = FaultVfs::new(FaultPlan::quiet());
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT, s TEXT)")
            .unwrap();
        wb.save_with_vfs(STORE, Arc::new(fault.clone())).unwrap();
        let mut model: Vec<Row> = Vec::new();
        for round in 0..rng.usize_in(2, 5) {
            for _ in 0..rng.usize_in(1, 80) {
                crash_step(rng, &mut wb, &mut model);
            }
            let live = wb.catalog().get("t").unwrap().statistics().clone();
            wb = power_cut(wb, &fault);

            let rows = wb.query("SELECT k, v, s FROM t ORDER BY k").unwrap().1;
            let expected: Vec<Vec<Value>> = model
                .iter()
                .map(|(k, v, s)| {
                    let s = s.as_ref().map_or(Value::Empty, |s| Value::text(s.as_str()));
                    vec![Value::Int(*k), Value::Int(*v), s]
                })
                .collect();
            assert_eq!(rows, expected, "round {round}: rows after the cut");
            let t = wb.catalog().get("t").unwrap();
            let stats = t.statistics();
            assert_eq!(stats, &live, "round {round}: statistics after the cut");

            // The exact figures, from the model alone.
            let ints = |col: fn(&Row) -> i64| -> Vec<i64> { model.iter().map(col).collect() };
            for (c, values) in [(0, ints(|r| r.0)), (1, ints(|r| r.1))] {
                let sketch = stats.column(c).unwrap();
                let distinct: HashSet<i64> = values.iter().copied().collect();
                assert!(
                    sketch.ndv() >= distinct.len() as f64,
                    "round {round}: col {c} ndv"
                );
                if let (Some(&lo), Some(&hi)) = (values.iter().min(), values.iter().max()) {
                    assert!(
                        sketch.num_min().is_some_and(|m| m <= lo as f64),
                        "col {c} min"
                    );
                    assert!(
                        sketch.num_max().is_some_and(|m| m >= hi as f64),
                        "col {c} max"
                    );
                }
            }
            let texts: Vec<&str> = model.iter().filter_map(|r| r.2.as_deref()).collect();
            let sketch = stats.column(2).unwrap();
            let distinct: HashSet<&str> = texts.iter().copied().collect();
            assert!(
                sketch.ndv() >= distinct.len() as f64,
                "round {round}: text ndv"
            );
            let nulls = model.len() - texts.len();
            assert!(sketch.null_count() >= nulls as u64, "round {round}: nulls");
            if let (Some(lo), Some(hi)) = (texts.iter().min(), texts.iter().max()) {
                assert!(sketch.text_min().is_some_and(|m| m <= *lo), "text min");
                assert!(sketch.text_max().is_some_and(|m| m >= *hi), "text max");
            }
        }
    });
}

/// Checkpoints taken inside an edit — a bound header rename, a bound
/// column deletion — store the formula values that edit leads to, not the
/// ones from before it: after a power cut, formulas reading the header and
/// the bound columns show what they showed live and what a full pass gives.
#[test]
fn checkpoints_inside_bound_edits_store_current_formula_values() {
    let fault = FaultVfs::new(FaultPlan::quiet());
    let mut wb = Workbook::new();
    let s = wb.current_sheet();
    wb.execute_script(
        "CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT);
         INSERT INTO t VALUES (1, 10, 100), (2, 20, 200), (3, 30, 300);",
    )
    .unwrap();
    wb.bind_table(s, a("A1"), "t", BindModel::Tom).unwrap();
    wb.set_input(s, a("F1"), "=B1").unwrap();
    wb.set_input(s, a("F2"), "=SUM(A2:C4)").unwrap();
    wb.save_with_vfs(STORE, Arc::new(fault.clone())).unwrap();
    let shown = |wb: &Workbook, cells: [&str; 2]| cells.map(|c| wb.cell(s, a(c)));

    // Renaming the bound header `x` is schema DDL: it checkpoints.
    wb.set_input(s, a("B1"), "xx").unwrap();
    let live = shown(&wb, ["F1", "F2"]);
    assert_eq!(live, [Value::text("xx"), Value::Int(666)]);
    let mut wb = power_cut(wb, &fault);
    assert_eq!(shown(&wb, ["F1", "F2"]), live, "after the rename");

    // Deleting the bound column `y` drops it from the table and
    // checkpoints; the formulas shift left one column.
    wb.delete_cols(s, 2, 1).unwrap();
    let live = shown(&wb, ["E1", "E2"]);
    assert_eq!(live, [Value::text("xx"), Value::Int(66)]);
    let mut wb = power_cut(wb, &fault);
    assert_eq!(shown(&wb, ["E1", "E2"]), live, "after the column delete");
    wb.recalculate();
    assert_eq!(shown(&wb, ["E1", "E2"]), live, "against a full pass");
}

/// A power cut after a tail of bound statements: reopen brings the mirror
/// up to date from the replayed change set — the checkpoint marked it
/// current — so it writes only the cells of the rows the tail touched and
/// reads no row it did not, at any table size. Each statement touches at
/// most two display rows (a `DELETE` of one of the last two rows moves the
/// last one up and vacates the end). Afterwards the region equals the
/// table, and the formula over it a full pass.
#[test]
fn reopen_rerenders_only_the_rows_a_bound_tail_touched() {
    testkit::cases(iters(), 0x7A11_0BE5, |rng| {
        let fault = FaultVfs::new(FaultPlan::quiet());
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        let n = rng.usize_in(300, 1_500) as i64;
        wb.execute_script(
            "CREATE TABLE t (k INT PRIMARY KEY, v INT, s TEXT);
             CREATE TABLE u (x INT)",
        )
        .unwrap();
        {
            let mut t = wb.catalog_mut().get_mut("t").unwrap();
            for k in 0..n {
                t.insert(vec![Value::Int(k), Value::Int(k % 7), Value::text("s")])
                    .unwrap();
            }
        }
        wb.bind_table(s, a("A1"), "t", BindModel::Rom).unwrap();
        wb.bind_table_cols(s, a("F1"), "t", &["v"]).unwrap();
        wb.set_input(s, a("H1"), &format!("=SUM(B1:B{})", n + 100))
            .unwrap();
        wb.save_with_vfs(STORE, Arc::new(fault.clone())).unwrap();
        let mut keys: Vec<i64> = (0..n).collect();
        let mut next = n;
        let stmts = rng.usize_in(1, 12);
        for _ in 0..stmts {
            let sql = match rng.below(4) {
                0 => {
                    keys.push(next);
                    next += 1;
                    format!("INSERT INTO t VALUES ({}, {}, 'i')", next - 1, next % 7)
                }
                1 => format!(
                    "UPDATE t SET v = {} WHERE k = {}",
                    rng.below(100),
                    keys[rng.index(keys.len())]
                ),
                _ => {
                    let k = keys.remove(keys.len() - 1 - rng.index(2));
                    format!("DELETE FROM t WHERE k = {k}")
                }
            };
            wb.execute(&sql).unwrap();
            // Unbound statements ride the same tail.
            wb.execute(&format!("INSERT INTO u VALUES ({next})"))
                .unwrap();
        }
        let live = wb.cell(s, a("H1"));
        let mut wb = power_cut(wb, &fault);

        let m = wb.metrics_snapshot();
        let (diffed, reads) = (
            m.counter("bind_cells_diffed").unwrap(),
            m.counter("table_page_reads").unwrap(),
        );
        let width = 4; // three ROM columns and one COM column
        assert!(
            diffed <= 2 * stmts as u64 * width,
            "{diffed} cells written for {stmts} statements"
        );
        assert!(
            reads <= 8 * stmts as u64,
            "{reads} pages read for {stmts} statements"
        );
        let rows = wb.query("SELECT k, v, s FROM t").unwrap().1;
        assert_eq!(rows.len(), keys.len());
        for (r, row) in rows.iter().enumerate() {
            for (c, v) in row.iter().enumerate() {
                assert_eq!(&wb.cell(s, CellAddr::new(r as u32, c as u32)), v);
            }
            assert_eq!(&wb.cell(s, CellAddr::new(r as u32, 5)), &row[1]);
        }
        let below = rows.len() as u32;
        for c in [0, 1, 2, 5] {
            assert_eq!(wb.cell(s, CellAddr::new(below, c)), Value::Empty);
        }
        assert_eq!(wb.cell(s, a("H1")), live);
        wb.recalculate();
        assert_eq!(wb.cell(s, a("H1")), live, "against a full pass");
    });
}
