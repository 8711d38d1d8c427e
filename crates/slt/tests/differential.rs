//! Differential checks: every query runs on the engine and on the naive
//! evaluator (`dataspread_slt::naive`), and both must return the same
//! columns and the same multiset of rows. The naive side shares the parser
//! and the scalar expression semantics with the engine and nothing else —
//! no planner, join, aggregate or output code — so a planner bug cannot
//! hide behind a re-recorded golden.
//!
//! The queries come from the whole golden corpus, plus property suites over
//! random mixed-type (NULL/Int/Float) keys that drive the hash join, hash
//! GROUP BY and hash DISTINCT paths, derived tables, and point statements
//! on primary keys that take the key probe.

use std::cmp::Ordering;
use std::path::PathBuf;

use dataspread::{BindModel, Workbook};
use dataspread_slt::{naive, parse, RecordKind};
use dataspread_testkit::{cases, Rng};
use dataspread_types::{CellAddr, Value};

/// Multiset normalization: a total row order. `Value::total_cmp` treats
/// `Int(2)` and `Float(2.0)` as equal, so ties break on the debug string
/// to keep the sort total.
fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort_by(|a, b| {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                x.total_cmp(y)
                    .then_with(|| format!("{x:?}").cmp(&format!("{y:?}")))
            })
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    rows
}

/// Run `sql` on the engine and on the naive evaluator and assert they
/// agree. `at` locates the query in failures.
fn check(wb: &mut Workbook, sql: &str, at: &str) {
    let (cols, rows) = wb
        .query(sql)
        .unwrap_or_else(|e| panic!("{at}: engine failed: {e}\n  {sql}"));
    let (naive_cols, naive_rows) =
        naive::query(wb, sql).unwrap_or_else(|e| panic!("{at}: naive failed: {e}\n  {sql}"));
    assert_eq!(cols, naive_cols, "{at}: column names differ\n  {sql}");
    assert_eq!(
        sorted(rows),
        sorted(naive_rows),
        "{at}: engine and naive evaluator disagree\n  {sql}"
    );
}

#[test]
fn golden_corpus_plans_agree() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "test"))
        .collect();
    files.sort();

    let mut checked = 0usize;
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        let corpus = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut wb = Workbook::new();
        for rec in &corpus.records {
            match &rec.kind {
                // Replay setup exactly as the golden runner does; records
                // that are *expected* to fail just fail here too.
                RecordKind::Statement { sql, .. } => {
                    let _ = wb.execute(sql);
                }
                RecordKind::Cell { a1, input } => {
                    let sheet = wb.current_sheet();
                    let addr = CellAddr::parse_a1(a1).unwrap();
                    let _ = wb.set_input(sheet, addr, input);
                }
                RecordKind::Bind { model, a1, table } => {
                    let m = match model.as_str() {
                        "tom" => BindModel::Tom,
                        _ => BindModel::Rom,
                    };
                    let sheet = wb.current_sheet();
                    let addr = CellAddr::parse_a1(a1).unwrap();
                    let _ = wb.bind_table(sheet, addr, table, m);
                }
                RecordKind::Explain { .. } | RecordKind::Analyze { .. } => {}
                RecordKind::Query { sql, .. } => {
                    check(&mut wb, sql, &format!("{}:{}", path.display(), rec.line));
                    checked += 1;
                }
            }
        }
    }
    assert!(
        checked >= 300,
        "only {checked} SELECTs differentially checked"
    );
    println!("differential: {checked} corpus SELECTs agree with the naive evaluator");
}

// ---- property suites -----------------------------------------------------

/// Random mixed-type join key: NULL, Int, or Float (often integral, so
/// Int/Float cross-matches actually occur).
fn rand_key(rng: &mut Rng) -> Value {
    match rng.weighted(&[2, 4, 4]) {
        0 => Value::Empty,
        1 => Value::Int(rng.i64().rem_euclid(12)),
        _ => {
            let base = rng.i64().rem_euclid(12) as f64;
            if rng.bool() {
                Value::Float(base)
            } else {
                Value::Float(base + 0.5)
            }
        }
    }
}

fn fill(wb: &mut Workbook, table: &str, rng: &mut Rng, rows: usize) {
    let mut t = wb.catalog_mut().get_mut(table).unwrap();
    for _ in 0..rows {
        let k = rand_key(rng);
        let v = Value::Int(rng.i64().rem_euclid(6));
        t.insert(vec![k, v]).unwrap();
    }
}

#[test]
fn property_hash_join_equals_nested_loop() {
    cases(30, 0x0001_01A0_A5A5, |rng| {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE l (k ANY, v INT);
             CREATE TABLE r (k ANY, w INT);",
        )
        .unwrap();
        let nl = rng.usize_in(0, 40);
        let nr = rng.usize_in(0, 40);
        fill(&mut wb, "l", rng, nl);
        fill(&mut wb, "r", rng, nr);
        for sql in [
            "SELECT * FROM l JOIN r ON l.k = r.k",
            "SELECT * FROM l LEFT JOIN r ON l.k = r.k",
            "SELECT * FROM l JOIN r ON l.k = r.k AND r.w > 2",
            "SELECT * FROM l LEFT JOIN r ON l.k = r.k AND l.v < 4",
            "SELECT * FROM l JOIN r ON l.k = r.k WHERE l.v > 0 AND r.w < 5",
            "SELECT l.v, r.w FROM l LEFT JOIN r ON l.k = r.k WHERE r.k IS NULL",
            "SELECT * FROM l NATURAL JOIN r",
            "SELECT * FROM l CROSS JOIN r WHERE l.v = r.w",
        ] {
            check(&mut wb, sql, "join");
        }
    });
}

#[test]
fn property_hash_aggregation_equals_linear() {
    cases(30, 0xA6_6E, |rng| {
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE t (k ANY, v INT)").unwrap();
        let n = rng.usize_in(0, 60);
        fill(&mut wb, "t", rng, n);
        for sql in [
            "SELECT k, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM t GROUP BY k",
            "SELECT k, COUNT(DISTINCT v), SUM(DISTINCT v) FROM t GROUP BY k",
            "SELECT COUNT(*), SUM(v) FROM t",
            "SELECT k FROM t GROUP BY k HAVING COUNT(*) > 1",
        ] {
            check(&mut wb, sql, "aggregate");
        }
    });
}

#[test]
fn property_hash_distinct_matches_linear_dedup() {
    cases(30, 0xD15_71C7, |rng| {
        let mut wb = Workbook::new();
        wb.execute("CREATE TABLE t (k ANY, v INT)").unwrap();
        let n = rng.usize_in(0, 60);
        fill(&mut wb, "t", rng, n);
        check(&mut wb, "SELECT DISTINCT k, v FROM t", "distinct");
        check(&mut wb, "SELECT DISTINCT k FROM t", "distinct");
    });
}

/// Cases for the derived-table property: `DSP_STRESS_ITERS` (default 30),
/// the knob CI's stress job raises.
fn iters() -> u64 {
    std::env::var("DSP_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(30)
}

#[test]
fn property_derived_tables_match_naive() {
    // `FROM` subqueries on both sides of inner and LEFT joins — grouped,
    // DISTINCT, ORDER BY … LIMIT, nested — over random table sizes, so the
    // sub-plan estimates put either input on the build side. The naive
    // evaluator runs each subquery with no planner code. `ORDER BY … LIMIT`
    // and `DISTINCT` read one table each, whose scan order both sides share,
    // so ties keep the same rows. `EXPLAIN` must run none of them.
    let queries = [
        "SELECT * FROM (SELECT k, SUM(v) AS s FROM l GROUP BY k) a JOIN r ON a.k = r.k",
        "SELECT * FROM l JOIN (SELECT DISTINCT k FROM r) b ON l.k = b.k",
        "SELECT * FROM (SELECT k, v FROM l ORDER BY v DESC, k LIMIT 5) a LEFT JOIN r ON a.k = r.k",
        "SELECT * FROM l LEFT JOIN (SELECT k, COUNT(*) AS n FROM r WHERE w > 1 GROUP BY k) b \
         ON l.k = b.k",
        "SELECT a.k, b.n FROM (SELECT k FROM l WHERE v < 4) a \
         JOIN (SELECT k, COUNT(*) AS n FROM r GROUP BY k) b ON a.k = b.k WHERE b.n > 1",
        "SELECT * FROM (SELECT k, w FROM r ORDER BY w, k LIMIT 3) a \
         LEFT JOIN (SELECT DISTINCT k, v FROM l) b ON a.k = b.k AND b.v > 2",
        "SELECT n, COUNT(*) FROM (SELECT k, COUNT(*) AS n FROM (SELECT k FROM l WHERE v > 0) x \
         GROUP BY k) y GROUP BY n",
        "SELECT * FROM (SELECT * FROM (SELECT k, v FROM l) x WHERE x.v > 2) y JOIN r ON y.k = r.k",
        "SELECT t.s, r.w FROM (SELECT SUM(v) AS s FROM l) t CROSS JOIN r WHERE r.w = t.s",
    ];
    cases(iters(), 0xDE_41BE_D7AB, |rng| {
        let mut wb = Workbook::new();
        wb.execute_script(
            "CREATE TABLE l (k ANY, v INT);
             CREATE TABLE r (k ANY, w INT);",
        )
        .unwrap();
        let nl = rng.usize_in(0, 40);
        let nr = rng.usize_in(0, 40);
        fill(&mut wb, "l", rng, nl);
        fill(&mut wb, "r", rng, nr);
        let counters = |wb: &Workbook| {
            let m = wb.metrics_snapshot();
            let c = |name: &str| m.counter(name).unwrap();
            (c("exec_queries"), c("exec_rows_scanned"))
        };
        for sql in queries {
            check(&mut wb, sql, "derived");
            let before = counters(&wb);
            wb.query(&format!("EXPLAIN {sql}")).unwrap();
            assert_eq!(counters(&wb), before, "EXPLAIN executed\n  {sql}");
        }
    });
}

/// One key literal for the key-probe property: an INT key near 2^53 (where
/// a float round trip merges neighbours), a small or negative one, or a
/// TEXT key from a pool of case variants.
fn rand_key_literal(rng: &mut Rng, text: bool) -> String {
    if text {
        const NAMES: [&str; 8] = ["ann", "Ann", "ANN", "aNn", "bob", "Bob", "b", "B"];
        format!("'{}'", NAMES[rng.index(NAMES.len())])
    } else if rng.bool() {
        (9_007_199_254_740_990 + rng.below(6) as i64).to_string()
    } else {
        (rng.below(9) as i64 - 4).to_string()
    }
}

#[test]
fn property_key_probes_match_naive() {
    // Point statements on INT and TEXT primary keys take the key probe.
    // SELECTs must match the naive evaluator, which always scans (L6);
    // UPDATE and DELETE must match a twin workbook whose `WHERE` hides the
    // key behind `id + 0` / `id || ''`, which no probe can use, on the
    // affected count, on failure, and on the final table.
    cases(iters(), 0x004B_E79A_0BE5, |rng| {
        let text = rng.bool();
        let (ty, hide) = if text {
            ("TEXT", "id || ''")
        } else {
            ("INT", "id + 0")
        };
        let ddl = format!("CREATE TABLE t (id {ty} PRIMARY KEY, v INT)");
        let mut wb = Workbook::new();
        let mut twin = Workbook::new();
        wb.execute(&ddl).unwrap();
        twin.execute(&ddl).unwrap();
        for i in 0..rng.usize_in(0, 12) {
            let sql = format!(
                "INSERT INTO t VALUES ({}, {i})",
                rand_key_literal(rng, text)
            );
            assert_eq!(
                wb.execute(&sql).is_ok(),
                twin.execute(&sql).is_ok(),
                "{sql}"
            );
        }
        let scanned = |wb: &Workbook| (wb.metrics_snapshot().counter("exec_rows_scanned")).unwrap();
        for _ in 0..12 {
            let k = rand_key_literal(rng, text);
            // A residual conjunct the probed row must still pass.
            let residual = match rng.below(3) {
                0 => format!(" AND v > {}", rng.below(8)),
                _ => String::new(),
            };
            match rng.below(6) {
                0 | 1 => {
                    let point = format!("SELECT * FROM t WHERE id = {k}");
                    let before = scanned(&wb);
                    wb.query(&point).unwrap();
                    assert!(scanned(&wb) - before <= 1, "id = {k} did not probe");
                    check(&mut wb, &point, "probe");
                    check(
                        &mut wb,
                        &format!("SELECT v FROM t WHERE {k} = id AND v > {}", rng.below(8)),
                        "probe with residual",
                    );
                    if !text {
                        // Another kind of literal scans; numeric equality
                        // then merges neighbours past 2^53.
                        check(
                            &mut wb,
                            &format!("SELECT * FROM t WHERE id = {k}.0"),
                            "scan",
                        );
                    }
                }
                2 => {
                    let set = format!("UPDATE t SET v = v + 1 WHERE id = {k}{residual}");
                    let hidden = format!("UPDATE t SET v = v + 1 WHERE {hide} = {k}{residual}");
                    same_outcome(&mut wb, &mut twin, &set, &hidden);
                }
                3 => {
                    // Key-changing: may collide with another row's key.
                    let to = rand_key_literal(rng, text);
                    let set = format!("UPDATE t SET id = {to} WHERE id = {k}{residual}");
                    let hidden = format!("UPDATE t SET id = {to} WHERE {hide} = {k}{residual}");
                    same_outcome(&mut wb, &mut twin, &set, &hidden);
                }
                _ => {
                    let del = format!("DELETE FROM t WHERE id = {k}{residual}");
                    let hidden = format!("DELETE FROM t WHERE {hide} = {k}{residual}");
                    same_outcome(&mut wb, &mut twin, &del, &hidden);
                }
            }
        }
    });
}

/// Run `probed` on `wb` and `hidden` on `twin`: both fail or both report
/// the same affected count, and the tables end equal.
fn same_outcome(wb: &mut Workbook, twin: &mut Workbook, probed: &str, hidden: &str) {
    let got = wb.execute(probed).map(|r| r.affected());
    let want = twin.execute(hidden).map(|r| r.affected());
    match (&got, &want) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "affected rows differ\n  {probed}\n  {hidden}"),
        (Err(_), Err(_)) => {}
        _ => panic!("outcomes differ: {got:?} vs {want:?}\n  {probed}\n  {hidden}"),
    }
    let all = "SELECT * FROM t";
    assert_eq!(
        sorted(wb.query(all).unwrap().1),
        sorted(twin.query(all).unwrap().1),
        "tables diverged after\n  {probed}"
    );
}
