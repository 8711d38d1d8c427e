//! End-to-end observability: EXPLAIN ANALYZE row-count fidelity, the
//! workbook metrics registry, WAL commit accounting, and the span tracer.
//! Specified in `docs/OBSERVABILITY.md`.

use dataspread::Workbook;
use dataspread_types::Value;

fn seeded() -> Workbook {
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE ev (k INT, grp INT, amt INT)")
        .unwrap();
    wb.execute("CREATE TABLE grp (g INT, name TEXT)").unwrap();
    wb.execute(
        "INSERT INTO ev VALUES (1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 2, 40), \
         (5, 3, 50), (6, 3, 60), (7, 1, 70), (8, 2, 80)",
    )
    .unwrap();
    wb.execute("INSERT INTO grp VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        .unwrap();
    wb
}

/// The plan lines of one `EXPLAIN ANALYZE`.
fn analyze_lines(wb: &mut Workbook, sql: &str) -> Vec<String> {
    let (_, rows) = wb.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    rows.iter()
        .map(|r| match &r[0] {
            Value::Text(s) => s.clone(),
            other => panic!("plan line is not text: {other:?}"),
        })
        .collect()
}

/// Parse `actual rows=N` out of an annotated plan line.
fn actual_rows(line: &str) -> u64 {
    let at = line
        .find("actual rows=")
        .unwrap_or_else(|| panic!("no annotation in {line:?}"));
    line[at + "actual rows=".len()..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn explain_analyze_actual_rows_match_select() {
    // The statement-level annotation on the first plan line must equal the
    // row count the same SELECT returns — across scans, filters, joins,
    // aggregates, DISTINCT, and LIMIT.
    let corpus = [
        "SELECT k FROM ev",
        "SELECT k FROM ev WHERE grp = 2",
        "SELECT k FROM ev WHERE grp = 99",
        "SELECT ev.k, grp.name FROM ev JOIN grp ON ev.grp = grp.g",
        "SELECT ev.k FROM ev JOIN grp ON ev.grp = grp.g WHERE grp.name = 'b'",
        "SELECT grp, COUNT(*) FROM ev GROUP BY grp",
        "SELECT grp, SUM(amt) FROM ev GROUP BY grp HAVING SUM(amt) > 100",
        "SELECT DISTINCT grp FROM ev",
        "SELECT k FROM ev ORDER BY amt DESC LIMIT 3",
        "SELECT k FROM ev LIMIT 2 OFFSET 5",
        "SELECT d.grp, d.s FROM (SELECT grp, SUM(amt) AS s FROM ev GROUP BY grp) d WHERE d.s > 60",
        "SELECT d.k FROM (SELECT k, amt FROM ev ORDER BY amt DESC LIMIT 3) d WHERE d.amt < 80",
    ];
    let mut wb = seeded();
    for sql in corpus {
        let (_, rows) = wb.query(sql).unwrap();
        let lines = analyze_lines(&mut wb, sql);
        assert_eq!(
            actual_rows(&lines[0]),
            rows.len() as u64,
            "statement annotation vs SELECT for {sql}\n{}",
            lines.join("\n")
        );
        // Every annotated line carries a timing.
        for l in lines.iter().filter(|l| l.contains("actual rows=")) {
            assert!(l.contains("time="), "missing timing in {l:?}");
        }
    }
}

#[test]
fn explain_analyze_annotates_every_plan_node() {
    let mut wb = seeded();
    let lines = analyze_lines(
        &mut wb,
        "SELECT ev.k FROM ev JOIN grp ON ev.grp = grp.g WHERE amt > 20",
    );
    // Root + join + both scan nodes are annotated. The stats-driven planner
    // puts grp (3 rows) on the probe side and the filtered ev scan (6 of 8
    // rows pass amt > 20) on the build side; each scan's actual is its
    // post-pushdown output, which is exactly the join input size.
    let annotated = lines.iter().filter(|l| l.contains("actual rows=")).count();
    assert_eq!(annotated, 4, "{}", lines.join("\n"));
    let scans: Vec<u64> = lines
        .iter()
        .filter(|l| l.trim_start().starts_with("scan"))
        .map(|l| actual_rows(l))
        .collect();
    assert_eq!(scans, vec![3, 6], "probe then build input sizes");

    // A grouped derived table joined to `grp`: the derived node and the
    // scan inside its subquery are annotated too, in plan order; the
    // subquery's shaping lines (`project:`, `aggregate:`) are not.
    let lines = analyze_lines(
        &mut wb,
        "SELECT d.grp, grp.name FROM (SELECT grp, COUNT(*) AS n FROM ev GROUP BY grp) d \
         JOIN grp ON d.grp = grp.g",
    );
    let all = lines.join("\n");
    let annotated = lines.iter().filter(|l| l.contains("actual rows=")).count();
    assert_eq!(annotated, 5, "{all}");
    let derived = (lines
        .iter()
        .position(|l| l.trim_start().starts_with("derived")))
    .unwrap_or_else(|| panic!("no derived line\n{all}"));
    assert_eq!(actual_rows(&lines[derived]), 3, "{all}");
    for shaping in &lines[derived + 1..derived + 3] {
        assert!(!shaping.contains("actual rows="), "{all}");
    }
    let inner_scan = &lines[derived + 3];
    assert!(inner_scan.trim_start().starts_with("scan ev"), "{all}");
    assert_eq!(actual_rows(inner_scan), 8, "{all}");
}

#[test]
fn explain_never_executes() {
    let mut wb = seeded();
    let counters = |wb: &Workbook| {
        let m = wb.metrics_snapshot();
        let c = |n: &str| m.counter(n).unwrap();
        (c("exec_queries"), c("exec_rows_scanned"))
    };
    let one = "SELECT d.s FROM (SELECT grp, SUM(amt) AS s FROM ev GROUP BY grp) d WHERE d.s > 50";
    let two = "SELECT a.grp FROM (SELECT grp FROM ev) a JOIN (SELECT g FROM grp) b ON a.grp = b.g";
    for sql in [one, two] {
        let before = counters(&wb);
        let (_, plan) = wb.query(&format!("EXPLAIN {sql}")).unwrap();
        assert!(plan.len() > 2, "{plan:?}");
        assert_eq!(counters(&wb), before, "EXPLAIN ran something: {sql}");
    }
    // The same SELECT runs the outer query and its subquery.
    let before = counters(&wb);
    wb.query(one).unwrap();
    let after = counters(&wb);
    assert_eq!((after.0 - before.0, after.1 - before.1), (2, 8));

    // A subquery that would fail still plans; running it still fails.
    let boom = "SELECT x FROM (SELECT 1/0 AS x) t";
    let (_, plan) = wb.query(&format!("EXPLAIN {boom}")).unwrap();
    assert_eq!(plan.len(), 4, "{plan:?}");
    let err = wb.query(boom).unwrap_err();
    assert!(err.to_string().contains("division by zero"), "{err}");
}

#[test]
fn explain_analyze_rejects_non_select() {
    let mut wb = seeded();
    let err = wb.execute("EXPLAIN ANALYZE DELETE FROM ev").unwrap_err();
    assert!(err.to_string().contains("EXPLAIN ANALYZE"), "{err}");
}

#[test]
fn executor_counters_track_scans_and_outputs() {
    let mut wb = seeded();
    let before = wb.metrics_snapshot();
    wb.query("SELECT k FROM ev WHERE grp = 1").unwrap();
    let after = wb.metrics_snapshot();
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
    assert_eq!(delta("exec_queries"), 1);
    assert_eq!(delta("exec_rows_scanned"), 8, "full scan of ev");
    assert_eq!(delta("exec_rows_output"), 3, "three grp=1 rows");

    let before = wb.metrics_snapshot();
    wb.query("SELECT ev.k FROM ev JOIN grp ON ev.grp = grp.g")
        .unwrap();
    let after = wb.metrics_snapshot();
    let delta = |name: &str| after.counter(name).unwrap() - before.counter(name).unwrap();
    assert_eq!(delta("exec_join_probe_rows"), 8, "left input");
    assert_eq!(delta("exec_join_build_rows"), 3, "right input");
}

#[test]
fn point_select_on_the_primary_key_reads_one_row() {
    let mut wb = seeded();
    wb.execute("CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)")
        .unwrap();
    wb.execute("INSERT INTO kv VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e')")
        .unwrap();
    let scanned = |wb: &mut Workbook, sql: &str| {
        let before = wb.metrics_snapshot().counter("exec_rows_scanned").unwrap();
        wb.query(sql).unwrap();
        wb.metrics_snapshot().counter("exec_rows_scanned").unwrap() - before
    };
    assert_eq!(
        scanned(&mut wb, "SELECT v FROM kv WHERE id = 4"),
        1,
        "key probe"
    );
    assert_eq!(
        scanned(&mut wb, "SELECT v FROM kv WHERE id = 9"),
        0,
        "probe miss"
    );
    assert_eq!(
        scanned(&mut wb, "SELECT v FROM kv WHERE id = 4.0"),
        5,
        "float literal scans"
    );
    assert_eq!(
        scanned(&mut wb, "SELECT v FROM kv WHERE id < 2"),
        5,
        "range scans"
    );
}

#[test]
fn calc_and_bind_counters_feed_the_registry() {
    let mut wb = seeded();
    let s = wb.current_sheet();
    let a = |t: &str| dataspread_types::CellAddr::parse_a1(t).unwrap();
    wb.set_input(s, a("A1"), "2").unwrap();
    wb.set_input(s, a("B1"), "=A1*2").unwrap();
    wb.set_input(s, a("C1"), "=B1+1").unwrap();
    let snap = wb.metrics_snapshot();
    assert!(snap.counter("calc_passes").unwrap() >= 2);
    assert!(snap.counter("calc_cells_dirtied").unwrap() >= 3);
    assert!(snap.counter("calc_cells_recomputed").unwrap() >= 2);
    // B1 -> C1 is a two-level chain: the depth gauge saw it.
    wb.set_input(s, a("A1"), "5").unwrap();
    let text = wb.metrics_text();
    assert!(
        text.contains("calc_topo_depth 2"),
        "chain depth gauge:\n{text}"
    );
    // A binding refresh diffs cells into the sheet.
    let before = wb.metrics_snapshot().counter("bind_cells_diffed").unwrap();
    wb.bind_table(s, a("E1"), "grp", dataspread::BindModel::Tom)
        .unwrap();
    let after = wb.metrics_snapshot();
    assert!(after.counter("bind_refreshes").unwrap() >= 1);
    // Header (2 cells) + 3 rows x 2 cols = at least 8 cells rendered.
    assert!(after.counter("bind_cells_diffed").unwrap() - before >= 8);
}

#[test]
fn wal_commits_count_once_per_autocommitted_statement() {
    let dir = std::env::temp_dir().join(format!("dsp-obs-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wb = seeded();
    wb.save(&dir).unwrap();
    let base = wb.metrics_snapshot();
    wb.execute("INSERT INTO ev VALUES (9, 9, 90)").unwrap();
    wb.execute("UPDATE ev SET amt = 0 WHERE k = 9").unwrap();
    wb.execute("DELETE FROM ev WHERE k = 9").unwrap();
    let snap = wb.metrics_snapshot();
    // Each statement auto-commits exactly once — the explicit-commit and
    // autocommit paths are disjoint, so nothing double-counts.
    assert_eq!(
        snap.counter("wal_commits").unwrap() - base.counter("wal_commits").unwrap(),
        3
    );
    // Each autocommit frames its op as BEGIN + op + COMMIT: three records.
    assert_eq!(
        snap.counter("wal_appends").unwrap() - base.counter("wal_appends").unwrap(),
        9
    );
    assert!(snap.counter("wal_fsyncs").unwrap() >= base.counter("wal_fsyncs").unwrap());
    assert_eq!(snap.counter("wal_poison_flips"), Some(0));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn vfs_and_pool_metrics_appear_after_persistence() {
    let dir = std::env::temp_dir().join(format!("dsp-obs-vfs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut wb = seeded();
    wb.save(&dir).unwrap();
    let snap = wb.metrics_snapshot();
    assert!(snap.counter("vfs_file_writes").unwrap() > 0, "save wrote");
    assert!(snap.counter("vfs_write_bytes").unwrap() > 0);
    assert!(snap.counter("vfs_fsyncs").unwrap() > 0, "save synced");
    drop(wb);

    // Reopen: recovery I/O is metered too (the meter is adopted into the
    // fresh workbook's registry), and page-touch counters aggregate per
    // table. Queries scan plan-time snapshots and bypass them; DML is the
    // path that touches pages.
    let mut wb = Workbook::open(&dir).unwrap();
    let before = wb.metrics_snapshot();
    wb.execute("SELECT * FROM ev").unwrap();
    let queried = wb.metrics_snapshot();
    wb.execute("INSERT INTO ev VALUES (100, 1, 1)").unwrap();
    let snap = wb.metrics_snapshot();
    assert!(snap.counter("vfs_file_reads").unwrap() > 0, "open read");
    assert!(snap.counter("vfs_read_bytes").unwrap() > 0);
    let touches = |s: &dataspread::obs::Snapshot| {
        s.counter("table_page_reads").unwrap() + s.counter("table_page_writes").unwrap()
    };
    assert_eq!(touches(&queried), touches(&before), "SELECT bypasses them");
    assert!(
        snap.counter("table_page_writes").unwrap() > queried.counter("table_page_writes").unwrap(),
        "DML wrote a page"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn exported_formats_cover_the_catalog() {
    let mut wb = seeded();
    wb.query("SELECT k FROM ev").unwrap();
    let text = wb.metrics_text();
    let json = wb.metrics_json();
    // Every documented metric is present in both exports, always — a
    // scrape must not gain or lose series depending on engine activity.
    for spec in dataspread::obs::METRICS {
        assert!(
            text.contains(&format!("# TYPE {} ", spec.name)),
            "{} missing from prometheus text",
            spec.name
        );
        assert!(
            json.contains(&format!("\"{}\"", spec.name)),
            "{} missing from json",
            spec.name
        );
    }
    assert!(text.contains("exec_queries 1"), "{text}");
}

#[test]
fn spans_record_statement_execution() {
    let mut wb = seeded();
    wb.query("SELECT k FROM ev").unwrap();
    wb.query("SELECT COUNT(*) FROM grp").unwrap();
    let tracer = wb.tracer();
    assert!(tracer.recorded() >= 2);
    let recent = tracer.recent();
    assert!(recent.iter().any(|s| s.name == "sql_execute"), "{recent:?}");
    let snap = wb.metrics_snapshot();
    assert_eq!(snap.counter("spans_recorded"), Some(tracer.recorded()));
}
