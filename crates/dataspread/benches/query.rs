//! Experiment C-join: the streaming executor's hash operators vs. their
//! reference arms — equi-join and GROUP BY at 1k/10k/50k rows.
//!
//! Run with `cargo bench -p dataspread --bench query`. Each arm reports
//! ns/iter plus derived rows/sec (input rows of the larger side over the
//! per-iteration time) and the blocks touched per iteration (`TableStats`
//! page reads + writes, summed over the tables); the summary prints the
//! nested-loop/hash ratio. The nested-loop join arm is
//! skipped at 50k rows — 2.5·10⁹ row comparisons is the point the hash
//! join exists to avoid.
//!
//! A final durability section saves the 10k workbook into a real store
//! directory and reports *measured* I/O (`PageFileStats`: frames and bytes
//! physically written, fsyncs) next to the logical page writes — the
//! boundary `docs/STORAGE.md` makes real.

use std::time::Duration;

use dataspread::{ExecOptions, Workbook};
use dataspread_testkit::{bench, black_box, report_json, Rng};
use dataspread_types::Value;

const TARGET: Duration = Duration::from_millis(300);
/// Past this size the nested-loop arm is too slow to even measure once.
const NESTED_LIMIT: usize = 10_000;

const JOIN: &str = "SELECT COUNT(*) FROM l JOIN r ON l.k = r.k";
const GROUP: &str = "SELECT k, COUNT(*), SUM(v) FROM l GROUP BY k";

/// Two n-row tables with ~n/10 distinct integer keys, so the join fans out
/// roughly 10× per probe and GROUP BY forms real groups.
fn workbook(n: usize) -> Workbook {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE l (k INT, v INT);
         CREATE TABLE r (k INT, w INT);",
    )
    .unwrap();
    let keys = (n / 10).max(1) as u64;
    let mut rng = Rng::new(0xC0_1A);
    for table in ["l", "r"] {
        let mut t = wb.catalog_mut().get_mut(table).unwrap();
        for _ in 0..n {
            t.insert(vec![
                Value::Int(rng.below(keys) as i64),
                Value::Int(rng.below(100) as i64),
            ])
            .unwrap();
        }
    }
    wb
}

/// Blocks touched so far: logical page reads + writes over every table.
fn blocks(wb: &Workbook) -> u64 {
    wb.catalog()
        .table_names()
        .iter()
        .map(|name| {
            let t = wb.catalog().get(name).unwrap();
            t.stats().page_reads() + t.stats().page_writes()
        })
        .sum()
}

fn arm(wb: &mut Workbook, label: &str, sql: &str, n: usize, options: ExecOptions) -> f64 {
    wb.set_exec_options(options);
    let before = blocks(wb);
    let m = bench(&format!("{label}/{n}"), TARGET, || {
        black_box(wb.query(sql).unwrap());
    });
    let after = blocks(wb);
    let ns = m.per_iter_ns();
    println!(
        "    {label}/{n}: {:.0} rows/sec, {:.0} blocks touched/iter",
        n as f64 / (ns * 1e-9),
        (after - before) as f64 / m.iters as f64
    );
    report_json(&format!("{label}/{n}"), n, &m);
    ns
}

/// Experiment C-order: a 3-table join chain with skewed cardinalities.
///
/// `big1 ⋈ big2` on a 100-distinct key explodes to ~n²/100 rows; the 50-row
/// `small` table joins `big1` on a near-unique key and cuts the result to a
/// few hundred. Syntactic order pays for the explosion; the cost-based
/// order joins `small` first. The ratio is the headline BENCH_JSON number.
fn skew_join(n: usize) {
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE big1 (j INT, a INT);
         CREATE TABLE big2 (j INT, b INT);
         CREATE TABLE small (k INT, c INT);",
    )
    .unwrap();
    let mut rng = Rng::new(0x0000_DE12);
    {
        let mut t = wb.catalog_mut().get_mut("big1").unwrap();
        for i in 0..n {
            t.insert(vec![
                Value::Int(rng.below(100) as i64),
                Value::Int(i as i64),
            ])
            .unwrap();
        }
    }
    {
        let mut t = wb.catalog_mut().get_mut("big2").unwrap();
        for _ in 0..n {
            t.insert(vec![
                Value::Int(rng.below(100) as i64),
                Value::Int(rng.below(1000) as i64),
            ])
            .unwrap();
        }
    }
    {
        let mut t = wb.catalog_mut().get_mut("small").unwrap();
        for _ in 0..50 {
            t.insert(vec![
                Value::Int(rng.below(n as u64) as i64),
                Value::Int(rng.below(10) as i64),
            ])
            .unwrap();
        }
    }
    wb.execute("ANALYZE").unwrap();

    const SQL: &str = "SELECT COUNT(*) \
         FROM big1 JOIN big2 ON big1.j = big2.j \
         JOIN small ON big1.a = small.k";
    let syntactic = ExecOptions {
        cost_based: false,
        ..ExecOptions::default()
    };
    let s = arm(&mut wb, "join3/syntactic", SQL, n, syntactic);
    let c = arm(&mut wb, "join3/cost_based", SQL, n, ExecOptions::default());
    let ratio = s / c;
    println!("  -> join3@{n}: syntactic/cost_based = {ratio:.1}x");
    println!(
        "BENCH_JSON {{\"bench\":\"join3/order_ratio\",\"rows\":{n},\"ns_per_iter\":{c:.1},\"iters\":1,\"syntactic_over_cost\":{ratio:.2}}}"
    );
}

/// Durability: checkpoint the workbook into a real store and report the
/// physically written frames/bytes next to the logical page writes.
fn durability_report(wb: &mut Workbook, n: usize) {
    let dir = std::env::temp_dir().join(format!("dsp-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let m = bench(&format!("durability/checkpoint/{n}"), TARGET, || {
        wb.save(&dir).unwrap();
    });
    let page_writes = wb.catalog().get("l").unwrap().stats().page_writes();
    // The freshly attached store's counters cover exactly the last save.
    let store = dataspread::relstore::PageFile::open(dir.join("data.dsp")).unwrap();
    println!(
        "    real I/O per checkpoint: {} frames on disk ({} KiB page file), logical page writes so far: {}",
        store.frame_count(),
        std::fs::metadata(dir.join("data.dsp")).map(|md| md.len() / 1024).unwrap_or(0),
        page_writes,
    );
    println!(
        "    checkpoint: {:.2} ms/iter over {} iters",
        m.per_iter_ns() / 1e6,
        m.iters
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    println!("C-join: equi-join + GROUP BY, hash vs reference arms");
    let hash = ExecOptions::default();
    let nested = ExecOptions {
        hash_join: false,
        hash_aggregation: false,
        predicate_pushdown: false,
        cost_based: false,
    };
    for n in [1_000usize, 10_000, 50_000] {
        let mut wb = workbook(n);

        let h = arm(&mut wb, "join/hash", JOIN, n, hash);
        if n <= NESTED_LIMIT {
            let nl = arm(&mut wb, "join/nested_loop", JOIN, n, nested);
            println!("  -> join@{n}: nested/hash = {:.1}x", nl / h);
        } else {
            println!("  -> join@{n}: nested-loop arm skipped (quadratic)");
        }

        let ha = arm(&mut wb, "group_by/hash", GROUP, n, hash);
        let la = arm(&mut wb, "group_by/linear", GROUP, n, nested);
        println!("  -> group_by@{n}: linear/hash = {:.1}x", la / ha);

        if n == 10_000 {
            durability_report(&mut wb, n);
            // Registry dump for the reference size: executor row counters
            // and the I/O the durability section just paid.
            println!("METRICS_JSON {}", wb.metrics_json());
        }
    }

    println!("C-order: 3-table skewed chain, syntactic vs cost-based join order");
    skew_join(10_000);
}
