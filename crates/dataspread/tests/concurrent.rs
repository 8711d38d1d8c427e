//! Concurrent-correctness property suite: K readers + L writers over
//! disjoint and overlapping shards, snapshot isolation (committed prefixes,
//! no torn rows), group-commit durability, and crash recovery of
//! group-committed batches.
//!
//! `DSP_STRESS_ITERS` scales the per-writer operation count (default 60;
//! CI's stress job raises it).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use dataspread::{SharedWorkbook, Workbook};
use dataspread_relstore::snapshot::WAL_FILE;
use dataspread_types::Value;

fn iters() -> i64 {
    std::env::var("DSP_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(60)
}

fn tmp_dir(name: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("dsp-conc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Writer `w`'s rows are `(w*1_000_000 + seq, 10*(w*1_000_000 + seq))`,
/// inserted in `seq` order. In any committed-prefix-consistent view the
/// seqs observed for each writer form exactly `0..k` for some `k`.
fn check_committed_prefix(rows: &[(i64, i64)], writers: usize) {
    let mut per_writer: Vec<Vec<i64>> = vec![Vec::new(); writers];
    for &(id, v) in rows {
        assert_eq!(v, id * 10, "torn row: id {id} paired with v {v}");
        let w = (id / 1_000_000) as usize;
        per_writer[w].push(id % 1_000_000);
    }
    for (w, mut seqs) in per_writer.into_iter().enumerate() {
        seqs.sort_unstable();
        for (i, s) in seqs.iter().enumerate() {
            assert_eq!(
                *s, i as i64,
                "writer {w}: gap in committed prefix (saw {s} at position {i})"
            );
        }
    }
}

fn scan_ids(snap: &dataspread_relstore::TableSnapshot) -> Vec<(i64, i64)> {
    snap.scan()
        .unwrap()
        .into_iter()
        .map(|(_, row)| match (&row[0], &row[1]) {
            (Value::Int(a), Value::Int(b)) => (*a, *b),
            other => panic!("non-int row {other:?}"),
        })
        .collect()
}

/// L writers hammer ONE table (overlapping shard) while K readers snapshot
/// it. Every snapshot must be a committed prefix per writer with no torn
/// rows, and row counts must be monotone per reader.
#[test]
fn overlapping_writers_snapshots_see_committed_prefixes() {
    let n = iters();
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE hot (id INT, v INT)").unwrap();
    let shared = SharedWorkbook::new(wb);
    let done = Arc::new(AtomicBool::new(false));

    const WRITERS: usize = 4;
    const READERS: usize = 4;
    let writers: Vec<_> = (0..WRITERS as i64)
        .map(|w| {
            let sh = shared.clone();
            thread::spawn(move || {
                for seq in 0..n {
                    let id = w * 1_000_000 + seq;
                    sh.with_table_mut("hot", |t| {
                        t.insert(vec![Value::Int(id), Value::Int(id * 10)])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let sh = shared.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut last = 0usize;
                let mut polls = 0u64;
                while !done.load(Ordering::Acquire) || last < (WRITERS as i64 * n) as usize {
                    let snap = sh.read(|s| s.table_snapshot("hot").unwrap());
                    let rows = scan_ids(&snap);
                    assert!(rows.len() >= last, "snapshot went backwards");
                    last = rows.len();
                    check_committed_prefix(&rows, WRITERS);
                    polls += 1;
                }
                polls
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
    let wb = shared.try_into_inner().expect("last handle");
    assert_eq!(
        wb.catalog().get("hot").unwrap().row_count(),
        (WRITERS as i64 * n) as usize
    );
}

/// Writers to DISJOINT tables proceed in parallel under the shared
/// workbook read lock; a reader mixing snapshots of both sees each table's
/// committed prefix.
#[test]
fn disjoint_writers_parallel_with_reader() {
    let n = iters();
    let mut wb = Workbook::new();
    for t in ["left", "right"] {
        wb.execute(&format!("CREATE TABLE {t} (id INT, v INT)"))
            .unwrap();
    }
    let shared = SharedWorkbook::new(wb);
    let writers: Vec<_> = [("left", 0i64), ("right", 1i64)]
        .into_iter()
        .map(|(name, w)| {
            let sh = shared.clone();
            thread::spawn(move || {
                for seq in 0..n {
                    let id = w * 1_000_000 + seq;
                    sh.with_table_mut(name, |t| {
                        t.insert(vec![Value::Int(id), Value::Int(id * 10)])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    let reader = {
        let sh = shared.clone();
        thread::spawn(move || loop {
            let ws = sh.snapshot();
            let l = scan_ids(ws.table("left").unwrap());
            let r = scan_ids(ws.table("right").unwrap());
            check_committed_prefix(&l, 1);
            check_committed_prefix(&r, 2);
            if l.len() as i64 == n && r.len() as i64 == n {
                break;
            }
        })
    };
    for w in writers {
        w.join().unwrap();
    }
    reader.join().unwrap();
}

/// In-place updates keep the two columns consistent: a snapshot never
/// observes a half-applied update (torn row).
#[test]
fn snapshots_never_see_torn_updates() {
    let n = iters();
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE upd (id INT, v INT)").unwrap();
    let shared = SharedWorkbook::new(wb);
    let keys: Vec<_> = (0..16i64)
        .map(|i| {
            shared
                .with_table_mut("upd", |t| t.insert(vec![Value::Int(i), Value::Int(i * 10)]))
                .unwrap()
        })
        .collect();
    let done = Arc::new(AtomicBool::new(false));
    let writer = {
        let sh = shared.clone();
        let keys = keys.clone();
        thread::spawn(move || {
            // Each round rewrites every row with a fresh (id', 10*id') pair.
            for round in 1..=n {
                for (i, key) in keys.iter().enumerate() {
                    let id = round * 100 + i as i64;
                    sh.with_table_mut("upd", |t| {
                        t.update_row(*key, vec![Value::Int(id), Value::Int(id * 10)])
                    })
                    .unwrap();
                }
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let sh = shared.clone();
            let done = Arc::clone(&done);
            thread::spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let snap = sh.read(|s| s.table_snapshot("upd").unwrap());
                    for (id, v) in scan_ids(&snap) {
                        assert_eq!(v, id * 10, "torn update visible");
                    }
                }
            })
        })
        .collect();
    writer.join().unwrap();
    done.store(true, Ordering::Release);
    for r in readers {
        r.join().unwrap();
    }
}

/// Concurrent auto-committed writers on a durable store: every operation
/// reported `Ok` must survive reopen, and the WAL must have batched fsyncs
/// (never more fsyncs than commits).
#[test]
fn group_committed_writes_are_durable() {
    let n = iters();
    let dir = tmp_dir("group-commit");
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE gc (id INT, v INT)").unwrap();
    wb.save(&dir).unwrap();
    let shared = SharedWorkbook::new(wb);

    const WRITERS: i64 = 8;
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let sh = shared.clone();
            thread::spawn(move || {
                for seq in 0..n {
                    let id = w * 1_000_000 + seq;
                    sh.with_table_mut("gc", |t| {
                        t.insert(vec![Value::Int(id), Value::Int(id * 10)])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let wb = shared.try_into_inner().expect("last handle");
    let snap = wb.metrics_snapshot();
    let commits = snap.counter("wal_commits").unwrap();
    let fsyncs = snap.counter("wal_fsyncs").unwrap();
    assert!(commits >= (WRITERS * n) as u64, "{commits} commits");
    assert!(fsyncs >= 1, "{fsyncs} fsyncs");
    assert!(fsyncs <= commits, "{fsyncs} fsyncs > {commits} commits");
    drop(wb); // crash-shaped exit: no checkpoint, recovery is WAL replay

    let wb = Workbook::open(&dir).unwrap();
    let snap = wb.catalog().get("gc").unwrap().snapshot();
    let rows = scan_ids(&snap);
    assert_eq!(rows.len() as i64, WRITERS * n);
    check_committed_prefix(&rows, WRITERS as usize);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash injection: tear the WAL tail after concurrent group-committed
/// writes. Recovery must restore an exact committed prefix per writer —
/// never a torn row, never a gap below the truncation point.
#[test]
fn torn_wal_tail_recovers_committed_prefix() {
    let n = iters();
    let dir = tmp_dir("torn-tail");
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE cr (id INT, v INT)").unwrap();
    wb.save(&dir).unwrap();
    let shared = SharedWorkbook::new(wb);
    const WRITERS: i64 = 4;
    let handles: Vec<_> = (0..WRITERS)
        .map(|w| {
            let sh = shared.clone();
            thread::spawn(move || {
                for seq in 0..n {
                    let id = w * 1_000_000 + seq;
                    sh.with_table_mut("cr", |t| {
                        t.insert(vec![Value::Int(id), Value::Int(id * 10)])
                    })
                    .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    drop(shared.try_into_inner().expect("last handle"));

    // Chop mid-record, then smear garbage over the new tail: recovery must
    // stop at the torn point and keep everything intact before it.
    let wal = dir.join(WAL_FILE);
    let bytes = std::fs::read(&wal).unwrap();
    let cut = bytes.len() - bytes.len() / 5 + 3;
    let mut torn = bytes[..cut].to_vec();
    let tail = torn.len().saturating_sub(7);
    for b in &mut torn[tail..] {
        *b ^= 0xA5;
    }
    std::fs::write(&wal, torn).unwrap();

    let wb = Workbook::open(&dir).unwrap();
    let snap = wb.catalog().get("cr").unwrap().snapshot();
    let rows = scan_ids(&snap);
    check_committed_prefix(&rows, WRITERS as usize);
    assert!(
        rows.len() as i64 <= WRITERS * n,
        "recovered more rows than written"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A read session keeps answering SELECTs (with plan-time snapshots) while
/// shard writers mutate the same tables underneath the shared read lock.
#[test]
fn select_runs_against_plan_time_snapshot_under_writes() {
    let n = iters();
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE q (id INT, v INT)").unwrap();
    let shared = SharedWorkbook::new(wb);
    let writer = {
        let sh = shared.clone();
        thread::spawn(move || {
            for seq in 0..n {
                sh.with_table_mut("q", |t| {
                    t.insert(vec![Value::Int(seq), Value::Int(seq * 10)])
                })
                .unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let sh = shared.clone();
            thread::spawn(move || loop {
                let (_, rows) = sh
                    .query("SELECT COUNT(*), SUM(v) - 10 * SUM(id) FROM q")
                    .unwrap();
                // SUM(v) == 10 * SUM(id) in every consistent view.
                let count = match rows[0][0] {
                    Value::Int(c) => c,
                    ref other => panic!("{other:?}"),
                };
                assert!(
                    matches!(rows[0][1], Value::Int(0) | Value::Empty),
                    "inconsistent aggregate over snapshot: {rows:?}"
                );
                if count == n {
                    break;
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
}
