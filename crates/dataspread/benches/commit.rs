//! Experiment C-commit: durable-commit cost and VFS-indirection overhead.
//!
//! Run with `cargo bench -p dataspread --bench commit`. The storage layer
//! routes every syscall through the `Vfs`/`VfsFile` trait objects so fault
//! suites can inject failures; this bench checks that the indirection is
//! free next to the fsync it wraps. Arms:
//!
//! 1. **pwrite+fsync, std** — positioned write + `sync_data` straight on
//!    `std::fs::File`: the floor any durable commit pays.
//! 2. **pwrite+fsync, vfs** — the same syscalls through `Box<dyn VfsFile>`
//!    (`OsVfs`). The ratio to arm 1 *is* the indirection overhead; the bar
//!    is ≤1.05x (dynamic dispatch next to an fsync is noise).
//! 3. **wal autocommit, os** — one `WalWriter::log` per iteration against
//!    the real filesystem: framing + CRC + group-commit machinery + fsync.
//! 4. **wal autocommit, memory** — the same against a quiet in-memory
//!    `FaultVfs`: the WAL's CPU cost with the disk removed.
//! 5. **workbook autocommit** — a full engine-level durable insert
//!    (table mutate + WAL log + group commit).

use std::sync::Arc;
use std::time::Duration;

use dataspread::Workbook;
use dataspread_relstore::vfs::{os_vfs, FaultPlan, FaultVfs, Vfs};
use dataspread_relstore::wal::{WalOp, WalWriter};
use dataspread_testkit::{bench, black_box, report_json};
use dataspread_types::Value;

const TARGET: Duration = Duration::from_millis(400);
/// Payload comparable to one framed WAL autocommit record.
const PAYLOAD: [u8; 64] = [0xA5; 64];

fn tmp_dir(name: &str) -> std::path::PathBuf {
    let p = std::env::temp_dir().join(format!("dsp-bench-commit-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn op(i: i64) -> WalOp {
    WalOp::Insert {
        table: "t".into(),
        key: i as u64,
        pos: i as u64,
        row: vec![Value::Int(i), Value::Int(i * 10)],
    }
}

#[cfg(unix)]
fn bench_pwrite_fsync_std(dir: &std::path::Path) -> f64 {
    use std::os::unix::fs::FileExt;
    let file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(dir.join("std.bin"))
        .unwrap();
    let mut offset = 0u64;
    let m = bench("commit/pwrite_fsync_std", TARGET, || {
        file.write_all_at(&PAYLOAD, offset).unwrap();
        file.sync_data().unwrap();
        offset += PAYLOAD.len() as u64;
    });
    report_json("commit/pwrite_fsync_std", 1, &m);
    m.per_iter_ns()
}

#[cfg(not(unix))]
fn bench_pwrite_fsync_std(_dir: &std::path::Path) -> f64 {
    println!("commit/pwrite_fsync_std: skipped (no positioned file I/O on this platform)");
    0.0
}

fn bench_pwrite_fsync_vfs(dir: &std::path::Path) -> f64 {
    let vfs = os_vfs();
    let file = vfs.create(&dir.join("vfs.bin")).unwrap();
    let mut offset = 0u64;
    let m = bench("commit/pwrite_fsync_vfs", TARGET, || {
        file.write_all_at(offset, &PAYLOAD).unwrap();
        file.sync().unwrap();
        offset += PAYLOAD.len() as u64;
    });
    report_json("commit/pwrite_fsync_vfs", 1, &m);
    m.per_iter_ns()
}

fn bench_wal_autocommit(name: &str, vfs: Arc<dyn Vfs>, dir: &std::path::Path) {
    vfs.create_dir_all(dir).unwrap();
    let w = WalWriter::create_with(&vfs, dir.join("wal.dsp"), 1).unwrap();
    let mut i = 0i64;
    let m = bench(name, TARGET, || {
        w.log(op(i)).unwrap();
        i += 1;
    });
    report_json(name, 1, &m);
}

fn bench_workbook_autocommit(dir: &std::path::Path) {
    let mut wb = Workbook::new();
    wb.execute("CREATE TABLE t (id INT, v INT)").unwrap();
    wb.save(dir).unwrap();
    let mut i = 0i64;
    let m = bench("commit/workbook_autocommit", TARGET, || {
        let mut t = wb.catalog_mut().get_mut("t").unwrap();
        black_box(t.insert(vec![Value::Int(i), Value::Int(i * 10)]).unwrap());
        i += 1;
    });
    report_json("commit/workbook_autocommit", 1, &m);
    // One coherent registry dump so the perf numbers travel with their
    // counter context (wal_commits, fsyncs, page touches).
    println!("METRICS_JSON {}", wb.metrics_json());
}

fn main() {
    println!(
        "== durable commit micro-bench (payload {} B) ==",
        PAYLOAD.len()
    );
    let dir = tmp_dir("arms");

    let std_ns = bench_pwrite_fsync_std(&dir);
    let vfs_ns = bench_pwrite_fsync_vfs(&dir);
    if std_ns > 0.0 {
        let ratio = vfs_ns / std_ns;
        println!("summary: vfs/std fsync ratio {ratio:.3}x (bar: <=1.05x)");
        println!(
            "BENCH_JSON {{\"bench\":\"commit/vfs_overhead\",\"rows\":1,\"ns_per_iter\":{:.1},\"iters\":1,\"ratio\":{ratio:.3}}}",
            vfs_ns - std_ns
        );
    }

    bench_wal_autocommit("commit/wal_autocommit_os", os_vfs(), &dir.join("wal-os"));
    let mem: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::quiet()));
    bench_wal_autocommit(
        "commit/wal_autocommit_mem",
        mem,
        std::path::Path::new("/bench-wal"),
    );
    bench_workbook_autocommit(&dir.join("wb"));

    let _ = std::fs::remove_dir_all(&dir);
}
