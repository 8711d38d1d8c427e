//! What machine a result came from, and how steady that machine was while
//! the result was taken.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use dataspread::relstore::vfs::os_vfs;
use dataspread_testkit::Rng;

use crate::json::Json;

/// Everything the benchmark writes (temporary stores, traces, result sets)
/// goes under `<this package>/out`, which the repository's `.gitignore`
/// names.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A fresh, empty directory under [`out_dir`].
pub fn fresh_dir(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out_dir().join(format!(
        "tmp-{}-{tag}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a scratch directory under bench/out");
    dir
}

#[derive(Clone, Debug, PartialEq)]
pub struct Host {
    pub nproc: usize,
    /// File-system type of [`out_dir`], where durable workloads write.
    pub fs: String,
    pub rustc: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let _ = std::fs::create_dir_all(out_dir());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            fs: fs_type(&out_dir()),
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "--short", "HEAD"]),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("nproc", Json::Num(self.nproc as f64)),
            ("fs", Json::str(&self.fs)),
            ("rustc", Json::str(&self.rustc)),
            ("commit", Json::str(&self.commit)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Host> {
        Some(Host {
            nproc: j.get("nproc")?.as_f64()? as usize,
            fs: j.get("fs")?.as_str()?.to_string(),
            rustc: j.get("rustc")?.as_str()?.to_string(),
            commit: j.get("commit")?.as_str()?.to_string(),
        })
    }
}

/// First line of a command's output, or `unknown` (the benchmark also runs
/// from plain checkouts that are not git repositories).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The type of the mount holding `path`: the longest mount point in
/// `/proc/mounts` that prefixes it.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// A `kB` field of `/proc/self/status`, in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Resident set of this process now, in MB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

/// A CPU run's instability threshold: the pure-CPU kernel timed after the
/// run may differ from the one timed before it by this share.
pub const MAX_CPU_DRIFT: f64 = 0.10;

/// Two fixed kernels timed at the start and end of every run, so a result
/// carries its own evidence of how busy the host was.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// 20M SplitMix64 steps, milliseconds.
    pub cpu_ms: f64,
    /// Median of 32 × (64-byte positioned write + fsync) in [`out_dir`],
    /// microseconds.
    pub fsync_us: f64,
}

impl Calibration {
    pub fn measure() -> Calibration {
        // Best of three: the kernel itself must not be the noisy part.
        let cpu_ms = (0..3)
            .map(|_| {
                let t = Instant::now();
                let mut rng = Rng::new(0xC0FFEE);
                let mut acc = 0u64;
                for _ in 0..20_000_000u32 {
                    acc ^= rng.next_u64();
                }
                std::hint::black_box(acc);
                t.elapsed().as_secs_f64() * 1e3
            })
            .fold(f64::INFINITY, f64::min);
        Calibration {
            cpu_ms,
            fsync_us: crate::stats::median(&fsync_kernel(32)),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("cpu_ms", Json::Num(self.cpu_ms)),
            ("fsync_us", Json::Num(self.fsync_us)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Calibration> {
        Some(Calibration {
            cpu_ms: j.get("cpu_ms")?.as_f64()?,
            fsync_us: j.get("fsync_us")?.as_f64()?,
        })
    }
}

/// `n` raw write+fsync latencies (µs) through the same `Vfs` the engine
/// uses, in the directory the durable workload writes to.
pub fn fsync_kernel(n: usize) -> Vec<f64> {
    let dir = fresh_dir("fsync");
    let file = os_vfs()
        .create(&dir.join("kernel.bin"))
        .expect("create the fsync kernel file");
    let payload = [0xA5u8; 64];
    let lat = (0..n)
        .map(|i| {
            let t = Instant::now();
            file.write_all_at(i as u64 * 64, &payload)
                .and_then(|_| file.sync())
                .expect("write+fsync in bench/out");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
    lat
}
