//! The harness's own arithmetic and plumbing, checked on known inputs.

use dsbench::compare::{compare, Verdict};
use dsbench::host::{Calibration, Host};
use dsbench::json::Json;
use dsbench::metrics::{END_TO_END, PER_LAYER};
use dsbench::record::{Check, Metric, Record};
use dsbench::stats;
use dsbench::trace::Tracer;
use dsbench::workloads::dml_durable::DmlDurable;
use dsbench::workloads::recalc::Recalc;
use dsbench::workloads::scroll_edit::ScrollEdit;
use dsbench::workloads::sql_analytics::SqlAnalytics;
use dsbench::workloads::{
    op_stream_hash, run_by_name, RunConfig, Samples, Workload, HASHED_OPS, NAMES, SLICES,
};

#[test]
fn percentiles_on_known_samples() {
    let s: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(stats::percentile(&s, 50.0), 50.0);
    assert_eq!(stats::percentile(&s, 90.0), 90.0);
    assert_eq!(stats::percentile(&s, 99.0), 99.0);
    assert_eq!(stats::percentile(&s, 100.0), 100.0);
    assert_eq!(stats::samples_beyond(100, 99.0), 1);
    assert_eq!(stats::samples_beyond(1000, 99.0), 10);
    // Nearest rank: the smallest sample with at least p % at or below it.
    let five = [10.0, 20.0, 30.0, 40.0, 50.0];
    assert_eq!(stats::percentile(&five, 50.0), 30.0);
    assert_eq!(stats::percentile(&five, 95.0), 50.0);
    assert_eq!(stats::percentile(&five, 1.0), 10.0);
    assert_eq!(stats::percentile(&[7.0], 99.0), 7.0);
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    assert_eq!(stats::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(stats::median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
    let v = [1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0];
    assert_eq!(stats::quartiles(&v), [3.5, 13.5, 31.0]);
    assert!((stats::spread(&v) - 27.5 / 13.5).abs() < 1e-12);
    // statistics.quantiles([5, 9], n=4) and ([2, 4, 9], n=4): the clamped ends.
    assert_eq!(stats::quartiles(&[5.0, 9.0]), [4.0, 7.0, 10.0]);
    assert_eq!(stats::quartiles(&[2.0, 4.0, 9.0]), [2.0, 4.0, 9.0]);
}

/// A slow spell covering a fifth of the window moves a whole-window p90 and
/// leaves the median of the slices' p90s where it was.
#[test]
fn sliced_percentiles_ignore_a_burst() {
    use std::time::Duration;
    let window = Duration::from_secs(10);
    let mut s = Samples::new(2);
    for slice in 0..SLICES {
        s.at(window.mul_f64((slice as f64 + 0.5) / SLICES as f64), window);
        let slow = if slice == 3 || slice == 4 { 2 } else { 1 };
        for i in 1..=100 {
            s.push(1, Duration::from_micros(i * slow));
        }
    }
    assert_eq!(s.percentile(&[1], 90.0), (90.0, 1000));
    assert_eq!(s.percentile(&[1], 50.0), (50.0, 1000));
    // Beyond the end of the window is still the last slice.
    s.at(window * 2, window);
    s.push(0, Duration::from_micros(7));
    assert_eq!(s.percentile(&[0], 50.0), (7.0, 1));
}

fn hashes<W: Workload>() {
    for smoke in [true, false] {
        let a = op_stream_hash::<W>(7, smoke, HASHED_OPS);
        assert_eq!(
            a,
            op_stream_hash::<W>(7, smoke, HASHED_OPS),
            "{}: same seed, same stream",
            W::NAME
        );
        assert_ne!(
            a,
            op_stream_hash::<W>(8, smoke, HASHED_OPS),
            "{}: another seed, another stream",
            W::NAME
        );
    }
}

#[test]
fn op_streams_depend_on_the_seed_and_nothing_else() {
    hashes::<ScrollEdit>();
    hashes::<Recalc>();
    hashes::<SqlAnalytics>();
    hashes::<DmlDurable>();
}

fn sample_record(workload: &str, op_p50: f64) -> Record {
    Record {
        workload: workload.to_string(),
        seed: 42,
        seconds: 12,
        trace: false,
        smoke: false,
        op_hash: 0xDEAD_BEEF_0123_4567,
        attempted: 1000,
        failed: 0,
        checks: vec![Check {
            name: "a \"quoted\" check".into(),
            ok: true,
            detail: "line one\nline two \\ tab\t".into(),
        }],
        metrics: END_TO_END
            .iter()
            .map(|m| Metric {
                name: m.name.to_string(),
                value: if m.name == "op_p50_us" {
                    op_p50
                } else {
                    1.0 / 3.0
                },
                unit: m.unit.to_string(),
                n: 17,
            })
            .collect(),
        host: Host {
            nproc: 2,
            fs: "ext4".into(),
            rustc: "rustc 1.95.0".into(),
            commit: "unknown".into(),
        },
        calib_start: Calibration {
            cpu_ms: 30.25,
            fsync_us: 130.5,
        },
        calib_end: Calibration {
            cpu_ms: 30.75,
            fsync_us: 128.0,
        },
    }
}

#[test]
fn result_json_round_trips() {
    let r = sample_record("recalc", 2242.638);
    let text = r.to_json().to_string();
    assert!(!text.contains('\n'), "one record per line");
    let back = Record::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, r);
    assert!(!r.unstable());

    // The contract line holds exactly the four keys and the listed metrics,
    // with every digit of each value.
    let line = Json::parse(&r.contract_line(END_TO_END)).unwrap();
    let keys: Vec<&str> = line
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("attempted"), Some(&Json::Num(1000.0)));
    let m = line.get("metrics").unwrap();
    assert_eq!(m.as_obj().unwrap().len(), END_TO_END.len());
    assert_eq!(
        m.get("setup_s").unwrap().get("value"),
        Some(&Json::Num(1.0 / 3.0))
    );
    assert_eq!(m.get("setup_s").unwrap().get("unit"), Some(&Json::str("s")));
}

#[test]
fn cpu_drift_marks_a_record_unstable() {
    let mut r = sample_record("recalc", 1.0);
    r.calib_end.cpu_ms = r.calib_start.cpu_ms * 1.11;
    assert!(r.unstable());
    assert_eq!(r.to_json().get("unstable"), Some(&Json::Bool(true)));
}

#[test]
fn compare_tells_worse_from_unresolved() {
    let set = |values: &[f64]| -> Vec<Record> {
        values.iter().map(|&v| sample_record("recalc", v)).collect()
    };
    let verdict = |a: &[f64], b: &[f64]| {
        let rows = compare(&set(a), &set(b));
        rows.iter()
            .find(|r| r.metric == "op_p50_us")
            .unwrap()
            .verdict
    };
    let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
    // op_p50_us may worsen by a fifth.
    assert_eq!(verdict(&steady, &steady.map(|v| v * 1.15)), Verdict::Ok);
    assert_eq!(verdict(&steady, &steady.map(|v| v * 0.5)), Verdict::Ok);
    assert_eq!(verdict(&steady, &steady.map(|v| v * 1.3)), Verdict::Worse);
    // Inputs that scatter by more than the bound decide nothing.
    assert_eq!(
        verdict(&[80.0, 100.0, 120.0, 90.0, 110.0], &steady.map(|v| v * 1.3)),
        Verdict::Unresolved
    );
    // Only workloads present on both sides are compared.
    assert!(compare(&set(&steady), &[]).is_empty());
}

#[test]
fn self_time_is_the_span_minus_what_its_children_cover() {
    let mut tr = Tracer::new();
    assert_eq!(tr.begin("off"), 0, "a tracer that is off records nothing");
    tr.set_on(true);
    let root = tr.begin("root");
    let child = tr.begin("child");
    std::thread::sleep(std::time::Duration::from_millis(2));
    tr.end(child);
    tr.end(root);
    // Caused by `root`, but after it: covers none of its interval.
    let late = tr.begin_under(root, "late");
    std::thread::sleep(std::time::Duration::from_millis(1));
    tr.end(late);

    let spans = tr.spans();
    assert_eq!((spans[1].parent, spans[2].parent), (root, root));
    let summary = tr.summary();
    let get = |name: &str| summary.iter().find(|s| s.name == name).unwrap();
    assert_eq!(
        get("root").self_ns,
        get("root").total_ns - get("child").total_ns
    );
    assert_eq!(get("child").self_ns, get("child").total_ns);
    assert!(get("late").total_ns >= 1_000_000);
}

/// `BENCHMARK.json` and the constants in `src/metrics.rs` say the same.
#[test]
fn benchmark_json_lists_what_the_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let j = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        let items = j.get(key).unwrap().as_arr().unwrap();
        items
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), NAMES);
    for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = j.get(key).unwrap().as_arr().unwrap();
        assert_eq!(listed.len(), specs.len(), "{key}");
        for (l, s) in listed.iter().zip(specs) {
            assert_eq!(l.get("name").unwrap().as_str(), Some(s.name));
            assert_eq!(l.get("unit").unwrap().as_str(), Some(s.unit), "{}", s.name);
            assert_eq!(
                l.get("better").unwrap().as_str(),
                Some(s.better.as_str()),
                "{}",
                s.name
            );
            assert_eq!(l.get("bound").and_then(Json::as_f64), s.bound, "{}", s.name);
        }
    }
}

/// Every workload, through the same code path as a full run, at 1/100 size:
/// all output checks pass and every listed metric is reported.
#[test]
fn smoke_runs_pass_their_output_checks() {
    for name in NAMES {
        for trace in [false, true] {
            let cfg = RunConfig {
                seed: 3,
                seconds: 1,
                trace,
                smoke: true,
            };
            let r = run_by_name(name, &cfg).unwrap();
            assert!(r.correct(), "{name}: {:?}", r.checks);
            assert!(r.attempted > 0 && r.failed == 0);
            for spec in if trace { PER_LAYER } else { END_TO_END } {
                let m = r
                    .metric(spec.name)
                    .unwrap_or_else(|| panic!("{name} did not report {}", spec.name));
                assert!(m.value.is_finite(), "{name}: {} = {}", spec.name, m.value);
            }
        }
    }
}
