//! `dsbench compare <a> <b>`: is result set `b` worse than result set `a`?
//!
//! A result set is a file of records, one per line, as `dsbench run` appends
//! them to `bench/out/results.jsonl`. For every workload × end-to-end metric
//! the medians of the two sets are compared against the metric's bound. A
//! pair whose own run-to-run spread exceeds the bound cannot be told apart
//! and is reported as unresolved, not as unchanged.

use std::fmt::Write as _;

use crate::metrics::{Better, END_TO_END};
use crate::record::Record;
use crate::stats;
use crate::workloads::NAMES;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: &'static str,
    pub metric: &'static str,
    pub base: f64,
    pub new: f64,
    /// The larger of the two sets' spreads; 0 when a set has one run.
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

fn values(set: &[Record], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter(|r| r.workload == workload && !r.trace && !r.smoke)
        .filter_map(|r| r.metric(metric).map(|m| m.value))
        .collect()
}

fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        0.0
    } else {
        stats::spread(values)
    }
}

pub fn compare(a: &[Record], b: &[Record]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in NAMES {
        for spec in END_TO_END {
            let (va, vb) = (
                values(a, workload, spec.name),
                values(b, workload, spec.name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (base, new) = (stats::median(&va), stats::median(&vb));
            let bound = spec.bound.expect("end-to-end metrics are bounded");
            let worse_by = match spec.better {
                Better::Lower => new / base - 1.0,
                Better::Higher => 1.0 - new / base,
            };
            let spread = spread(&va).max(spread(&vb));
            let verdict = if spread > bound {
                Verdict::Unresolved
            } else if worse_by > bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload,
                metric: spec.name,
                base,
                new,
                spread,
                bound,
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "base (a)", "new (b)", "b/a", "spread", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<14} {:<12} {:>14.4} {:>14.4} {:>8.3} {:>8.3} {:>7.2}  {}",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.spread,
            r.bound,
            match r.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
            }
        );
    }
    out
}
