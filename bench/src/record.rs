//! One run's result: the record appended to `bench/out/results.jsonl`, and
//! the one-line summary the benchmark contract asks for on stdout.

use crate::host::{Calibration, Host, MAX_CPU_DRIFT};
use crate::json::Json;
use crate::metrics::MetricSpec;

#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// How many samples stand behind the value.
    pub n: u64,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// Hash of the first operations of the seeded stream (see
    /// `workloads::op_stream_hash`), so two records can be seen to have run
    /// the same inputs.
    pub op_hash: u64,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    pub host: Host,
    pub calib_start: Calibration,
    pub calib_end: Calibration,
}

impl Record {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// How far the CPU kernel moved between the start and the end of the
    /// run, as a share of the start.
    pub fn cpu_drift(&self) -> f64 {
        (self.calib_end.cpu_ms - self.calib_start.cpu_ms).abs() / self.calib_start.cpu_ms
    }

    /// The host was not steady while this result was taken.
    pub fn unstable(&self) -> bool {
        self.cpu_drift() > MAX_CPU_DRIFT
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("workload", Json::str(&self.workload)),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds as f64)),
            ("trace", Json::Bool(self.trace)),
            ("smoke", Json::Bool(self.smoke)),
            ("op_hash", Json::str(format!("{:016x}", self.op_hash))),
            ("correct", Json::Bool(self.correct())),
            ("unstable", Json::Bool(self.unstable())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(&c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(&m.unit)),
                                ("n", Json::Num(m.n as f64)),
                            ]);
                            (m.name.clone(), v)
                        })
                        .collect(),
                ),
            ),
            ("host", self.host.to_json()),
            ("calib_start", self.calib_start.to_json()),
            ("calib_end", self.calib_end.to_json()),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Record, String> {
        let field = |k: &str| j.get(k).ok_or_else(|| format!("record: missing `{k}`"));
        let num = |k: &str| {
            field(k)?
                .as_f64()
                .ok_or_else(|| format!("record: `{k}` is not a number"))
        };
        let flag = |k: &str| {
            field(k)?
                .as_bool()
                .ok_or_else(|| format!("record: `{k}` is not a boolean"))
        };
        let text = |j: &Json, k: &str| {
            j.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("record: `{k}` is not a string"))
        };
        let checks = field("checks")?
            .as_arr()
            .ok_or("record: `checks` is not an array")?
            .iter()
            .map(|c| {
                Ok(Check {
                    name: text(c, "name")?,
                    ok: c.get("ok").and_then(Json::as_bool).ok_or("check: `ok`")?,
                    detail: text(c, "detail")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let metrics = field("metrics")?
            .as_obj()
            .ok_or("record: `metrics` is not an object")?
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or("metric: `value`")?,
                    unit: text(m, "unit")?,
                    n: m.get("n").and_then(Json::as_f64).ok_or("metric: `n`")? as u64,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Record {
            workload: text(j, "workload")?,
            seed: num("seed")? as u64,
            seconds: num("seconds")? as u64,
            trace: flag("trace")?,
            smoke: flag("smoke")?,
            op_hash: u64::from_str_radix(&text(j, "op_hash")?, 16)
                .map_err(|e| format!("record: `op_hash`: {e}"))?,
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            checks,
            metrics,
            host: Host::from_json(field("host")?).ok_or("record: bad `host`")?,
            calib_start: Calibration::from_json(field("calib_start")?)
                .ok_or("record: bad `calib_start`")?,
            calib_end: Calibration::from_json(field("calib_end")?)
                .ok_or("record: bad `calib_end`")?,
        })
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and the listed metrics, each as measured.
    pub fn contract_line(&self, listed: &[MetricSpec]) -> String {
        let metrics = listed
            .iter()
            .map(|spec| {
                let m = self
                    .metric(spec.name)
                    .unwrap_or_else(|| panic!("run did not report `{}`", spec.name));
                let v = Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(&m.unit))]);
                (spec.name.to_string(), v)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string()
    }
}

/// Read a result set: one record per non-empty line.
pub fn read_result_set(path: &std::path::Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).and_then(|j| Record::from_json(&j)))
        .collect()
}
