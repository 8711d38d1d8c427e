//! `dsbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`
//! `dsbench compare <a.jsonl> <b.jsonl>`
//!
//! `run` prints every metric by name with its unit, then — as the last line
//! of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and the metrics `BENCHMARK.json` lists for that kind of run. It
//! exits non-zero when an output check failed.

use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use dsbench::compare::{compare, render, Verdict};
use dsbench::host;
use dsbench::metrics::{END_TO_END, PER_LAYER};
use dsbench::record::read_result_set;
use dsbench::workloads::{run_by_name, RunConfig, NAMES};

const USAGE: &str = "usage: dsbench run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       dsbench compare <a.jsonl> <b.jsonl>";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let cfg = RunConfig {
        seed: seed.ok_or("--seed is required")?,
        // A smoke run is the same code path with 1/100 sizes and 1 s windows.
        seconds: if smoke {
            1
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: trace.ok_or("--trace is required")?,
        smoke,
    };
    let record = run_by_name(&workload, &cfg)
        .ok_or_else(|| format!("unknown workload `{workload}`; one of {NAMES:?}"))?;

    let results = host::out_dir().join("results.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| writeln!(f, "{}", record.to_json()))
        .map_err(|e| format!("{}: {e}", results.display()))?;

    println!(
        "{}",
        record.contract_line(if cfg.trace { PER_LAYER } else { END_TO_END })
    );
    Ok(if record.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_sets(args: &[String]) -> Result<ExitCode, String> {
    let [a, b] = args else {
        return Err("compare takes two result sets".into());
    };
    let rows = compare(
        &read_result_set(Path::new(a))?,
        &read_result_set(Path::new(b))?,
    );
    print!("{}", render(&rows));
    let clean = rows.iter().all(|r| r.verdict == Verdict::Ok);
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "compare" => compare_sets(rest),
        _ => Err("expected `run` or `compare`".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("dsbench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
