//! A sqllogictest-style golden suite harness for the DataSpread engine.
//!
//! `.test` files hold a sequence of records, each preceded by optional `#`
//! comment lines and separated by blank lines:
//!
//! ```text
//! # set up
//! statement ok
//! CREATE TABLE t (a INT, b TEXT)
//!
//! statement error table not found: nope
//! SELECT * FROM nope
//!
//! query IT rowsort
//! SELECT a, b FROM t
//! ----
//! 1 one
//! 2 two
//!
//! explain
//! SELECT a FROM t WHERE a = 1
//! ----
//! project: a
//! scan t rows=2 filters=1 est~1 cols=1/2
//!
//! cell A1 =1+2
//! bind tom B1 t
//! ```
//!
//! * `statement ok` — the statement must succeed (any statement kind).
//! * `statement error <substring>` — it must fail, and the error's display
//!   must contain the substring (typed errors stay pinned).
//! * `query <types> [rowsort]` — a result set; `<types>` is one character
//!   per expected column (`I` integer, `R` real, `T` text, `B` bool, `A`
//!   any — only the *count* is enforced). Rows are rendered one per line,
//!   columns space-separated, `NULL` for SQL NULL, `(empty)` for the empty
//!   string. With `rowsort` the result lines are sorted before comparison.
//! * `explain` — runs `EXPLAIN <sql>` and compares the plan lines verbatim.
//! * `analyze` — runs `EXPLAIN ANALYZE <sql>` and compares the annotated
//!   plan lines with every `time=…ms` normalized to `time=<t>` (actual row
//!   counts stay golden-locked; wall time is inherently nondeterministic).
//! * `cell <a1> <input>` — types `input` into the current sheet (formulas
//!   start with `=`), so `RANGETABLE`/`RANGEVALUE` queries have a grid.
//! * `bind <tom|rom> <a1> <table>` — binds a table region at `a1`.
//!
//! **Record mode**: with `SLT_RECORD=1` in the environment, expected blocks
//! of `query`/`explain` records are replaced by actual engine output and
//! the file is rewritten in place — the bootstrap and re-baseline path. CI
//! runs record mode followed by `git diff --exit-code` to prove the
//! committed corpus matches the engine.
//!
//! [`naive`] is the reference `SELECT` evaluator that `tests/differential.rs`
//! checks every corpus query against.

pub mod naive;

use std::fmt::Write as _;
use std::path::Path;

use dataspread::{BindModel, Workbook};
use dataspread_relstore::vfs::os_vfs;
use dataspread_types::{CellAddr, Value};

/// One parsed record plus the comment lines that preceded it.
#[derive(Debug, Clone)]
pub struct Record {
    /// 1-based line number of the directive, for error messages.
    pub line: usize,
    /// Verbatim `#` comment lines preceding the record.
    pub comments: Vec<String>,
    /// The directive itself.
    pub kind: RecordKind,
}

/// The record kinds of the `.test` format.
#[derive(Debug, Clone)]
pub enum RecordKind {
    /// `statement ok` / `statement error <substring>`.
    Statement {
        /// `Some(substring)` for `statement error`.
        expect_err: Option<String>,
        /// The SQL text (may span lines).
        sql: String,
    },
    /// `query <types> [rowsort]` with expected result lines.
    Query {
        /// One character per expected output column.
        types: String,
        /// Sort result lines before comparing.
        rowsort: bool,
        /// The SQL text.
        sql: String,
        /// Expected result lines (after `----`).
        expected: Vec<String>,
    },
    /// `explain` with expected plan lines.
    Explain {
        /// The SELECT to explain (without the `EXPLAIN` keyword).
        sql: String,
        /// Expected plan lines (after `----`).
        expected: Vec<String>,
    },
    /// `analyze` with expected timing-normalized plan lines.
    Analyze {
        /// The SELECT to profile (without the `EXPLAIN ANALYZE` prefix).
        sql: String,
        /// Expected plan lines (after `----`), `time=<t>`-normalized.
        expected: Vec<String>,
    },
    /// `cell <a1> <input>`.
    Cell {
        /// Target cell in A1 notation.
        a1: String,
        /// Raw cell input (formulas start with `=`).
        input: String,
    },
    /// `bind <tom|rom> <a1> <table>`.
    Bind {
        /// Binding model name (`tom` or `rom`).
        model: String,
        /// Anchor cell in A1 notation.
        a1: String,
        /// Bound table name.
        table: String,
    },
}

/// A parsed `.test` file: records plus any trailing comment lines.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The records in file order.
    pub records: Vec<Record>,
    /// Comment lines after the last record.
    pub trailing: Vec<String>,
}

/// Parse a `.test` file's text.
pub fn parse(text: &str) -> Result<Corpus, String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut records = Vec::new();
    let mut comments: Vec<String> = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let raw = lines[i];
        let line = raw.trim_end();
        if line.is_empty() {
            i += 1;
            continue;
        }
        if line.starts_with('#') {
            comments.push(line.to_string());
            i += 1;
            continue;
        }
        let at = i + 1;
        let taken = std::mem::take(&mut comments);
        let (kind, next) = parse_record(&lines, i).map_err(|e| format!("line {at}: {e}"))?;
        records.push(Record {
            line: at,
            comments: taken,
            kind,
        });
        i = next;
    }
    Ok(Corpus {
        records,
        trailing: comments,
    })
}

/// Parse one record starting at `lines[i]`; returns the record and the
/// index of the first unconsumed line.
fn parse_record(lines: &[&str], i: usize) -> Result<(RecordKind, usize), String> {
    let head = lines[i].trim_end();
    let mut words = head.split_whitespace();
    let directive = words.next().unwrap_or_default();
    match directive {
        "statement" => {
            let expect_err = match words.next() {
                Some("ok") => None,
                Some("error") => {
                    let rest = head
                        .splitn(3, char::is_whitespace)
                        .nth(2)
                        .unwrap_or("")
                        .trim();
                    Some(rest.to_string())
                }
                other => return Err(format!("expected `statement ok|error`, got {other:?}")),
            };
            let (sql, next) = take_sql(lines, i + 1, false)?;
            Ok((RecordKind::Statement { expect_err, sql }, next))
        }
        "query" => {
            let types = words
                .next()
                .ok_or("`query` needs a column-type string")?
                .to_string();
            let rowsort = match words.next() {
                None => false,
                Some("rowsort") => true,
                Some(other) => return Err(format!("unknown query option {other:?}")),
            };
            let (sql, sep) = take_sql(lines, i + 1, true)?;
            let (expected, next) = take_expected(lines, sep);
            Ok((
                RecordKind::Query {
                    types,
                    rowsort,
                    sql,
                    expected,
                },
                next,
            ))
        }
        "explain" => {
            let (sql, sep) = take_sql(lines, i + 1, true)?;
            let (expected, next) = take_expected(lines, sep);
            Ok((RecordKind::Explain { sql, expected }, next))
        }
        "analyze" => {
            let (sql, sep) = take_sql(lines, i + 1, true)?;
            let (expected, next) = take_expected(lines, sep);
            Ok((RecordKind::Analyze { sql, expected }, next))
        }
        "cell" => {
            let mut parts = head.splitn(3, char::is_whitespace);
            parts.next();
            let a1 = parts.next().ok_or("`cell` needs an address")?.to_string();
            let input = parts.next().unwrap_or("").to_string();
            Ok((RecordKind::Cell { a1, input }, i + 1))
        }
        "bind" => {
            let mut parts = head.split_whitespace();
            parts.next();
            let model = parts.next().ok_or("`bind` needs a model")?.to_string();
            let a1 = parts.next().ok_or("`bind` needs an address")?.to_string();
            let table = parts.next().ok_or("`bind` needs a table")?.to_string();
            Ok((RecordKind::Bind { model, a1, table }, i + 1))
        }
        other => Err(format!("unknown directive {other:?}")),
    }
}

/// Collect SQL lines. With `to_separator`, stop at (and consume) the `----`
/// line — required; otherwise stop at the first blank line or EOF.
fn take_sql(lines: &[&str], mut i: usize, to_separator: bool) -> Result<(String, usize), String> {
    let mut sql = Vec::new();
    while i < lines.len() {
        let line = lines[i].trim_end();
        if to_separator && line == "----" {
            return Ok((sql.join("\n"), i + 1));
        }
        if line.is_empty() {
            break;
        }
        sql.push(line);
        i += 1;
    }
    if to_separator {
        return Err("missing `----` separator".into());
    }
    if sql.is_empty() {
        return Err("missing SQL text".into());
    }
    Ok((sql.join("\n"), i))
}

/// Collect expected lines up to the next blank line or EOF.
fn take_expected(lines: &[&str], mut i: usize) -> (Vec<String>, usize) {
    let mut out = Vec::new();
    while i < lines.len() {
        let line = lines[i].trim_end();
        if line.is_empty() {
            break;
        }
        out.push(line.to_string());
        i += 1;
    }
    (out, i)
}

/// Render a corpus back to `.test` text (the record-mode writer).
pub fn render(corpus: &Corpus) -> String {
    let mut out = String::new();
    for (n, rec) in corpus.records.iter().enumerate() {
        if n > 0 {
            out.push('\n');
        }
        for c in &rec.comments {
            let _ = writeln!(out, "{c}");
        }
        match &rec.kind {
            RecordKind::Statement { expect_err, sql } => {
                match expect_err {
                    None => out.push_str("statement ok\n"),
                    Some(e) if e.is_empty() => out.push_str("statement error\n"),
                    Some(e) => {
                        let _ = writeln!(out, "statement error {e}");
                    }
                }
                let _ = writeln!(out, "{sql}");
            }
            RecordKind::Query {
                types,
                rowsort,
                sql,
                expected,
            } => {
                let opt = if *rowsort { " rowsort" } else { "" };
                let _ = writeln!(out, "query {types}{opt}");
                let _ = writeln!(out, "{sql}");
                out.push_str("----\n");
                for l in expected {
                    let _ = writeln!(out, "{l}");
                }
            }
            RecordKind::Explain { sql, expected } => {
                out.push_str("explain\n");
                let _ = writeln!(out, "{sql}");
                out.push_str("----\n");
                for l in expected {
                    let _ = writeln!(out, "{l}");
                }
            }
            RecordKind::Analyze { sql, expected } => {
                out.push_str("analyze\n");
                let _ = writeln!(out, "{sql}");
                out.push_str("----\n");
                for l in expected {
                    let _ = writeln!(out, "{l}");
                }
            }
            RecordKind::Cell { a1, input } => {
                let _ = writeln!(out, "cell {a1} {input}");
            }
            RecordKind::Bind { model, a1, table } => {
                let _ = writeln!(out, "bind {model} {a1} {table}");
            }
        }
    }
    if !corpus.trailing.is_empty() {
        out.push('\n');
        for c in &corpus.trailing {
            let _ = writeln!(out, "{c}");
        }
    }
    out
}

/// Golden cell rendering: `NULL` for SQL NULL, `(empty)` for the empty
/// string, `TRUE`/`FALSE` for booleans, display formatting otherwise
/// (integral floats print without a fraction, same as the sheet UI).
pub fn format_value(v: &Value) -> String {
    match v {
        Value::Empty => "NULL".to_string(),
        Value::Text(s) if s.is_empty() => "(empty)".to_string(),
        other => other.display_string(),
    }
}

/// Render a result set one line per row, columns space-separated.
pub fn format_rows(rows: &[Vec<Value>]) -> Vec<String> {
    rows.iter()
        .map(|r| r.iter().map(format_value).collect::<Vec<_>>().join(" "))
        .collect()
}

/// Normalize `EXPLAIN ANALYZE` output for golden comparison: every
/// `time=<digits-and-dots>ms` becomes `time=<t>`. Row counts and loop
/// counts are deterministic and stay verbatim.
pub fn normalize_timings(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("time=") {
        let (head, tail) = rest.split_at(at + "time=".len());
        out.push_str(head);
        let digits = tail
            .find(|c: char| !c.is_ascii_digit() && c != '.')
            .unwrap_or(tail.len());
        if digits > 0 && tail[digits..].starts_with("ms") {
            out.push_str("<t>");
            rest = &tail[digits + 2..];
        } else {
            rest = tail;
        }
    }
    out.push_str(rest);
    out
}

/// Is record mode on (`SLT_RECORD=1`)?
pub fn record_mode() -> bool {
    std::env::var("SLT_RECORD")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Run one `.test` file against a fresh [`Workbook`]. In record mode the
/// file is rewritten with actual output and the run always succeeds (unless
/// a `statement` record misbehaves). Otherwise returns every mismatch.
pub fn run_file(path: &Path) -> Result<(), String> {
    // File I/O rides the Vfs boundary (xcheck's vfs-boundary invariant:
    // library code never touches `std::fs` directly).
    let vfs = os_vfs();
    let raw = vfs
        .read(path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let text =
        String::from_utf8(raw).map_err(|e| format!("{}: invalid utf8: {e}", path.display()))?;
    let mut corpus = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let recording = record_mode();
    let mut failures: Vec<String> = Vec::new();
    let mut wb = Workbook::new();

    for rec in &mut corpus.records {
        let at = format!("{}:{}", path.display(), rec.line);
        match &mut rec.kind {
            RecordKind::Statement { expect_err, sql } => {
                let result = wb.execute(sql);
                match (expect_err.as_ref(), result) {
                    (None, Ok(_)) => {}
                    (None, Err(e)) => {
                        failures.push(format!("{at}: statement failed: {e}\n  {sql}"))
                    }
                    (Some(_), Ok(_)) => failures.push(format!(
                        "{at}: statement succeeded, expected error\n  {sql}"
                    )),
                    (Some(want), Err(e)) => {
                        let got = e.to_string();
                        if !got.contains(want.as_str()) {
                            failures.push(format!(
                                "{at}: error mismatch\n  want substring: {want}\n  got: {got}"
                            ));
                        }
                    }
                }
            }
            RecordKind::Query {
                types,
                rowsort,
                sql,
                expected,
            } => match wb.query(sql) {
                Err(e) => failures.push(format!("{at}: query failed: {e}\n  {sql}")),
                Ok((cols, rows)) => {
                    if cols.len() != types.len() {
                        failures.push(format!(
                            "{at}: column count mismatch: types `{types}` vs {} columns",
                            cols.len()
                        ));
                        continue;
                    }
                    let mut actual = format_rows(&rows);
                    if *rowsort {
                        actual.sort();
                    }
                    if recording {
                        *expected = actual;
                    } else if actual != *expected {
                        failures.push(diff(&at, sql, expected, &actual));
                    }
                }
            },
            RecordKind::Explain { sql, expected } => match wb.query(&format!("EXPLAIN {sql}")) {
                Err(e) => failures.push(format!("{at}: explain failed: {e}\n  {sql}")),
                Ok((_, rows)) => {
                    let actual: Vec<String> = rows
                        .iter()
                        .map(|r| format_value(r.first().unwrap_or(&Value::Empty)))
                        .collect();
                    if recording {
                        *expected = actual;
                    } else if actual != *expected {
                        failures.push(diff(&at, sql, expected, &actual));
                    }
                }
            },
            RecordKind::Analyze { sql, expected } => {
                match wb.query(&format!("EXPLAIN ANALYZE {sql}")) {
                    Err(e) => failures.push(format!("{at}: analyze failed: {e}\n  {sql}")),
                    Ok((_, rows)) => {
                        let actual: Vec<String> = rows
                            .iter()
                            .map(|r| {
                                normalize_timings(&format_value(r.first().unwrap_or(&Value::Empty)))
                            })
                            .collect();
                        if recording {
                            *expected = actual;
                        } else if actual != *expected {
                            failures.push(diff(&at, sql, expected, &actual));
                        }
                    }
                }
            }
            RecordKind::Cell { a1, input } => {
                let sheet = wb.current_sheet();
                match CellAddr::parse_a1(a1) {
                    Err(e) => failures.push(format!("{at}: bad address {a1}: {e}")),
                    Ok(addr) => {
                        if let Err(e) = wb.set_input(sheet, addr, input) {
                            failures.push(format!("{at}: cell input failed: {e}"));
                        }
                    }
                }
            }
            RecordKind::Bind { model, a1, table } => {
                let m = match model.as_str() {
                    "tom" => BindModel::Tom,
                    "rom" => BindModel::Rom,
                    other => {
                        failures.push(format!("{at}: unsupported bind model {other:?}"));
                        continue;
                    }
                };
                let sheet = wb.current_sheet();
                match CellAddr::parse_a1(a1) {
                    Err(e) => failures.push(format!("{at}: bad address {a1}: {e}")),
                    Ok(addr) => {
                        if let Err(e) = wb.bind_table(sheet, addr, table, m) {
                            failures.push(format!("{at}: bind failed: {e}"));
                        }
                    }
                }
            }
        }
    }

    if recording {
        vfs.write_file(path, render(&corpus).as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn diff(at: &str, sql: &str, expected: &[String], actual: &[String]) -> String {
    format!(
        "{at}: result mismatch\n  {sql}\n  expected ({}):\n    {}\n  actual ({}):\n    {}",
        expected.len(),
        expected.join("\n    "),
        actual.len(),
        actual.join("\n    "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# header comment
statement ok
CREATE TABLE t (a INT)

query I rowsort
SELECT a FROM t
----
1
2

explain
SELECT * FROM t
----
project: a
scan t rows=0

cell A1 =1+2

bind tom B1 t

# trailing note
";

    #[test]
    fn parse_and_render_round_trip() {
        let corpus = parse(SAMPLE).unwrap();
        assert_eq!(corpus.records.len(), 5);
        assert_eq!(corpus.trailing, vec!["# trailing note"]);
        let RecordKind::Query {
            types,
            rowsort,
            sql,
            expected,
        } = &corpus.records[1].kind
        else {
            panic!("expected query record");
        };
        assert_eq!(types, "I");
        assert!(rowsort);
        assert_eq!(sql, "SELECT a FROM t");
        assert_eq!(expected, &["1", "2"]);
        assert_eq!(render(&corpus), SAMPLE);
    }

    #[test]
    fn statement_error_keeps_substring() {
        let corpus = parse("statement error table not found: x\nSELECT * FROM x\n").unwrap();
        let RecordKind::Statement { expect_err, .. } = &corpus.records[0].kind else {
            panic!("expected statement");
        };
        assert_eq!(expect_err.as_deref(), Some("table not found: x"));
    }

    #[test]
    fn missing_separator_is_an_error() {
        let err = parse("query I\nSELECT 1\n").unwrap_err();
        assert!(err.contains("----"), "{err}");
    }

    #[test]
    fn timing_normalization() {
        assert_eq!(
            normalize_timings("scan t (actual rows=3 loops=1 time=0.123ms)"),
            "scan t (actual rows=3 loops=1 time=<t>)"
        );
        assert_eq!(
            normalize_timings("a time=1ms b time=22.5ms c"),
            "a time=<t> b time=<t> c"
        );
        // Not a timing: left alone.
        assert_eq!(normalize_timings("uptime=high"), "uptime=high");
        assert_eq!(normalize_timings("no timings here"), "no timings here");
    }

    #[test]
    fn analyze_record_round_trip() {
        let text = "analyze\nSELECT 1\n----\nproject: 1 (actual rows=1 loops=1 time=<t>)\n";
        let corpus = parse(text).unwrap();
        let RecordKind::Analyze { sql, expected } = &corpus.records[0].kind else {
            panic!("expected analyze record");
        };
        assert_eq!(sql, "SELECT 1");
        assert_eq!(expected.len(), 1);
        assert_eq!(render(&corpus), text);
    }

    #[test]
    fn value_formatting() {
        assert_eq!(format_value(&Value::Empty), "NULL");
        assert_eq!(format_value(&Value::Text(String::new())), "(empty)");
        assert_eq!(format_value(&Value::Int(-3)), "-3");
        assert_eq!(format_value(&Value::Float(2.0)), "2");
        assert_eq!(format_value(&Value::Bool(true)), "TRUE");
    }
}
