//! `EXPLAIN` rendering: the prepared physical plan as a stable text tree.
//!
//! The output is deliberately terse and deterministic — one line per
//! operator, two-space indentation for join inputs, cardinality estimates
//! from [`cost::estimate`] — so the golden suite can pin plan *shapes*
//! (which join strategy, which build side, how far filters sank) without
//! being brittle about expression formatting.

use super::cost;
use super::planner::{Plan, Strategy, Used};
use super::Prepared;
use dataspread_sql::ast::JoinKind;

/// Render the shaping stages (top) and the plan tree (bottom) as one line
/// per row of `EXPLAIN` output, also returning the output index of every
/// plan-node line in pre-order (self, then a derived node's sub-plan or a
/// join's left and right) — the same order `planner::build` allocates node
/// meters, so `EXPLAIN ANALYZE` can pair them by position.
pub(crate) fn render_with_marks(p: &Prepared) -> (Vec<String>, Vec<usize>) {
    let (mut out, mut marks) = (Vec::new(), Vec::new());
    prepared(p, 0, &mut out, &mut marks);
    (out, marks)
}

/// One `SELECT`'s lines at `depth`: a `FROM` subquery renders here too,
/// one level under its `derived` line.
fn prepared(p: &Prepared, depth: usize, out: &mut Vec<String>, marks: &mut Vec<usize>) {
    let pad = "  ".repeat(depth);
    let names: Vec<&str> = p.proj.iter().map(|(_, n)| n.as_str()).collect();
    out.push(format!("{pad}project: {}", names.join(", ")));
    if p.distinct {
        out.push(format!("{pad}distinct"));
    }
    if !p.order.is_empty() {
        out.push(format!("{pad}sort: {} keys", p.order.len()));
    }
    match (p.limit, p.offset) {
        (Some(l), 0) => out.push(format!("{pad}limit: {l}")),
        (Some(l), o) => out.push(format!("{pad}limit: {l} offset: {o}")),
        (None, o) if o > 0 => out.push(format!("{pad}offset: {o}")),
        _ => {}
    }
    if p.grouped {
        let mut line = format!(
            "{pad}aggregate: {} groups, {} aggregates",
            p.key_exprs.len(),
            p.specs.len()
        );
        if p.having.is_some() {
            line.push_str(", having");
        }
        out.push(line);
    }
    if !p.top_filters.is_empty() {
        out.push(format!("{pad}filter: {} predicates", p.top_filters.len()));
    }
    node(&p.plan, depth, out, marks);
}

fn est_of(plan: &Plan) -> u64 {
    let rows = cost::estimate(plan).rows;
    rows.round().clamp(0.0, u64::MAX as f64) as u64
}

fn node(plan: &Plan, depth: usize, out: &mut Vec<String>, marks: &mut Vec<usize>) {
    marks.push(out.len());
    let pad = "  ".repeat(depth);
    match plan {
        Plan::Dual => out.push(format!("{pad}dual")),
        Plan::TableScan {
            snap,
            filters,
            probe,
            used,
        } => {
            let access = if probe.is_some() { "probe" } else { "scan" };
            let mut line = format!("{pad}{access} {} rows={}", snap.name(), snap.row_count());
            if probe.is_some() {
                let schema = snap.schema();
                let key: Vec<&str> = (schema.pkey().iter())
                    .map(|&c| schema.column(c).name.as_str())
                    .collect();
                line.push_str(&format!(" key=({})", key.join(", ")));
            }
            if !filters.is_empty() {
                line.push_str(&format!(" filters={} est~{}", filters.len(), est_of(plan)));
            }
            if let Used::Cols(set) = used {
                line.push_str(&format!(" cols={}/{}", set.len(), snap.schema().width()));
            }
            out.push(line);
        }
        Plan::RangeScan {
            a1,
            width,
            filters,
            used,
        } => {
            let mut line = format!("{pad}range-scan {a1}");
            if !filters.is_empty() {
                line.push_str(&format!(" filters={}", filters.len()));
            }
            if let Used::Cols(set) = used {
                line.push_str(&format!(" cols={}/{width}", set.len()));
            }
            out.push(line);
        }
        Plan::Derived { sub, filters } => {
            let mut line = format!("{pad}derived");
            if !filters.is_empty() {
                line.push_str(&format!(" filters={}", filters.len()));
            }
            out.push(format!("{line} est~{}", est_of(plan)));
            prepared(sub, depth + 1, out, marks);
        }
        Plan::Join(j) => {
            let prefix = if j.kind == JoinKind::Left {
                "left-"
            } else {
                ""
            };
            let mut line = match &j.strategy {
                Strategy::Hash {
                    left_keys,
                    residual,
                    ..
                } => {
                    let mut l = format!("{pad}{prefix}hash-join keys={}", left_keys.len());
                    if !residual.is_empty() {
                        l.push_str(&format!(" residual={}", residual.len()));
                    }
                    l
                }
                Strategy::NestedLoop { pred } => {
                    let mut l = format!("{pad}{prefix}nested-loop-join");
                    if !pred.is_empty() {
                        l.push_str(&format!(" pred={}", pred.len()));
                    }
                    l
                }
            };
            if !j.filters.is_empty() {
                line.push_str(&format!(" filters={}", j.filters.len()));
            }
            line.push_str(&format!(" est~{}", est_of(plan)));
            out.push(line);
            node(&j.left, depth + 1, out, marks);
            node(&j.right, depth + 1, out, marks);
        }
    }
}
