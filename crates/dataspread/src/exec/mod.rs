//! The streaming `SELECT` executor: plan → operator pipeline → output.
//!
//! ```text
//!   FROM tree ──► Plan (planner.rs)        WHERE ──► conjuncts
//!                   │  ▲                              │
//!                   │  └── predicate pushdown ────────┘
//!                   ▼
//!   scan ─► filter ─► join (hash / nested-loop) ─► filter
//!                   ▼
//!   aggregate (hash GROUP BY) ─► HAVING ─► project ─► DISTINCT ─► sort ─► limit
//! ```
//!
//! * **Access paths** (`scan.rs`) — a table leaf whose pushed-down
//!   conjuncts pin every primary-key column to a literal of the column's
//!   kind reads one row through the key map (`key_probe`, shared with
//!   `UPDATE`/`DELETE`); every other leaf streams the table, reading only
//!   the attribute groups the query touches. Either way the leaf's filters
//!   run on what it reads. `RANGETABLE` regions are read column-bounded
//!   through `SheetResolver::range_table_pruned`, so grid scans touch fewer
//!   blocks.
//! * **Predicate pushdown** (`planner.rs`) — the `WHERE` conjunction is
//!   split and every single-side term sinks below the joins into its scan
//!   (left-join outer semantics respected).
//! * **Hash joins** (`join.rs`) — equi-join keys extracted from `ON` /
//!   `NATURAL` constraints drive a build/probe hash join with `sql_compare`
//!   verification; nested loops run only where a join has no equi-key.
//! * **Cost-based join order** (`cost.rs`) — inner equi-join chains are
//!   reordered by estimated cardinality, smaller inputs building.
//! * **Hash aggregation** (`aggregate.rs`) and **hash DISTINCT**
//!   (`output.rs`) — group lookup and dedup are O(1) per row via the
//!   normalized [`dataspread_sql::planner::HKey`].
//!
//! There is one execution path; the planner picks each operator from the
//! query. The reference semantics the pipeline is checked against live
//! outside the engine, in the naive evaluator of the `dataspread_slt`
//! crate.

pub(crate) mod aggregate;
pub(crate) mod cost;
pub(crate) mod explain;
pub(crate) mod join;
pub(crate) mod output;
pub(crate) mod planner;
pub(crate) mod scan;

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use dataspread_obs::Counter;
use dataspread_relstore::Catalog;
use dataspread_sql::ast::{Expr, SelectItem, SelectStmt};
use dataspread_sql::expr::{bind, eval, truth, AggContext, BExpr};
use dataspread_sql::planner::{collect_cols, split_conjuncts};
use dataspread_sql::resolver::SheetResolver;
use dataspread_types::{DsError, DsResult, Value};

pub(crate) use scan::key_probe;

use aggregate::{collect_aggregates, AggSpec};
use planner::{NodeMeter, Plan, Used};
use scan::FilterIter;

/// Per-operator executor counters. Handles are `Arc`-backed
/// ([`dataspread_obs::Counter`]); a workbook clones its set into every
/// [`ExecCtx`] it builds, so query work lands in the workbook's metrics
/// registry. `Default` gives standalone (unregistered) counters for tests.
#[derive(Clone, Debug, Default)]
pub(crate) struct ExecMetrics {
    /// SELECT statements executed.
    pub queries: Counter,
    /// Rows produced by leaf scans (table and range scans), pre-filter.
    pub rows_scanned: Counter,
    /// Rows returned to the client.
    pub rows_output: Counter,
    /// Rows materialized into join build sides.
    pub join_build_rows: Counter,
    /// Rows streamed through join probe sides.
    pub join_probe_rows: Counter,
}

/// Everything a query needs to run: the catalog, the live-sheet resolver,
/// and the counters that observe it.
pub(crate) struct ExecCtx<'a> {
    pub catalog: &'a Catalog,
    pub resolver: &'a dyn SheetResolver,
    pub metrics: ExecMetrics,
}

/// A stream of rows flowing through the operator pipeline. Errors surface
/// in-band so operators stay composable.
pub(crate) type RowStream<'a> = Box<dyn Iterator<Item = DsResult<Vec<Value>>> + 'a>;

/// Evaluate an expression with no row context (DEFAULTs, LIMIT, VALUES).
pub(crate) fn eval_standalone(e: &Expr, resolver: &dyn SheetResolver) -> DsResult<Value> {
    let b = bind(e, &[], None, resolver)?;
    eval(&b, &[], &[])
}

/// The `(OFFSET, LIMIT)` window of a `SELECT`, each argument evaluated to
/// a non-negative count (OFFSET defaults to 0, no LIMIT is `None`).
fn window(sel: &SelectStmt, resolver: &dyn SheetResolver) -> DsResult<(usize, Option<usize>)> {
    let count = |e: &Expr, what: &str| -> DsResult<usize> {
        let v = eval_standalone(e, resolver)?;
        let n = v
            .coerce_i64()
            .map_err(|_| DsError::Sql(format!("{what} must be an integer, got {v:?}")))?;
        if n < 0 {
            return Err(DsError::Sql(format!("{what} must be non-negative")));
        }
        Ok(n as usize)
    };
    let offset = match &sel.offset {
        Some(e) => count(e, "OFFSET")?,
        None => 0,
    };
    let limit = match &sel.limit {
        Some(e) => Some(count(e, "LIMIT")?),
        None => None,
    };
    Ok((offset, limit))
}

/// Do all filter conjuncts hold (`truth == Some(true)`) for `row`?
pub(crate) fn passes(preds: &[BExpr], row: &[Value]) -> DsResult<bool> {
    for p in preds {
        if truth(&eval(p, row, &[])?)? != Some(true) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// A `SELECT` planned up to (but not including) stream construction:
/// everything `execute_prepared` needs to run it, and everything `EXPLAIN`
/// needs to render. Planning reads snapshots and statistics only; nothing
/// here has executed, `FROM` subqueries included.
pub(crate) struct Prepared {
    pub(crate) plan: Plan,
    pub(crate) width: usize,
    pub(crate) top_filters: Vec<BExpr>,
    pub(crate) key_exprs: Vec<BExpr>,
    pub(crate) specs: Vec<AggSpec>,
    pub(crate) grouped: bool,
    pub(crate) having: Option<BExpr>,
    pub(crate) proj: Vec<(BExpr, String)>,
    pub(crate) order: Vec<(output::SortSrc, bool)>,
    pub(crate) distinct: bool,
    pub(crate) offset: usize,
    pub(crate) limit: Option<usize>,
}

/// Plan one `SELECT`: FROM tree, predicate pushdown, the hash-key upgrade,
/// cost-based join reordering, binding, used-column marking, and the
/// `(OFFSET, LIMIT)` window.
pub(crate) fn prepare_select(ctx: &ExecCtx<'_>, sel: &SelectStmt) -> DsResult<Prepared> {
    // FROM tree → plan + output schema. `SELECT 1+1` runs over one
    // anonymous empty row.
    let (mut plan, cols) = match &sel.from {
        Some(te) => planner::plan_from(ctx, te)?,
        None => (Plan::Dual, Vec::new()),
    };

    // WHERE: bind against the full schema (preserving ambiguity errors),
    // split the conjunction, sink what we can below the joins.
    let mut top_filters: Vec<BExpr> = Vec::new();
    if let Some(f) = &sel.filter {
        let bound = bind(f, &cols, None, ctx.resolver)?;
        for c in split_conjuncts(bound) {
            let mut refs = HashSet::new();
            collect_cols(&c, &mut refs);
            if !refs.is_empty() && !matches!(plan, Plan::Dual) {
                plan.absorb_filter(c);
            } else {
                top_filters.push(c);
            }
        }
    }
    // Equi conjuncts that landed in an inner join's post-filter (e.g.
    // `CROSS JOIN … WHERE l.v = r.w`) become hash keys.
    plan.upgrade_hash_joins();
    // With keys in place, reorder inner join chains by estimated
    // cardinality: smallest intermediate first, smaller input building.
    cost::optimize(&mut plan);

    // Aggregate discovery across projection, HAVING, and ORDER BY.
    let mut agg_exprs: Vec<Expr> = Vec::new();
    let mut slots = std::collections::HashMap::new();
    for item in &sel.projection {
        if let SelectItem::Expr { expr, .. } = item {
            collect_aggregates(expr, &mut agg_exprs, &mut slots);
        }
    }
    if let Some(h) = &sel.having {
        collect_aggregates(h, &mut agg_exprs, &mut slots);
    }
    for oi in &sel.order_by {
        collect_aggregates(&oi.expr, &mut agg_exprs, &mut slots);
    }
    let grouped = !sel.group_by.is_empty() || !agg_exprs.is_empty() || sel.having.is_some();

    let key_exprs: Vec<BExpr> = sel
        .group_by
        .iter()
        .map(|e| bind(e, &cols, None, ctx.resolver))
        .collect::<DsResult<_>>()?;
    let specs: Vec<AggSpec> = agg_exprs
        .iter()
        .map(|e| AggSpec::compile(e, &cols, ctx.resolver))
        .collect::<DsResult<_>>()?;

    let agg_ctx = AggContext { slots };
    let agg_ref = if grouped { Some(&agg_ctx) } else { None };

    // Bind HAVING, projection, and ORDER BY *before* building streams so
    // used-column marking sees every reference.
    let having = match &sel.having {
        Some(h) => Some(bind(h, &cols, agg_ref, ctx.resolver)?),
        None => None,
    };
    let proj = output::build_projection(sel, &cols, agg_ref, ctx.resolver, grouped)?;
    let order = output::build_order(sel, &proj, &cols, agg_ref, ctx.resolver)?;

    // Used-column analysis → scans read only what the query touches.
    let wildcard = sel
        .projection
        .iter()
        .any(|i| !matches!(i, SelectItem::Expr { .. }));
    let used = if wildcard {
        Used::All
    } else {
        let mut set = HashSet::new();
        for e in top_filters
            .iter()
            .chain(&key_exprs)
            .chain(having.iter())
            .chain(proj.iter().map(|(b, _)| b))
        {
            collect_cols(e, &mut set);
        }
        for (src, _) in &order {
            if let output::SortSrc::Ctx(b) = src {
                collect_cols(b, &mut set);
            }
        }
        for s in &specs {
            s.collect_cols(&mut set);
        }
        Used::Cols(set)
    };
    plan.mark_used(used);
    let (offset, limit) = window(sel, ctx.resolver)?;

    Ok(Prepared {
        plan,
        width: cols.len(),
        top_filters,
        key_exprs,
        specs,
        grouped,
        having,
        proj,
        order,
        distinct: sel.distinct,
        offset,
        limit,
    })
}

/// Run one `SELECT` to completion.
pub(crate) fn run_select(
    ctx: &ExecCtx<'_>,
    sel: &SelectStmt,
) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
    execute_prepared(ctx, prepare_select(ctx, sel)?, None)
}

/// Execute a prepared `SELECT`. With `meters`, every plan node's stream is
/// wrapped to record actual rows, loops, and wall time (the `EXPLAIN
/// ANALYZE` path); without, the pipeline runs unwrapped.
fn execute_prepared(
    ctx: &ExecCtx<'_>,
    prepared: Prepared,
    meters: Option<&mut Vec<Arc<NodeMeter>>>,
) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
    let Prepared {
        plan,
        width,
        top_filters,
        key_exprs,
        specs,
        grouped,
        having,
        proj,
        order,
        distinct,
        offset,
        limit,
    } = prepared;
    ctx.metrics.queries.bump();

    // Build the pipeline.
    let mut stream = planner::build(plan, ctx, meters)?;
    if !top_filters.is_empty() {
        stream = Box::new(FilterIter::new(stream, top_filters));
    }

    // Evaluation contexts: (representative row, aggregate slot values).
    let mut contexts: Vec<(Vec<Value>, Vec<Value>)> = if grouped {
        aggregate::aggregate(stream, &key_exprs, &specs, width)?
    } else {
        // Streaming early exit: the window is known up front, so with no
        // ordering, dedup, or grouping only the first OFFSET+LIMIT rows can
        // reach the output.
        let bound = match (limit, order.is_empty(), distinct) {
            (Some(l), true, false) => offset.saturating_add(l),
            _ => usize::MAX,
        };
        let mut out = Vec::new();
        for row in stream {
            if out.len() >= bound {
                break;
            }
            out.push((row?, Vec::new()));
        }
        out
    };

    // HAVING.
    if let Some(h) = &having {
        let mut kept = Vec::with_capacity(contexts.len());
        for (r, a) in contexts {
            if truth(&eval(h, &r, &a)?)? == Some(true) {
                kept.push((r, a));
            }
        }
        contexts = kept;
    }

    let rows = output::finish(contexts, &proj, &order, distinct, offset, limit)?;
    ctx.metrics.rows_output.add(rows.len() as u64);
    Ok((proj.into_iter().map(|(_, n)| n).collect(), rows))
}

/// Plan one `SELECT` and render the chosen physical plan as text lines
/// (`EXPLAIN`). Nothing runs: a `FROM` subquery renders as a nested plan
/// under its `derived` line, estimated from that plan.
pub(crate) fn explain_select(ctx: &ExecCtx<'_>, sel: &SelectStmt) -> DsResult<Vec<String>> {
    Ok(explain::render_with_marks(&prepare_select(ctx, sel)?).0)
}

/// `EXPLAIN ANALYZE`: plan, render the `EXPLAIN` tree, *execute* the plan
/// with per-node meters, then annotate each node line with its actual
/// rows/loops/wall-time next to the estimates. Returns the annotated lines
/// plus the executed result set so callers can cross-check actual row
/// counts against the equivalent `SELECT`.
pub(crate) fn analyze_select(
    ctx: &ExecCtx<'_>,
    sel: &SelectStmt,
) -> DsResult<(Vec<String>, Vec<Vec<Value>>)> {
    let prepared = prepare_select(ctx, sel)?;
    // Skeleton first: rendering borrows the plan, execution consumes it.
    // `render_with_marks` visits nodes (derived sub-plans included) in the
    // same pre-order as `planner::build` allocates meters, so marks[i]
    // pairs with meters[i].
    let (mut lines, marks) = explain::render_with_marks(&prepared);
    let mut meters: Vec<Arc<NodeMeter>> = Vec::new();
    let started = Instant::now();
    let (_, rows) = execute_prepared(ctx, prepared, Some(&mut meters))?;
    let total_ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    debug_assert_eq!(marks.len(), meters.len());
    for (mark, meter) in marks.iter().zip(&meters) {
        lines[*mark].push_str(&format!(
            " (actual rows={} loops={} time={})",
            meter.rows(),
            meter.loops(),
            fmt_ms(meter.ns()),
        ));
    }
    // The top shaping line gets the statement-level actuals.
    if let Some(first) = lines.first_mut() {
        first.push_str(&format!(
            " (actual rows={} time={})",
            rows.len(),
            fmt_ms(total_ns),
        ));
    }
    Ok((lines, rows))
}

/// Milliseconds with three decimals, the `EXPLAIN ANALYZE` time unit.
fn fmt_ms(ns: u64) -> String {
    format!("{:.3}ms", ns as f64 / 1_000_000.0)
}
