//! FROM-tree planning: leaf scans, join strategy selection, predicate
//! pushdown, and used-column marking.
//!
//! The plan is a thin tree mirroring the `FROM` clause. Planning is three
//! passes over it:
//!
//! 1. [`plan_from`] builds the tree bottom-up, computing each node's output
//!    schema and choosing a join strategy — hash build/probe when the
//!    constraint yields equi-keys ([`extract_equi_keys`]), nested loops
//!    otherwise. `ON` conjuncts that reference a single side sink into that
//!    side here (for `LEFT JOIN`, only right-side terms — left-side `ON`
//!    terms gate matching, they don't filter the preserved side).
//! 2. [`Plan::absorb_filter`] sinks `WHERE` conjuncts: a term whose columns
//!    all come from one join input descends into it (never into the
//!    null-supplying side of a `LEFT JOIN`, whose columns the term would see
//!    null-extended).
//! 3. [`Plan::mark_used`] pushes the set of referenced columns down to the
//!    leaves, so table scans skip unused attribute groups and `RANGETABLE`
//!    scans read a column-bounded window of the grid.
//!
//! [`build`] then turns the tree into the streaming operator pipeline.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dataspread_relstore::{KeyTuple, TableSnapshot};
use dataspread_sql::ast::{JoinConstraint, JoinKind, TableExpr};
use dataspread_sql::expr::{bind, ColInfo};
use dataspread_sql::planner::{cols_of, extract_equi_keys, remap_cols, split_conjuncts};
use dataspread_sql::BExpr;
use dataspread_types::{DsError, DsResult, Value};

use super::join::{HashJoin, NestedLoopJoin};
use super::scan::{key_probe, range_scan, table_scan, FilterIter};
use super::{execute_prepared, prepare_select, ExecCtx, Prepared, RowStream};

/// Which join input a column comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum Side {
    Left,
    Right,
}

/// Column set a subtree must materialize. `All` short-circuits tracking
/// (e.g. `SELECT *`).
pub(crate) enum Used {
    All,
    Cols(HashSet<usize>),
}

impl Used {
    fn insert(&mut self, i: usize) {
        if let Used::Cols(s) = self {
            s.insert(i);
        }
    }
}

/// One node of the FROM-tree plan. Every node carries `filters` applied to
/// its *output* rows — for leaves that is the pushed-down scan filter, for
/// joins the post-join leftovers that could not sink further.
pub(crate) enum Plan {
    /// `SELECT` without `FROM`: one anonymous empty row.
    Dual,
    /// Leaf read of an owned [`TableSnapshot`] taken at plan time: every
    /// `SELECT` reads a consistent per-table snapshot and never blocks (or
    /// is blocked by) writers for the duration of the scan. `probe` is the
    /// access path: `Some` when the filters pin the whole primary key
    /// ([`key_probe`]), so the leaf reads at most one row; the filters
    /// still run on it.
    TableScan {
        snap: TableSnapshot,
        filters: Vec<BExpr>,
        probe: Option<KeyTuple>,
        used: Used,
    },
    RangeScan {
        a1: String,
        width: usize,
        filters: Vec<BExpr>,
        used: Used,
    },
    /// Subquery in `FROM`, planned but not run: [`build`] executes it when
    /// the outer pipeline is built. Its output width is `sub.proj.len()`.
    Derived {
        sub: Box<Prepared>,
        filters: Vec<BExpr>,
    },
    Join(Box<JoinPlan>),
}

pub(crate) struct JoinPlan {
    pub(crate) left: Plan,
    pub(crate) right: Plan,
    pub(crate) left_width: usize,
    pub(crate) right_width: usize,
    pub(crate) kind: JoinKind,
    pub(crate) strategy: Strategy,
    /// Output columns as concat (`left ++ right`) indices; `None` is the
    /// identity (only `NATURAL` joins merge columns away).
    pub(crate) emit: Option<Vec<usize>>,
    /// Post-join filters, output-relative.
    pub(crate) filters: Vec<BExpr>,
}

pub(crate) enum Strategy {
    /// Build/probe hash join on `sql_compare`-equality of the key tuples.
    Hash {
        /// Key expressions over the left input's columns.
        left_keys: Vec<BExpr>,
        /// Key expressions over the right input's columns.
        right_keys: Vec<BExpr>,
        /// Remaining `ON` conjuncts, concat-relative.
        residual: Vec<BExpr>,
    },
    /// Nested loops with an optional conjunctive predicate, concat-relative.
    NestedLoop { pred: Vec<BExpr> },
}

// ---- pass 1: tree construction -------------------------------------------

/// Plan a FROM tree, returning the plan and its output schema.
pub(crate) fn plan_from(ctx: &ExecCtx<'_>, te: &TableExpr) -> DsResult<(Plan, Vec<ColInfo>)> {
    match te {
        TableExpr::Named { name, alias } => {
            // Take the snapshot under a briefly-held read lock; the scan
            // itself runs lock-free against the snapshot.
            let snap = ctx.catalog.get(name)?.snapshot();
            let q = alias.as_deref().unwrap_or(name);
            let cols = snap
                .schema()
                .columns()
                .iter()
                .map(|c| ColInfo::new(Some(q), c.name.clone()))
                .collect();
            Ok((
                Plan::TableScan {
                    snap,
                    filters: Vec::new(),
                    probe: None,
                    used: Used::Cols(HashSet::new()),
                },
                cols,
            ))
        }
        TableExpr::RangeTable { range, alias } => {
            let names = ctx.resolver.range_table_names(range)?;
            let cols: Vec<ColInfo> = names
                .into_iter()
                .map(|n| ColInfo::new(alias.as_deref(), n))
                .collect();
            Ok((
                Plan::RangeScan {
                    a1: range.clone(),
                    width: cols.len(),
                    filters: Vec::new(),
                    used: Used::Cols(HashSet::new()),
                },
                cols,
            ))
        }
        TableExpr::Subquery { query, alias } => {
            let sub = Box::new(prepare_select(ctx, query)?);
            let cols = (sub.proj.iter())
                .map(|(_, n)| ColInfo::new(Some(alias.as_str()), n.clone()))
                .collect();
            Ok((
                Plan::Derived {
                    sub,
                    filters: Vec::new(),
                },
                cols,
            ))
        }
        TableExpr::Join {
            left,
            right,
            kind,
            constraint,
        } => plan_join(ctx, left, right, *kind, constraint),
    }
}

fn plan_join(
    ctx: &ExecCtx<'_>,
    left: &TableExpr,
    right: &TableExpr,
    kind: JoinKind,
    constraint: &JoinConstraint,
) -> DsResult<(Plan, Vec<ColInfo>)> {
    let (mut lp, lcols) = plan_from(ctx, left)?;
    let (mut rp, rcols) = plan_from(ctx, right)?;
    let lw = lcols.len();

    let (strategy, emit, cols) = match constraint {
        JoinConstraint::Natural => {
            let pairs = natural_pairs(&lcols, &rcols)?;
            let keep_right: Vec<usize> = (0..rcols.len())
                .filter(|ri| !pairs.iter().any(|(_, p)| p == ri))
                .collect();
            let mut cols = lcols.clone();
            cols.extend(keep_right.iter().map(|&ri| rcols[ri].clone()));
            let emit: Vec<usize> = (0..lw)
                .chain(keep_right.iter().map(|&ri| lw + ri))
                .collect();
            let strategy = if pairs.is_empty() {
                // No shared columns: NATURAL degenerates to a cross join.
                Strategy::NestedLoop { pred: Vec::new() }
            } else {
                Strategy::Hash {
                    left_keys: pairs.iter().map(|&(li, _)| BExpr::Col(li)).collect(),
                    right_keys: pairs.iter().map(|&(_, ri)| BExpr::Col(ri)).collect(),
                    residual: Vec::new(),
                }
            };
            (strategy, Some(emit), cols)
        }
        JoinConstraint::On(e) => {
            let mut concat = lcols.clone();
            concat.extend(rcols.iter().cloned());
            let bound = bind(e, &concat, None, ctx.resolver)?;
            let mut conjuncts = split_conjuncts(bound);
            // Single-side ON terms sink into their input. For LEFT JOIN,
            // left-side terms must stay: they gate matching, not the
            // preserved rows.
            conjuncts.retain(|c| {
                let refs = cols_of(c);
                if refs.is_empty() {
                    return true;
                }
                let all_left = refs.iter().all(|&i| i < lw);
                let all_right = refs.iter().all(|&i| i >= lw);
                if all_left && kind != JoinKind::Left {
                    lp.absorb_filter(c.clone());
                    false
                } else if all_right {
                    rp.absorb_filter(remap_cols(c, &|i| i - lw));
                    false
                } else {
                    true
                }
            });
            // Equi conjuncts become hash keys; without one, nested loops.
            let keys = extract_equi_keys(conjuncts, lw);
            let strategy = if keys.left.is_empty() {
                Strategy::NestedLoop {
                    pred: keys.residual,
                }
            } else {
                Strategy::Hash {
                    left_keys: keys.left,
                    right_keys: keys.right,
                    residual: keys.residual,
                }
            };
            (strategy, None, concat)
        }
        JoinConstraint::None => {
            let mut concat = lcols.clone();
            concat.extend(rcols.iter().cloned());
            (Strategy::NestedLoop { pred: Vec::new() }, None, concat)
        }
    };

    Ok((
        Plan::Join(Box::new(JoinPlan {
            left: lp,
            right: rp,
            left_width: lw,
            right_width: rcols.len(),
            kind,
            strategy,
            emit,
            filters: Vec::new(),
        })),
        cols,
    ))
}

/// The (left, right) column pairs a `NATURAL JOIN` equi-joins on. A shared
/// name appearing more than once on either side is an error — the previous
/// executor silently joined on the first right-hand match.
fn natural_pairs(lcols: &[ColInfo], rcols: &[ColInfo]) -> DsResult<Vec<(usize, usize)>> {
    let mut pairs = Vec::new();
    for (li, lc) in lcols.iter().enumerate() {
        let matches: Vec<usize> = rcols
            .iter()
            .enumerate()
            .filter(|(_, rc)| rc.name.eq_ignore_ascii_case(&lc.name))
            .map(|(ri, _)| ri)
            .collect();
        match matches.as_slice() {
            [] => {}
            [ri] => {
                if lcols
                    .iter()
                    .enumerate()
                    .any(|(lj, lc2)| lj != li && lc2.name.eq_ignore_ascii_case(&lc.name))
                {
                    return Err(DsError::Sql(format!(
                        "NATURAL JOIN: column `{}` appears more than once on the left side",
                        lc.name
                    )));
                }
                pairs.push((li, *ri));
            }
            _ => {
                return Err(DsError::Sql(format!(
                    "NATURAL JOIN: column `{}` appears more than once on the right side",
                    lc.name
                )))
            }
        }
    }
    Ok(pairs)
}

// ---- pass 2: WHERE pushdown ----------------------------------------------

impl Plan {
    /// Install `pred` — bound against this node's output columns and
    /// referencing at least one of them — as deep in the tree as it can
    /// legally go. Always succeeds: the fallback is this node's own output
    /// filter.
    pub(crate) fn absorb_filter(&mut self, pred: BExpr) {
        match self {
            Plan::Dual => unreachable!("Dual has no columns to filter on"),
            Plan::TableScan {
                snap,
                filters,
                probe,
                ..
            } => {
                filters.push(pred);
                *probe = key_probe(snap.schema(), filters);
            }
            Plan::RangeScan { filters, .. } | Plan::Derived { filters, .. } => filters.push(pred),
            Plan::Join(j) => {
                let refs = cols_of(&pred);
                let sides: HashSet<Side> = refs.iter().map(|&i| j.child_of(i).0).collect();
                if let [side] = sides.into_iter().collect::<Vec<_>>()[..] {
                    // A WHERE term on the null-supplying side of a LEFT
                    // JOIN sees null-extended rows; it cannot sink.
                    let legal = side == Side::Left || j.kind != JoinKind::Left;
                    if legal {
                        let j: &mut JoinPlan = j;
                        let remapped = remap_cols(&pred, &|i| j.child_of(i).1);
                        match side {
                            Side::Left => j.left.absorb_filter(remapped),
                            Side::Right => j.right.absorb_filter(remapped),
                        }
                        return;
                    }
                }
                j.filters.push(pred);
            }
        }
    }

    /// After `WHERE` pushdown, equi conjuncts may be sitting in an inner
    /// join's post-filter (`CROSS JOIN … WHERE l.v = r.w`, or leftovers a
    /// child couldn't absorb). For inner/cross joins a post-filter is
    /// equivalent to a join predicate, so fold the filters in and
    /// re-extract hash keys — never for `LEFT JOIN`, where post-filters see
    /// null-extended rows.
    pub(crate) fn upgrade_hash_joins(&mut self) {
        let Plan::Join(j) = self else { return };
        j.left.upgrade_hash_joins();
        j.right.upgrade_hash_joins();
        if j.kind == JoinKind::Left {
            return;
        }
        // Everything below is concat-relative: post-filters come home
        // through the emit map, strategy conjuncts already are.
        let folded: Vec<BExpr> = std::mem::take(&mut j.filters)
            .iter()
            .map(|f| match &j.emit {
                None => f.clone(),
                Some(m) => remap_cols(f, &|i| m[i]),
            })
            .collect();
        let strategy =
            std::mem::replace(&mut j.strategy, Strategy::NestedLoop { pred: Vec::new() });
        let (mut left_keys, mut right_keys, mut conjuncts) = match strategy {
            Strategy::Hash {
                left_keys,
                right_keys,
                residual,
            } => (left_keys, right_keys, residual),
            Strategy::NestedLoop { pred } => (Vec::new(), Vec::new(), pred),
        };
        conjuncts.extend(folded);
        let keys = extract_equi_keys(conjuncts, j.left_width);
        left_keys.extend(keys.left);
        right_keys.extend(keys.right);
        j.strategy = if left_keys.is_empty() {
            Strategy::NestedLoop {
                pred: keys.residual,
            }
        } else {
            Strategy::Hash {
                left_keys,
                right_keys,
                residual: keys.residual,
            }
        };
    }

    // ---- pass 3: used-column marking -------------------------------------

    /// Record which of this node's output columns the query reads, and
    /// recurse. Filter and join-key columns are added on the way down.
    pub(crate) fn mark_used(&mut self, incoming: Used) {
        match self {
            Plan::Dual | Plan::Derived { .. } => {}
            Plan::TableScan { filters, used, .. } | Plan::RangeScan { filters, used, .. } => {
                let mut u = incoming;
                for f in filters.iter() {
                    for i in cols_of(f) {
                        u.insert(i);
                    }
                }
                *used = u;
            }
            Plan::Join(j) => {
                let (mut lu, mut ru) = match &incoming {
                    Used::All => (Used::All, Used::All),
                    Used::Cols(set) => {
                        let mut lu = HashSet::new();
                        let mut ru = HashSet::new();
                        for &i in set {
                            match j.child_of(i) {
                                (Side::Left, c) => lu.insert(c),
                                (Side::Right, c) => ru.insert(c),
                            };
                        }
                        (Used::Cols(lu), Used::Cols(ru))
                    }
                };
                for f in &j.filters {
                    for i in cols_of(f) {
                        let (side, c) = j.child_of(i);
                        match side {
                            Side::Left => lu.insert(c),
                            Side::Right => ru.insert(c),
                        }
                    }
                }
                let mut concat_refs = HashSet::new();
                match &j.strategy {
                    Strategy::Hash {
                        left_keys,
                        right_keys,
                        residual,
                    } => {
                        for k in left_keys {
                            for i in cols_of(k) {
                                lu.insert(i);
                            }
                        }
                        for k in right_keys {
                            for i in cols_of(k) {
                                ru.insert(i);
                            }
                        }
                        for r in residual {
                            concat_refs.extend(cols_of(r));
                        }
                    }
                    Strategy::NestedLoop { pred } => {
                        for p in pred {
                            concat_refs.extend(cols_of(p));
                        }
                    }
                }
                for i in concat_refs {
                    if i < j.left_width {
                        lu.insert(i);
                    } else {
                        ru.insert(i - j.left_width);
                    }
                }
                j.left.mark_used(lu);
                j.right.mark_used(ru);
            }
        }
    }
}

impl JoinPlan {
    /// Which child, and which of its columns, output column `i` comes from.
    fn child_of(&self, i: usize) -> (Side, usize) {
        let concat = match &self.emit {
            None => i,
            Some(m) => m[i],
        };
        if concat < self.left_width {
            (Side::Left, concat)
        } else {
            (Side::Right, concat - self.left_width)
        }
    }
}

// ---- stream construction -------------------------------------------------

/// Actuals for one plan node under `EXPLAIN ANALYZE`: rows emitted, times
/// the stream was started, and wall nanoseconds spent inside the node
/// (inclusive of its children, PostgreSQL-style).
#[derive(Debug, Default)]
pub(crate) struct NodeMeter {
    rows: AtomicU64,
    loops: AtomicU64,
    ns: AtomicU64,
}

impl NodeMeter {
    /// Rows this node emitted.
    pub(crate) fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
    /// Times the node's stream was started (always 1 in this executor —
    /// kept for plan-format fidelity with rescanning executors).
    pub(crate) fn loops(&self) -> u64 {
        self.loops.load(Ordering::Relaxed)
    }
    /// Wall nanoseconds spent pulling from this node, children included.
    pub(crate) fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }
}

/// Wraps a node's output stream, timing every `next()` and counting rows.
/// Only constructed under `EXPLAIN ANALYZE`; normal execution never pays
/// the per-row clock reads.
struct MeterIter<'a> {
    inner: RowStream<'a>,
    meter: Arc<NodeMeter>,
    started: bool,
}

impl Iterator for MeterIter<'_> {
    type Item = DsResult<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        if !self.started {
            self.started = true;
            self.meter.loops.fetch_add(1, Ordering::Relaxed);
        }
        let start = Instant::now();
        let item = self.inner.next();
        self.meter
            .ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if matches!(item, Some(Ok(_))) {
            self.meter.rows.fetch_add(1, Ordering::Relaxed);
        }
        item
    }
}

/// Turn a plan into its operator pipeline.
///
/// A `Derived` node runs its subquery here, to completion, so the sub-plan
/// executes only when the outer pipeline does.
///
/// With `meters` (the `EXPLAIN ANALYZE` path), each node's post-filter
/// stream is wrapped in a [`MeterIter`] and its meter pushed in *pre-order*
/// (self, then a derived node's sub-plan or a join's left and right) — the
/// same order `explain::render_with_marks` emits node lines, which is what
/// lets the annotator pair meters with lines by index.
pub(crate) fn build<'a>(
    plan: Plan,
    ctx: &ExecCtx<'a>,
    mut meters: Option<&mut Vec<Arc<NodeMeter>>>,
) -> DsResult<RowStream<'a>> {
    let meter = meters.as_mut().map(|v| {
        let m = Arc::new(NodeMeter::default());
        v.push(Arc::clone(&m));
        m
    });
    let stream = match plan {
        Plan::Dual => Box::new(std::iter::once(Ok(Vec::new()))) as RowStream<'a>,
        Plan::TableScan {
            snap,
            filters,
            probe,
            used,
        } => {
            let scan = counted(
                table_scan(snap, probe.as_ref(), &used),
                &ctx.metrics.rows_scanned,
            );
            filtered(scan, filters)
        }
        Plan::RangeScan {
            a1,
            width,
            filters,
            used,
        } => {
            let scan = counted(
                range_scan(ctx.resolver, &a1, width, &used)?,
                &ctx.metrics.rows_scanned,
            );
            filtered(scan, filters)
        }
        Plan::Derived { sub, filters } => {
            let (_, rows) = execute_prepared(ctx, *sub, meters)?;
            filtered(Box::new(rows.into_iter().map(Ok)), filters)
        }
        Plan::Join(j) => {
            let JoinPlan {
                left,
                right,
                left_width: _,
                right_width,
                kind,
                strategy,
                emit,
                filters,
            } = *j;
            // Left streams through the probe side; right is materialized
            // as the build side (both strategies consume right first).
            let lstream = counted(
                build(left, ctx, meters.as_deref_mut())?,
                &ctx.metrics.join_probe_rows,
            );
            let rstream = counted(build(right, ctx, meters)?, &ctx.metrics.join_build_rows);
            let left_join = kind == JoinKind::Left;
            let joined = match strategy {
                Strategy::Hash {
                    left_keys,
                    right_keys,
                    residual,
                } => HashJoin {
                    left: lstream,
                    right: rstream,
                    left_keys,
                    right_keys,
                    residual,
                    left_join,
                    right_width,
                    emit,
                }
                .into_stream()?,
                Strategy::NestedLoop { pred } => NestedLoopJoin {
                    left: lstream,
                    right: rstream,
                    pred,
                    left_join,
                    right_width,
                    emit,
                }
                .into_stream()?,
            };
            filtered(joined, filters)
        }
    };
    Ok(match meter {
        Some(m) => Box::new(MeterIter {
            inner: stream,
            meter: m,
            started: false,
        }),
        None => stream,
    })
}

/// Counts Ok rows through a stream into a shared counter. The tally is
/// kept in a local `u64` and folded in once on drop, so the hot path pays
/// a plain increment instead of per-row atomic traffic.
struct CountedStream<'a> {
    inner: RowStream<'a>,
    n: u64,
    counter: dataspread_obs::Counter,
}

impl Drop for CountedStream<'_> {
    fn drop(&mut self) {
        self.counter.add(self.n);
    }
}

impl Iterator for CountedStream<'_> {
    type Item = DsResult<Vec<Value>>;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        let item = self.inner.next();
        if matches!(item, Some(Ok(_))) {
            self.n += 1;
        }
        item
    }
}

fn counted<'a>(inner: RowStream<'a>, counter: &dataspread_obs::Counter) -> RowStream<'a> {
    Box::new(CountedStream {
        inner,
        n: 0,
        counter: counter.clone(),
    })
}

fn filtered(stream: RowStream<'_>, filters: Vec<BExpr>) -> RowStream<'_> {
    if filters.is_empty() {
        stream
    } else {
        Box::new(FilterIter::new(stream, filters))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataspread_relstore::{Catalog, ColumnDef, Schema};
    use dataspread_sql::ast::Statement;
    use dataspread_sql::parser::parse_statement;
    use dataspread_sql::resolver::NoSheet;
    use dataspread_types::DataType;

    /// Plan one SELECT's FROM tree, run WHERE pushdown + the hash upgrade,
    /// and hand the join root to `check`.
    fn plan_and_upgrade(sql: &str, check: impl FnOnce(&JoinPlan)) {
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                "l",
                Schema::new(vec![ColumnDef::new("v", DataType::Int)]).unwrap(),
            )
            .unwrap();
        catalog
            .create_table(
                "r",
                Schema::new(vec![ColumnDef::new("w", DataType::Int)]).unwrap(),
            )
            .unwrap();
        let Statement::Select(sel) = parse_statement(sql).unwrap() else {
            panic!("not a select");
        };
        let ctx = ExecCtx {
            catalog: &catalog,
            resolver: &NoSheet,
            metrics: Default::default(),
        };
        let (mut plan, cols) = plan_from(&ctx, sel.from.as_ref().unwrap()).unwrap();
        if let Some(f) = &sel.filter {
            let bound = bind(f, &cols, None, &NoSheet).unwrap();
            for c in split_conjuncts(bound) {
                plan.absorb_filter(c);
            }
        }
        plan.upgrade_hash_joins();
        let Plan::Join(j) = &plan else {
            panic!("expected a join root");
        };
        check(j);
    }

    #[test]
    fn where_equi_over_cross_join_upgrades_to_hash() {
        plan_and_upgrade("SELECT * FROM l CROSS JOIN r WHERE l.v = r.w", |j| {
            assert!(
                matches!(&j.strategy, Strategy::Hash { left_keys, .. } if left_keys.len() == 1),
                "equi WHERE over a cross join must become a hash join"
            );
            assert!(j.filters.is_empty(), "the conjunct moved into the keys");
        });
    }

    #[test]
    fn left_join_post_filter_is_never_folded_into_keys() {
        plan_and_upgrade(
            "SELECT * FROM l LEFT JOIN r ON l.v < r.w WHERE l.v = r.w",
            |j| {
                assert!(
                    matches!(&j.strategy, Strategy::NestedLoop { .. }),
                    "non-equi LEFT JOIN stays nested-loop"
                );
                assert_eq!(
                    j.filters.len(),
                    1,
                    "the WHERE equi term must stay a post-join filter"
                );
            },
        );
    }
}
