//! Cost-based join ordering over the optimizer statistics of `relstore`.
//!
//! [`estimate`] walks a plan bottom-up, combining table cardinalities with
//! the per-column NDV/min-max summaries captured in each
//! [`TableSnapshot`](dataspread_relstore::TableSnapshot) to predict output
//! cardinalities (equality selects `1/ndv`, an equi-join keeps
//! `|L|·|R| / max(ndv_l, ndv_r)` rows, ranges keep a third).
//!
//! [`optimize`] uses those estimates to reorder *inner equi-join chains*:
//! every maximal run of inner/cross joins (identity emit) is flattened into
//! its leaf relations plus a global conjunct pool, a greedy pass joins the
//! cheapest connected pair first and then accretes the relation that keeps
//! the intermediate result smallest, and the chain is rebuilt left-deep with
//! the *smaller* input on the right — the build side of the hash join. A
//! final emit permutation on the root restores the syntactic column order,
//! so reordering is invisible to everything downstream of the planner.
//!
//! `LEFT JOIN` and `NATURAL JOIN` nodes are never reordered across (their
//! emit/null semantics pin them in place), but the pass recurses into their
//! inputs.

use std::collections::{BTreeSet, HashMap};

use dataspread_sql::ast::{BinOp, JoinKind};
use dataspread_sql::expr::BExpr;
use dataspread_sql::planner::{cols_of, extract_equi_keys, remap_cols};
use dataspread_types::{Range, Value};

use super::planner::{JoinPlan, Plan, Strategy};

/// Default selectivity for predicates the estimator cannot decompose.
const SEL_DEFAULT: f64 = 1.0 / 3.0;
/// Fallback equality selectivity when no NDV is available.
const SEL_EQ_DEFAULT: f64 = 0.1;

// ---- cardinality estimation ----------------------------------------------

/// Estimated shape of a (sub)plan's output.
pub(crate) struct Est {
    /// Expected row count after this node's filters.
    pub(crate) rows: f64,
    /// Per output column: expected distinct count, capped at `rows`.
    pub(crate) ndv: Vec<f64>,
}

/// Estimate a plan node bottom-up from snapshot statistics.
pub(crate) fn estimate(plan: &Plan) -> Est {
    match plan {
        Plan::Dual => Est {
            rows: 1.0,
            ndv: Vec::new(),
        },
        Plan::TableScan {
            snap,
            filters,
            probe,
            ..
        } => {
            let base = snap.row_count() as f64;
            let width = snap.schema().width();
            let mut ndv: Vec<f64> = (0..width)
                .map(|i| match snap.col_summary(i) {
                    Some(s) if s.ndv > 0.0 => s.ndv.min(base.max(1.0)),
                    _ => base.max(1.0),
                })
                .collect();
            let rows = apply_filters(base, filters, |c| {
                let s = snap.col_summary(c)?;
                let nulls = if base > 0.0 {
                    s.nulls as f64 / base
                } else {
                    0.0
                };
                Some((s.ndv.max(1.0), nulls.min(1.0)))
            });
            // A key probe reads at most one row.
            let rows = if probe.is_some() { rows.min(1.0) } else { rows };
            cap_ndv(&mut ndv, rows);
            Est { rows, ndv }
        }
        Plan::RangeScan {
            a1, width, filters, ..
        } => {
            // The live resolver rejects a reference that does not parse
            // while planning; only a static test resolver reaches the
            // 100-row fallback.
            let rest = a1.rsplit_once('!').map_or(a1.as_str(), |(_, r)| r);
            let base = Range::parse_a1(rest.trim()).map_or(100.0, |r| r.height() as f64);
            let rows = apply_filters(base, filters, |_| None);
            let mut ndv = vec![base.max(1.0); *width];
            cap_ndv(&mut ndv, rows);
            Est { rows, ndv }
        }
        Plan::Derived { sub, filters } => {
            // The subquery's own plan, shaped as it will run: its
            // column-free filters, at most one row per group, its LIMIT.
            let input = estimate(&sub.plan);
            let mut base = apply_filters(input.rows, &sub.top_filters, |_| None);
            if sub.grouped {
                let groups = sub.key_exprs.iter().map(|k| ndv_of(k, &input));
                base = base.min(groups.product());
            }
            if let Some(limit) = sub.limit {
                base = base.min(limit as f64);
            }
            let est_rows = apply_filters(base, filters, |_| None);
            let mut ndv = vec![base.max(1.0); sub.proj.len()];
            cap_ndv(&mut ndv, est_rows);
            Est {
                rows: est_rows,
                ndv,
            }
        }
        Plan::Join(j) => {
            let l = estimate(&j.left);
            let r = estimate(&j.right);
            let mut sel = 1.0;
            match &j.strategy {
                Strategy::Hash {
                    left_keys,
                    right_keys,
                    residual,
                } => {
                    for (lk, rk) in left_keys.iter().zip(right_keys) {
                        let d = ndv_of(lk, &l).max(ndv_of(rk, &r)).max(1.0);
                        sel /= d;
                    }
                    sel *= SEL_DEFAULT.powi(residual.len() as i32);
                }
                Strategy::NestedLoop { pred } => {
                    sel *= SEL_DEFAULT.powi(pred.len() as i32);
                }
            }
            sel *= SEL_DEFAULT.powi(j.filters.len() as i32);
            let mut rows = l.rows * r.rows * sel;
            if j.kind == JoinKind::Left {
                // Preserved side: every left row survives.
                rows = rows.max(l.rows);
            }
            let concat: Vec<f64> = l.ndv.iter().chain(r.ndv.iter()).copied().collect();
            let mut ndv: Vec<f64> = match &j.emit {
                None => concat,
                Some(m) => m.iter().map(|&i| concat[i]).collect(),
            };
            cap_ndv(&mut ndv, rows);
            Est { rows, ndv }
        }
    }
}

/// NDV of a join-key expression over one input: a bare column uses its
/// summary, anything composite falls back to the input's cardinality.
fn ndv_of(key: &BExpr, input: &Est) -> f64 {
    match key {
        BExpr::Col(c) => input.ndv.get(*c).copied().unwrap_or(input.rows),
        _ => input.rows.max(1.0),
    }
}

fn cap_ndv(ndv: &mut [f64], rows: f64) {
    let cap = rows.max(1.0);
    for d in ndv {
        *d = d.min(cap);
    }
}

/// Multiply `base` by the selectivity of each conjunct. `col_info` maps a
/// column to `(ndv, null_fraction)` when statistics are available.
fn apply_filters(
    base: f64,
    filters: &[BExpr],
    col_info: impl Fn(usize) -> Option<(f64, f64)>,
) -> f64 {
    let mut rows = base;
    for f in filters {
        rows *= selectivity(f, &col_info);
    }
    rows
}

fn selectivity(pred: &BExpr, col_info: &impl Fn(usize) -> Option<(f64, f64)>) -> f64 {
    match pred {
        BExpr::Binary { left, op, right } => match op {
            BinOp::Eq => eq_selectivity(left, right, col_info),
            BinOp::NotEq => 1.0 - eq_selectivity(left, right, col_info),
            BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => SEL_DEFAULT,
            BinOp::And => selectivity(left, col_info) * selectivity(right, col_info),
            BinOp::Or => {
                let (a, b) = (selectivity(left, col_info), selectivity(right, col_info));
                (a + b - a * b).min(1.0)
            }
            _ => SEL_DEFAULT,
        },
        BExpr::IsNull { expr, negated } => {
            let frac = match expr.as_ref() {
                BExpr::Col(c) => col_info(*c).map_or(SEL_EQ_DEFAULT, |(_, nulls)| nulls),
                _ => SEL_EQ_DEFAULT,
            };
            if *negated {
                1.0 - frac
            } else {
                frac
            }
        }
        BExpr::InList {
            expr,
            list,
            negated,
        } => {
            let one = eq_selectivity(expr, &BExpr::Literal(Value::Empty), col_info);
            let sel = (one * list.len() as f64).min(1.0);
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        BExpr::Between { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        BExpr::Like { negated, .. } => {
            if *negated {
                0.75
            } else {
                0.25
            }
        }
        _ => SEL_DEFAULT,
    }
}

fn eq_selectivity(a: &BExpr, b: &BExpr, col_info: &impl Fn(usize) -> Option<(f64, f64)>) -> f64 {
    let col = match (a, b) {
        (BExpr::Col(c), BExpr::Literal(_)) | (BExpr::Literal(_), BExpr::Col(c)) => Some(*c),
        (BExpr::Col(c), _) | (_, BExpr::Col(c)) => Some(*c),
        _ => None,
    };
    col.and_then(col_info)
        .map_or(SEL_EQ_DEFAULT, |(ndv, _)| 1.0 / ndv.max(1.0))
}

// ---- join reordering ------------------------------------------------------

/// Reorder every inner equi-join chain in `plan` by estimated cardinality.
/// A `FROM` subquery was optimized when it was planned, so leaves other
/// than joins are left as they are.
pub(crate) fn optimize(plan: &mut Plan) {
    let Plan::Join(j) = plan else { return };
    if !reorderable(j) {
        // A pinned join (LEFT / NATURAL): recurse into its inputs only.
        optimize(&mut j.left);
        optimize(&mut j.right);
        return;
    }
    // Identity emit: the chain's width is its two inputs'.
    let width = j.left_width + j.right_width;
    let chain = std::mem::replace(plan, Plan::Dual);
    *plan = reorder_chain(chain, width);
}

/// Inner/cross joins with identity emit can be flattened and reordered
/// freely; LEFT JOIN pins its operand order and NATURAL merges columns.
fn reorderable(j: &JoinPlan) -> bool {
    j.emit.is_none() && j.kind != JoinKind::Left
}

/// One relation of a flattened join chain, remembering which global
/// (syntactic concat) columns it produces.
struct Leaf {
    plan: Plan,
    start: usize,
    width: usize,
}

/// Flatten a reorderable join subtree into leaves plus a conjunct pool in
/// global (whole-chain concat) coordinates.
fn flatten(plan: Plan, width: usize, start: usize, leaves: &mut Vec<Leaf>, conjs: &mut Vec<BExpr>) {
    match plan {
        Plan::Join(j) if reorderable(&j) => {
            let JoinPlan {
                left,
                right,
                left_width,
                strategy,
                filters,
                ..
            } = *j;
            match strategy {
                Strategy::Hash {
                    left_keys,
                    right_keys,
                    residual,
                } => {
                    for (lk, rk) in left_keys.into_iter().zip(right_keys) {
                        conjs.push(BExpr::Binary {
                            left: Box::new(remap_cols(&lk, &|i| i + start)),
                            op: BinOp::Eq,
                            right: Box::new(remap_cols(&rk, &|i| i + start + left_width)),
                        });
                    }
                    conjs.extend(residual.iter().map(|r| remap_cols(r, &|i| i + start)));
                }
                Strategy::NestedLoop { pred } => {
                    conjs.extend(pred.iter().map(|p| remap_cols(p, &|i| i + start)));
                }
            }
            // Identity emit: post-join filters are already concat-relative.
            conjs.extend(filters.iter().map(|f| remap_cols(f, &|i| i + start)));
            flatten(left, left_width, start, leaves, conjs);
            flatten(right, width - left_width, start + left_width, leaves, conjs);
        }
        mut other => {
            optimize(&mut other);
            leaves.push(Leaf {
                plan: other,
                start,
                width,
            });
        }
    }
}

/// One side of an equi conjunct: its leaf, plus the bare column when the
/// side is a plain column reference (which lets NDV drive the estimate).
type EquiSide = (usize, Option<usize>);

/// A conjunct's footprint over the chain's leaves.
struct ConjInfo {
    leaves: BTreeSet<usize>,
    /// `Some((l, r))` when this is `a = b` with each side on one distinct
    /// leaf — the equi edges that make join orders "connected".
    equi: Option<(EquiSide, EquiSide)>,
}

fn classify(conj: &BExpr, leaf_of: &impl Fn(usize) -> usize) -> ConjInfo {
    let leaves: BTreeSet<usize> = cols_of(conj).into_iter().map(leaf_of).collect();
    let equi = match conj {
        BExpr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => {
            let side = |e: &BExpr| -> Option<(usize, Option<usize>)> {
                let cols = cols_of(e);
                let ls: BTreeSet<usize> = cols.iter().map(|&c| leaf_of(c)).collect();
                match ls.len() {
                    1 => {
                        let leaf = *ls.iter().next().unwrap();
                        let col = match e {
                            BExpr::Col(c) => Some(*c),
                            _ => None,
                        };
                        Some((leaf, col))
                    }
                    _ => None,
                }
            };
            match (side(left), side(right)) {
                (Some(a), Some(b)) if a.0 != b.0 => Some((a, b)),
                _ => None,
            }
        }
        _ => None,
    };
    ConjInfo { leaves, equi }
}

/// Greedy state while accreting the join order.
struct Greedy<'a> {
    ests: &'a [Est],
    leaves: &'a [Leaf],
    conjs: &'a [ConjInfo],
    used: Vec<bool>,
    chosen: BTreeSet<usize>,
    rows: f64,
    /// Global column → current distinct estimate, for chosen leaves.
    ndv: HashMap<usize, f64>,
}

impl Greedy<'_> {
    fn leaf_rows(&self, li: usize) -> f64 {
        self.ests[li].rows
    }

    /// NDV of an equi endpoint, reading the running map for chosen leaves
    /// and the leaf estimate for the incoming one.
    fn endpoint_ndv(&self, (leaf, col): (usize, Option<usize>), incoming_rows: f64) -> f64 {
        match col {
            Some(g) => {
                if let Some(&d) = self.ndv.get(&g) {
                    d
                } else {
                    let l = &self.leaves[leaf];
                    let est = &self.ests[leaf];
                    // Checked like `ndv_of`: a leaf whose estimate carries
                    // fewer NDV slots than its logical width falls back to
                    // its cardinality.
                    est.ndv.get(g - l.start).copied().unwrap_or(est.rows)
                }
            }
            None => {
                if self.chosen.contains(&leaf) {
                    self.rows.max(1.0)
                } else {
                    incoming_rows.max(1.0)
                }
            }
        }
    }

    /// Estimated cardinality of joining the current set with leaf `cand`,
    /// plus whether any equi conjunct connects them and which conjuncts
    /// would be consumed.
    fn probe(&self, cand: usize) -> (f64, bool, Vec<usize>) {
        let mut rows = self.rows * self.leaf_rows(cand);
        let mut connected = false;
        let mut consumed = Vec::new();
        for (ci, info) in self.conjs.iter().enumerate() {
            if self.used[ci] || info.leaves.is_empty() || !info.leaves.contains(&cand) {
                continue;
            }
            if !info
                .leaves
                .iter()
                .all(|l| *l == cand || self.chosen.contains(l))
            {
                continue;
            }
            consumed.push(ci);
            match &info.equi {
                Some((a, b)) if info.leaves.len() > 1 => {
                    connected = true;
                    let d = self
                        .endpoint_ndv(*a, self.leaf_rows(cand))
                        .max(self.endpoint_ndv(*b, self.leaf_rows(cand)))
                        .max(1.0);
                    rows /= d;
                }
                _ => rows *= SEL_DEFAULT,
            }
        }
        (rows, connected, consumed)
    }

    fn admit(&mut self, cand: usize, rows: f64, consumed: &[usize]) {
        for &ci in consumed {
            self.used[ci] = true;
        }
        self.chosen.insert(cand);
        self.rows = rows;
        let leaf = &self.leaves[cand];
        for (off, &d) in self.ests[cand].ndv.iter().enumerate() {
            self.ndv.insert(leaf.start + off, d);
        }
        let cap = self.rows.max(1.0);
        for d in self.ndv.values_mut() {
            *d = d.min(cap);
        }
    }
}

/// Pick the join order: cheapest connected pair first, then repeatedly the
/// relation that keeps the intermediate smallest (connected candidates
/// preferred — cross products only as a last resort). Within the first
/// pair the larger relation streams (left) and the smaller builds (right).
fn greedy_order(leaves: &[Leaf], ests: &[Est], conjs: &[ConjInfo]) -> Vec<usize> {
    let n = leaves.len();
    let mut g = Greedy {
        ests,
        leaves,
        conjs,
        used: vec![false; conjs.len()],
        chosen: BTreeSet::new(),
        rows: 1.0,
        ndv: HashMap::new(),
    };

    // Seed: the cheapest pair, equi-connected pairs strictly preferred.
    // `probe` against a single admitted leaf evaluates the pair's joint
    // conjuncts.
    // Ranking key: equi-connected first, then estimated rows, then leaf
    // indexes as the deterministic tie-break.
    type SeedKey = (bool, f64, usize, usize);
    let mut best: Option<(SeedKey, usize, usize)> = None;
    for i in 0..n {
        let mut trial = Greedy {
            ests,
            leaves,
            conjs,
            used: vec![false; conjs.len()],
            chosen: BTreeSet::new(),
            rows: 1.0,
            ndv: HashMap::new(),
        };
        trial.admit(i, ests[i].rows, &[]);
        for j in (0..n).filter(|&j| j != i) {
            let (rows, connected, _) = trial.probe(j);
            let key = (!connected, rows, i.min(j), i.max(j));
            if best.as_ref().is_none_or(|(bk, _, _)| key < *bk) {
                best = Some((key, i, j));
            }
        }
    }
    let (_, a, b) = best.expect("chain has at least two leaves");
    // Larger streams on the left, smaller builds on the right.
    let (first, second) = if ests[a].rows >= ests[b].rows {
        (a, b)
    } else {
        (b, a)
    };
    g.admit(first, ests[first].rows, &[]);
    let (rows, _, consumed) = g.probe(second);
    g.admit(second, rows, &consumed);

    let mut order = vec![first, second];
    while order.len() < n {
        let mut best: Option<((bool, f64, usize), usize)> = None;
        for cand in (0..n).filter(|c| !g.chosen.contains(c)) {
            let (rows, connected, _) = g.probe(cand);
            let key = (!connected, rows, cand);
            if best.as_ref().is_none_or(|(bk, _)| key < *bk) {
                best = Some((key, cand));
            }
        }
        let (_, cand) = best.expect("unchosen leaf remains");
        let (rows, _, consumed) = g.probe(cand);
        g.admit(cand, rows, &consumed);
        order.push(cand);
    }
    order
}

/// Flatten, order, and rebuild one chain left-deep, restoring the original
/// output column order with a root emit permutation.
fn reorder_chain(plan: Plan, width: usize) -> Plan {
    let mut leaves = Vec::new();
    let mut pool = Vec::new();
    flatten(plan, width, 0, &mut leaves, &mut pool);
    debug_assert!(leaves.len() >= 2, "a join root flattens to >=2 leaves");

    let ranges: Vec<(usize, usize)> = leaves.iter().map(|l| (l.start, l.width)).collect();
    let leaf_of = |g: usize| -> usize {
        ranges
            .iter()
            .position(|&(s, w)| g >= s && g < s + w)
            .expect("column within chain")
    };
    let infos: Vec<ConjInfo> = pool.iter().map(|c| classify(c, &leaf_of)).collect();
    let ests: Vec<Est> = leaves.iter().map(|l| estimate(&l.plan)).collect();
    let order = greedy_order(&leaves, &ests, &infos);

    // Column-free conjuncts (e.g. `ON 1 = 1`) apply at the root.
    let mut consts = Vec::new();
    let mut pending: Vec<BExpr> = Vec::new();
    for (c, info) in pool.into_iter().zip(&infos) {
        if info.leaves.is_empty() {
            consts.push(c);
        } else {
            pending.push(c);
        }
    }

    let mut slots: Vec<Option<Leaf>> = leaves.into_iter().map(Some).collect();
    let first = slots[order[0]].take().expect("leaf taken once");
    let mut cur = first.plan;
    let mut cur_cols: Vec<usize> = (first.start..first.start + first.width).collect();

    for &oi in &order[1..] {
        let leaf = slots[oi].take().expect("leaf taken once");
        // Hash joins build on the right: stream whichever input is larger.
        let swap = ests[oi].rows > estimate(&cur).rows;
        let (left, right, left_cols, right_cols) = if swap {
            let leaf_cols: Vec<usize> = (leaf.start..leaf.start + leaf.width).collect();
            (leaf.plan, cur, leaf_cols, cur_cols)
        } else {
            let leaf_cols: Vec<usize> = (leaf.start..leaf.start + leaf.width).collect();
            (cur, leaf.plan, cur_cols, leaf_cols)
        };
        let lw = left_cols.len();
        let rw = right_cols.len();
        let mut concat = left_cols;
        concat.extend(right_cols);
        let pos: HashMap<usize, usize> = concat.iter().enumerate().map(|(p, &g)| (g, p)).collect();

        let (ready, rest): (Vec<BExpr>, Vec<BExpr>) = pending
            .into_iter()
            .partition(|c| cols_of(c).iter().all(|g| pos.contains_key(g)));
        pending = rest;
        let local: Vec<BExpr> = ready.iter().map(|c| remap_cols(c, &|g| pos[&g])).collect();
        let keys = extract_equi_keys(local, lw);
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
        cur = Plan::Join(Box::new(JoinPlan {
            left,
            right,
            left_width: lw,
            right_width: rw,
            kind: JoinKind::Inner,
            strategy,
            emit: None,
            filters: Vec::new(),
        }));
        cur_cols = concat;
    }
    debug_assert!(
        pending.is_empty(),
        "every conjunct lands once all leaves join"
    );

    let pos: HashMap<usize, usize> = cur_cols.iter().enumerate().map(|(p, &g)| (g, p)).collect();
    let perm: Vec<usize> = (0..width).map(|g| pos[&g]).collect();
    if let Plan::Join(j) = &mut cur {
        // Root filters are the column-free leftovers, unaffected by emit.
        j.filters.extend(consts);
        if perm.iter().enumerate().any(|(i, &p)| i != p) {
            j.emit = Some(perm);
        }
    }
    cur
}
