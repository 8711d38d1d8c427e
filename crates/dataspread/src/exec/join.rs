//! Join operators: build/probe hash join and the nested-loop fallback.
//!
//! Both stream the **left** input and materialize the right (the build
//! side), and both emit matches for a given left row in right-scan order.
//! The planner picks the hash join whenever the constraint yields an
//! equi-key, and nested loops only where it yields none.
//!
//! Hash matching is two-staged: the normalized
//! [`join_key`](dataspread_sql::planner::join_key) buckets candidates (any
//! `sql_compare`-equal pair is guaranteed to share a bucket), then every
//! candidate is re-verified with `sql_compare`, which also gives NULL keys
//! their never-match semantics. So a comparison of *incomparable* types
//! behaves by its form: the equi form `ON t.txt = u.num` never pairs a text
//! key with a number and simply matches nothing, while a non-equi form of
//! the same comparison, `ON NOT (t.txt <> u.num)`, runs under nested loops
//! and fails with `cannot compare`. `crates/slt/tests/golden/errors.test`
//! pins both records.

use std::collections::HashMap;
use std::rc::Rc;

use dataspread_sql::expr::{eval, sql_compare, BExpr};
use dataspread_sql::planner::{join_key_row, HKey};
use dataspread_types::{DsResult, Value};

use super::{passes, RowStream};

/// Build/probe hash join over equi-key tuples.
pub(crate) struct HashJoin<'a> {
    pub left: RowStream<'a>,
    pub right: RowStream<'a>,
    /// Key expressions over the left input's columns.
    pub left_keys: Vec<BExpr>,
    /// Key expressions over the right input's columns.
    pub right_keys: Vec<BExpr>,
    /// Non-key `ON` conjuncts over the concatenated row.
    pub residual: Vec<BExpr>,
    pub left_join: bool,
    pub right_width: usize,
    /// Output projection as concat indices (`None` = identity).
    pub emit: Option<Vec<usize>>,
}

impl<'a> HashJoin<'a> {
    /// Consume the right stream into the hash table and return the
    /// streaming probe iterator.
    pub(crate) fn into_stream(self) -> DsResult<RowStream<'a>> {
        let HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
            left_join,
            right_width,
            emit,
        } = self;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let mut key_vals: Vec<Vec<Value>> = Vec::new();
        let mut building: HashMap<Vec<HKey>, Vec<usize>> = HashMap::new();
        for r in right {
            let r = r?;
            let kv: Vec<Value> = right_keys
                .iter()
                .map(|k| eval(k, &r, &[]))
                .collect::<DsResult<_>>()?;
            // A NULL key component can never equi-match: such rows are
            // unreachable, so they are not even stored.
            if let Some(hk) = join_key_row(&kv) {
                building.entry(hk).or_default().push(rows.len());
                rows.push(r);
                key_vals.push(kv);
            }
        }
        // Freeze buckets behind Rc so each probe borrows its candidate list
        // without cloning it.
        let buckets = building
            .into_iter()
            .map(|(k, v)| (k, Rc::from(v)))
            .collect();
        Ok(Box::new(HashJoinIter {
            left,
            left_keys,
            rows,
            key_vals,
            buckets,
            residual,
            left_join,
            right_width,
            emit,
            probe: None,
        }))
    }
}

struct HashJoinIter<'a> {
    left: RowStream<'a>,
    left_keys: Vec<BExpr>,
    rows: Vec<Vec<Value>>,
    key_vals: Vec<Vec<Value>>,
    buckets: HashMap<Vec<HKey>, Rc<[usize]>>,
    residual: Vec<BExpr>,
    left_join: bool,
    right_width: usize,
    emit: Option<Vec<usize>>,
    probe: Option<HashProbe>,
}

/// Hash-probe cursor: one left row and its candidate bucket.
struct HashProbe {
    lrow: Vec<Value>,
    /// Evaluated left key values.
    key_vals: Vec<Value>,
    /// The matched bucket's right-row indices (`None`: no bucket).
    cands: Option<Rc<[usize]>>,
    pos: usize,
    matched: bool,
}

impl HashJoinIter<'_> {
    /// Does candidate `ri` really match the probe keys and residual? Emits
    /// the output row if so.
    fn try_match(&self, probe: &HashProbe, ri: usize) -> DsResult<Option<Vec<Value>>> {
        for (lv, rv) in probe.key_vals.iter().zip(&self.key_vals[ri]) {
            if sql_compare(lv, rv)? != Some(std::cmp::Ordering::Equal) {
                return Ok(None);
            }
        }
        let combined = concat(&probe.lrow, Some(&self.rows[ri]), self.right_width);
        if !self.residual.is_empty() && !passes(&self.residual, &combined)? {
            return Ok(None);
        }
        Ok(Some(project(&self.emit, combined)))
    }
}

impl Iterator for HashJoinIter<'_> {
    type Item = DsResult<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(mut probe) = self.probe.take() {
                while let Some(&ri) = probe.cands.as_deref().and_then(|c| c.get(probe.pos)) {
                    probe.pos += 1;
                    match self.try_match(&probe, ri) {
                        Err(e) => return Some(Err(e)),
                        Ok(Some(out)) => {
                            probe.matched = true;
                            self.probe = Some(probe);
                            return Some(Ok(out));
                        }
                        Ok(None) => {}
                    }
                }
                if self.left_join && !probe.matched {
                    let combined = concat(&probe.lrow, None, self.right_width);
                    return Some(Ok(project(&self.emit, combined)));
                }
                continue;
            }
            match self.left.next()? {
                Err(e) => return Some(Err(e)),
                Ok(lrow) => {
                    let kv: DsResult<Vec<Value>> =
                        self.left_keys.iter().map(|k| eval(k, &lrow, &[])).collect();
                    let kv = match kv {
                        Err(e) => return Some(Err(e)),
                        Ok(kv) => kv,
                    };
                    let cands = join_key_row(&kv).and_then(|hk| self.buckets.get(&hk).cloned());
                    self.probe = Some(HashProbe {
                        lrow,
                        key_vals: kv,
                        cands,
                        pos: 0,
                        matched: false,
                    });
                }
            }
        }
    }
}

/// Nested loops: the fallback for non-equi constraints, and the reference
/// arm the hash join is verified against.
pub(crate) struct NestedLoopJoin<'a> {
    pub left: RowStream<'a>,
    pub right: RowStream<'a>,
    /// Conjunctive predicate over the concatenated row (empty = cross).
    pub pred: Vec<BExpr>,
    pub left_join: bool,
    pub right_width: usize,
    /// Output projection as concat indices (`None` = identity).
    pub emit: Option<Vec<usize>>,
}

impl<'a> NestedLoopJoin<'a> {
    pub(crate) fn into_stream(self) -> DsResult<RowStream<'a>> {
        let NestedLoopJoin {
            left,
            right,
            pred,
            left_join,
            right_width,
            emit,
        } = self;
        let rows = right.collect::<DsResult<Vec<_>>>()?;
        Ok(Box::new(NestedLoopIter {
            left,
            rows,
            pred,
            left_join,
            right_width,
            emit,
            probe: None,
        }))
    }
}

struct NestedLoopIter<'a> {
    left: RowStream<'a>,
    rows: Vec<Vec<Value>>,
    pred: Vec<BExpr>,
    left_join: bool,
    right_width: usize,
    emit: Option<Vec<usize>>,
    probe: Option<NestedProbe>,
}

/// Nested-loop cursor: one left row and the next right index to try.
struct NestedProbe {
    lrow: Vec<Value>,
    ri: usize,
    matched: bool,
}

impl Iterator for NestedLoopIter<'_> {
    type Item = DsResult<Vec<Value>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(mut probe) = self.probe.take() {
                while probe.ri < self.rows.len() {
                    let ri = probe.ri;
                    probe.ri += 1;
                    let combined = concat(&probe.lrow, Some(&self.rows[ri]), self.right_width);
                    match passes(&self.pred, &combined) {
                        Err(e) => return Some(Err(e)),
                        Ok(true) => {
                            probe.matched = true;
                            self.probe = Some(probe);
                            return Some(Ok(project(&self.emit, combined)));
                        }
                        Ok(false) => {}
                    }
                }
                if self.left_join && !probe.matched {
                    let combined = concat(&probe.lrow, None, self.right_width);
                    return Some(Ok(project(&self.emit, combined)));
                }
                continue;
            }
            match self.left.next()? {
                Err(e) => return Some(Err(e)),
                Ok(lrow) => {
                    self.probe = Some(NestedProbe {
                        lrow,
                        ri: 0,
                        matched: false,
                    });
                }
            }
        }
    }
}

/// `lrow ++ rrow`, null-extending the right side when unmatched.
fn concat(lrow: &[Value], rrow: Option<&[Value]>, right_width: usize) -> Vec<Value> {
    let mut out = Vec::with_capacity(lrow.len() + right_width);
    out.extend_from_slice(lrow);
    match rrow {
        Some(r) => out.extend_from_slice(r),
        None => out.extend(std::iter::repeat_n(Value::Empty, right_width)),
    }
    out
}

/// Apply the output projection (dropping `NATURAL`-merged duplicates).
fn project(emit: &Option<Vec<usize>>, combined: Vec<Value>) -> Vec<Value> {
    match emit {
        None => combined,
        Some(m) => m.iter().map(|&i| combined[i].clone()).collect(),
    }
}
