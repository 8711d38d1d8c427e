//! The aggregation operator: hash GROUP BY over streaming accumulators.
//!
//! Groups are located in O(1) via the normalized
//! [`HKey`](dataspread_sql::planner::HKey) of the evaluated key tuple
//! (mirroring `Value::sql_eq`, so NULL groups with NULL). Each group keeps
//! its first member row as the representative (what `GROUP BY` expressions
//! evaluate against in the projection) plus one incremental accumulator per
//! aggregate call — member rows are never materialized. `DISTINCT`
//! aggregates dedup through an `HKey` set.
//!
//! The linear-search reference this operator is checked against is the
//! naive evaluator in the `dataspread_slt` crate, outside the engine.

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use dataspread_sql::ast::Expr;
use dataspread_sql::expr::{agg_key, bind, eval, sql_compare, BExpr, ColInfo};
use dataspread_sql::planner::{collect_cols, HKey};
use dataspread_sql::resolver::SheetResolver;
use dataspread_types::{DsError, DsResult, Value};

use super::RowStream;

/// Gather distinct aggregate calls (structural identity) in encounter order.
pub(crate) fn collect_aggregates(
    e: &Expr,
    list: &mut Vec<Expr>,
    slots: &mut HashMap<String, usize>,
) {
    if e.is_aggregate_call() {
        if let std::collections::hash_map::Entry::Vacant(slot) = slots.entry(agg_key(e)) {
            slot.insert(list.len());
            list.push(e.clone());
        }
        return; // aggregates do not nest
    }
    match e {
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } | Expr::Cast { expr, .. } => {
            collect_aggregates(expr, list, slots)
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, list, slots);
            collect_aggregates(right, list, slots);
        }
        Expr::InList {
            expr, list: items, ..
        } => {
            collect_aggregates(expr, list, slots);
            for it in items {
                collect_aggregates(it, list, slots);
            }
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_aggregates(expr, list, slots);
            collect_aggregates(low, list, slots);
            collect_aggregates(high, list, slots);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_aggregates(expr, list, slots);
            collect_aggregates(pattern, list, slots);
        }
        Expr::Case {
            operand,
            branches,
            else_,
        } => {
            if let Some(o) = operand {
                collect_aggregates(o, list, slots);
            }
            for (w, t) in branches {
                collect_aggregates(w, list, slots);
                collect_aggregates(t, list, slots);
            }
            if let Some(e2) = else_ {
                collect_aggregates(e2, list, slots);
            }
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, list, slots);
            }
        }
        Expr::Literal(_) | Expr::Column { .. } | Expr::RangeValue(_) => {}
    }
}

/// One compiled aggregate call.
pub(crate) struct AggSpec {
    name: String,
    arg: Option<BExpr>,
    distinct: bool,
    star: bool,
}

impl AggSpec {
    pub(crate) fn compile(
        e: &Expr,
        cols: &[ColInfo],
        resolver: &dyn SheetResolver,
    ) -> DsResult<AggSpec> {
        let Expr::Function {
            name,
            args,
            distinct,
            star,
        } = e
        else {
            unreachable!("collect_aggregates only gathers function calls");
        };
        let uname = name.to_ascii_uppercase();
        if *star {
            if uname != "COUNT" {
                return Err(DsError::Sql(format!("{uname}(*) is not valid")));
            }
            return Ok(AggSpec {
                name: uname,
                arg: None,
                distinct: false,
                star: true,
            });
        }
        if args.len() != 1 {
            return Err(DsError::Sql(format!("{uname} takes exactly one argument")));
        }
        if args[0].contains_aggregate() {
            return Err(DsError::Sql("aggregate calls cannot nest".into()));
        }
        let arg = bind(&args[0], cols, None, resolver)?;
        Ok(AggSpec {
            name: uname,
            arg: Some(arg),
            distinct: *distinct,
            star: false,
        })
    }

    /// Columns the aggregate's argument reads (for scan pruning).
    pub(crate) fn collect_cols(&self, out: &mut std::collections::HashSet<usize>) {
        if let Some(arg) = &self.arg {
            collect_cols(arg, out);
        }
    }

    fn new_acc(&self) -> DsResult<Acc> {
        if self.star {
            return Ok(Acc::CountStar(0));
        }
        if self.distinct {
            return Ok(Acc::Distinct {
                seen: HashSet::new(),
                vals: Vec::new(),
            });
        }
        plain_acc(&self.name)
    }

    /// Feed one member row into the accumulator.
    fn update(&self, acc: &mut Acc, row: &[Value]) -> DsResult<()> {
        let (arg, acc) = match (&self.arg, acc) {
            (_, Acc::CountStar(n)) => {
                *n += 1;
                return Ok(());
            }
            (Some(arg), acc) => (arg, acc),
            // `compile` gives every non-star spec an argument.
            (None, _) => return Err(DsError::Sql(format!("{} takes an argument", self.name))),
        };
        let v = eval(arg, row, &[])?;
        // SQL semantics: NULL inputs are ignored by every aggregate.
        if v.is_empty() {
            return Ok(());
        }
        if let Acc::Distinct { seen, vals } = acc {
            if seen.insert(HKey::of(&v)) {
                vals.push(v);
            }
            return Ok(());
        }
        push_value(acc, v, &self.name)
    }

    /// Close the accumulator into the aggregate's value.
    fn finish(&self, acc: Acc) -> DsResult<Value> {
        finalize(&self.name, acc)
    }
}

/// Incremental aggregate state.
enum Acc {
    CountStar(i64),
    Count(i64),
    Sum {
        int_sum: i64,
        f_sum: f64,
        is_float: bool,
        n: usize,
    },
    MinMax {
        best: Option<Value>,
        want_less: bool,
    },
    /// `DISTINCT` aggregates keep the deduplicated inputs and reduce at the
    /// end.
    Distinct {
        seen: HashSet<HKey>,
        vals: Vec<Value>,
    },
}

/// Integer summing with overflow spill to float (matching the previous
/// executor's semantics exactly).
fn sum_push(
    v: &Value,
    int_sum: &mut i64,
    f_sum: &mut f64,
    is_float: &mut bool,
    name: &str,
) -> DsResult<()> {
    match v {
        Value::Int(i) => {
            if *is_float {
                *f_sum += *i as f64;
            } else {
                match int_sum.checked_add(*i) {
                    Some(s) => *int_sum = s,
                    None => {
                        *is_float = true;
                        *f_sum = *int_sum as f64 + *i as f64;
                    }
                }
            }
        }
        Value::Float(f) => {
            if !*is_float {
                *is_float = true;
                *f_sum = *int_sum as f64;
            }
            *f_sum += f;
        }
        other => {
            return Err(DsError::Sql(format!(
                "{name} over non-numeric value {other:?}"
            )))
        }
    }
    Ok(())
}

/// Fresh non-distinct accumulator for an aggregate name.
fn plain_acc(name: &str) -> DsResult<Acc> {
    Ok(match name {
        "COUNT" => Acc::Count(0),
        "SUM" | "AVG" => Acc::Sum {
            int_sum: 0,
            f_sum: 0.0,
            is_float: false,
            n: 0,
        },
        "MIN" => Acc::MinMax {
            best: None,
            want_less: true,
        },
        "MAX" => Acc::MinMax {
            best: None,
            want_less: false,
        },
        other => return Err(DsError::Sql(format!("unknown aggregate `{other}`"))),
    })
}

/// Feed one non-NULL input value into a non-distinct accumulator — the one
/// copy of each aggregate's per-value semantics (the `DISTINCT` path replays
/// its deduplicated values through this at finalization).
fn push_value(acc: &mut Acc, v: Value, name: &str) -> DsResult<()> {
    match acc {
        Acc::CountStar(_) | Acc::Distinct { .. } => {
            unreachable!("callers handle star/distinct accumulators")
        }
        Acc::Count(n) => *n += 1,
        Acc::Sum {
            int_sum,
            f_sum,
            is_float,
            n,
        } => {
            sum_push(&v, int_sum, f_sum, is_float, name)?;
            *n += 1;
        }
        Acc::MinMax { best, want_less } => {
            let want_less = *want_less;
            *best = Some(match best.take() {
                None => v,
                Some(b) => match sql_compare(&v, &b)? {
                    Some(Ordering::Less) if want_less => v,
                    Some(Ordering::Greater) if !want_less => v,
                    _ => b,
                },
            });
        }
    }
    Ok(())
}

/// Close an accumulator into the aggregate's value.
fn finalize(name: &str, acc: Acc) -> DsResult<Value> {
    Ok(match acc {
        Acc::CountStar(n) | Acc::Count(n) => Value::Int(n),
        Acc::Sum {
            int_sum,
            f_sum,
            is_float,
            n,
        } => {
            if n == 0 {
                Value::Empty
            } else if name == "AVG" {
                let total = if is_float { f_sum } else { int_sum as f64 };
                Value::Float(total / n as f64)
            } else if is_float {
                Value::Float(f_sum)
            } else {
                Value::Int(int_sum)
            }
        }
        Acc::MinMax { best, .. } => best.unwrap_or(Value::Empty),
        Acc::Distinct { vals, .. } => {
            let mut acc = plain_acc(name)?;
            for v in vals {
                push_value(&mut acc, v, name)?;
            }
            finalize(name, acc)?
        }
    })
}

struct Group {
    rep: Vec<Value>,
    accs: Vec<Acc>,
}

/// Consume the input stream into evaluation contexts
/// `(representative row, aggregate slot values)`, one per group in
/// first-encounter order. A global aggregate over zero rows still produces
/// one group (`COUNT(*) = 0`); a grouped query over zero rows produces none.
pub(crate) fn aggregate(
    stream: RowStream<'_>,
    key_exprs: &[BExpr],
    specs: &[AggSpec],
    width: usize,
) -> DsResult<Vec<(Vec<Value>, Vec<Value>)>> {
    let mut groups: Vec<Group> = Vec::new();
    let mut index: HashMap<Vec<HKey>, usize> = HashMap::new();
    for row in stream {
        let row = row?;
        let kv: Vec<Value> = key_exprs
            .iter()
            .map(|e| eval(e, &row, &[]))
            .collect::<DsResult<_>>()?;
        let gi = match index.entry(HKey::of_row(&kv)) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(groups.len());
                groups.push(Group {
                    rep: row.clone(),
                    accs: specs
                        .iter()
                        .map(AggSpec::new_acc)
                        .collect::<DsResult<_>>()?,
                });
                groups.len() - 1
            }
        };
        let g = &mut groups[gi];
        for (spec, acc) in specs.iter().zip(&mut g.accs) {
            spec.update(acc, &row)?;
        }
    }
    if groups.is_empty() && key_exprs.is_empty() {
        groups.push(Group {
            rep: vec![Value::Empty; width],
            accs: specs
                .iter()
                .map(AggSpec::new_acc)
                .collect::<DsResult<_>>()?,
        });
    }
    groups
        .into_iter()
        .map(|g| {
            let aggs: Vec<Value> = specs
                .iter()
                .zip(g.accs)
                .map(|(s, a)| s.finish(a))
                .collect::<DsResult<_>>()?;
            Ok((g.rep, aggs))
        })
        .collect()
}
