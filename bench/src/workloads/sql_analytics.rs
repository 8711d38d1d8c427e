//! `sql-analytics`: read-only SQL over three tables and a sheet range.
//!
//! One operation is one *refresh*: six query templates run in order — a
//! filtered count, a GROUP BY with ORDER BY and LIMIT, a three-table join
//! with aggregates, a join through `RANGETABLE`, a point lookup by id, and a
//! group-by over the small table (parse- and plan-dominated). The tables are
//! loaded and `ANALYZE`d in set-up and never written again. sql, exec and
//! relstore's snapshot scans do the work; calc, bind and wal do none, so
//! this is the bypass workload for every write-path change.

use std::collections::BTreeMap;
use std::time::Instant;

use dataspread::types::{CellAddr, Value};
use dataspread::Workbook;
use dataspread_testkit::Rng;

use super::scroll_edit::quarters;
use super::{Outcome, Samples, Workload};
use crate::record::Check;
use crate::trace::Tracer;

const STATUSES: [&str; 4] = ["new", "paid", "shipped", "returned"];
const REGIONS: u64 = 8;
const CATEGORIES: u64 = 12;
/// Rows of the parameter range under its header (`A1:B51`).
const PARAMS: usize = 50;
pub const TEMPLATES: usize = 6;
/// Span and series names of the six templates.
pub const TEMPLATE_NAMES: [&str; TEMPLATES] = [
    "q1_filter",
    "q2_topk",
    "q3_join3",
    "q4_rangetable",
    "q5_point",
    "q6_small",
];

pub struct Order {
    customer: usize,
    product: usize,
    qty: i64,
    price: f64,
    status: usize,
}

/// The generated inputs, kept beside the engine for the naive evaluation.
pub struct Data {
    pub orders: Vec<Order>,
    /// Region number per customer.
    customer_region: Vec<u64>,
    /// (category number, cost) per product.
    products: Vec<(u64, f64)>,
    /// (customer id, weight) rows of the parameter range.
    params: Vec<(usize, i64)>,
}

fn sizes(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (1_000, 100, 20)
    } else {
        (20_000, 2_000, 200)
    }
}

/// The loaded, analysed workbook and the data it was loaded from.
pub fn build(seed: u64, smoke: bool) -> (Workbook, Data) {
    let (n_orders, n_customers, n_products) = sizes(smoke);
    let mut rng = Rng::new(seed);
    let mut wb = Workbook::new();
    wb.execute_script(
        "CREATE TABLE orders (id INT, customer_id INT, product_id INT, qty INT, price REAL, status TEXT);
         CREATE TABLE customers (id INT, name TEXT, region TEXT, tier INT);
         CREATE TABLE products (id INT, name TEXT, category TEXT, cost REAL);",
    )
    .expect("create the three tables");
    let mut data = Data {
        orders: Vec::with_capacity(n_orders),
        customer_region: Vec::with_capacity(n_customers),
        products: Vec::with_capacity(n_products),
        params: Vec::with_capacity(PARAMS),
    };
    {
        let mut t = wb.catalog_mut().get_mut("orders").expect("orders exists");
        for i in 0..n_orders {
            let o = Order {
                customer: rng.index(n_customers),
                product: rng.index(n_products),
                qty: 1 + rng.below(10) as i64,
                price: quarters(rng.below(4000)),
                status: rng.index(STATUSES.len()),
            };
            t.insert(vec![
                Value::Int(i as i64),
                Value::Int(o.customer as i64),
                Value::Int(o.product as i64),
                Value::Int(o.qty),
                Value::Float(o.price),
                Value::text(STATUSES[o.status]),
            ])
            .expect("insert order");
            data.orders.push(o);
        }
    }
    {
        let mut t = wb
            .catalog_mut()
            .get_mut("customers")
            .expect("customers exists");
        for i in 0..n_customers {
            let region = rng.below(REGIONS);
            t.insert(vec![
                Value::Int(i as i64),
                Value::text(format!("c{i}")),
                Value::text(format!("r{region}")),
                Value::Int(rng.below(4) as i64),
            ])
            .expect("insert customer");
            data.customer_region.push(region);
        }
    }
    {
        let mut t = wb
            .catalog_mut()
            .get_mut("products")
            .expect("products exists");
        for i in 0..n_products {
            let (category, cost) = (rng.below(CATEGORIES), quarters(rng.below(400)));
            t.insert(vec![
                Value::Int(i as i64),
                Value::text(format!("p{i}")),
                Value::text(format!("cat{category:02}")),
                Value::Float(cost),
            ])
            .expect("insert product");
            data.products.push((category, cost));
        }
    }
    // Distinct customers, so the range joins like a key table.
    let stride = n_customers / PARAMS;
    let mut range = vec![vec![Value::text("cid"), Value::text("w")]];
    for k in 0..PARAMS {
        let p = (k * stride + rng.index(stride), 1 + rng.below(3) as i64);
        range.push(vec![Value::Int(p.0 as i64), Value::Int(p.1)]);
        data.params.push(p);
    }
    let sheet = wb.current_sheet();
    wb.set_region(sheet, CellAddr::new(0, 0), &range)
        .expect("parameter range");
    wb.execute("ANALYZE").expect("analyze");
    (wb, data)
}

/// The six statements of one refresh.
pub fn statements(qty_over: i64, status: usize, lookup: usize) -> [String; TEMPLATES] {
    [
        format!(
            "SELECT COUNT(*) FROM orders WHERE qty > {qty_over} AND status = '{}'",
            STATUSES[status]
        ),
        "SELECT customer_id, SUM(qty) AS total FROM orders GROUP BY customer_id \
         ORDER BY total DESC, customer_id LIMIT 10"
            .to_string(),
        "SELECT c.region, p.category, SUM(o.qty), SUM(o.price) FROM orders o \
         JOIN customers c ON o.customer_id = c.id JOIN products p ON o.product_id = p.id \
         GROUP BY c.region, p.category ORDER BY c.region, p.category"
            .to_string(),
        format!(
            "SELECT r.cid, COUNT(*), SUM(o.qty * r.w) FROM orders o \
             JOIN RANGETABLE(A1:B{}) r ON o.customer_id = r.cid GROUP BY r.cid ORDER BY r.cid",
            PARAMS + 1
        ),
        format!("SELECT * FROM orders WHERE id = {lookup}"),
        "SELECT category, COUNT(*), AVG(cost) FROM products GROUP BY category ORDER BY category"
            .to_string(),
    ]
}

type Rows = Vec<Vec<Value>>;

impl Data {
    fn q1(&self, qty_over: i64, status: usize) -> Rows {
        let n = self
            .orders
            .iter()
            .filter(|o| o.qty > qty_over && o.status == status)
            .count();
        vec![vec![Value::Int(n as i64)]]
    }

    fn q2(&self) -> Rows {
        let mut total: BTreeMap<usize, i64> = BTreeMap::new();
        for o in &self.orders {
            *total.entry(o.customer).or_default() += o.qty;
        }
        let mut rows: Vec<(usize, i64)> = total.into_iter().collect();
        rows.sort_by_key(|&(c, t)| (std::cmp::Reverse(t), c));
        rows.truncate(10);
        rows.iter()
            .map(|&(c, t)| vec![Value::Int(c as i64), Value::Int(t)])
            .collect()
    }

    fn q3(&self) -> Rows {
        let mut groups: BTreeMap<(u64, u64), (i64, f64)> = BTreeMap::new();
        for o in &self.orders {
            let g = groups
                .entry((self.customer_region[o.customer], self.products[o.product].0))
                .or_default();
            g.0 += o.qty;
            g.1 += o.price;
        }
        groups
            .into_iter()
            .map(|((r, c), (qty, price))| {
                vec![
                    Value::text(format!("r{r}")),
                    Value::text(format!("cat{c:02}")),
                    Value::Int(qty),
                    Value::Float(price),
                ]
            })
            .collect()
    }

    fn q4(&self) -> Rows {
        let mut groups: BTreeMap<usize, (i64, i64)> = BTreeMap::new();
        for o in &self.orders {
            if let Some(&(_, w)) = self.params.iter().find(|p| p.0 == o.customer) {
                let g = groups.entry(o.customer).or_default();
                g.0 += 1;
                g.1 += o.qty * w;
            }
        }
        groups
            .into_iter()
            .map(|(c, (n, weighted))| {
                vec![Value::Int(c as i64), Value::Int(n), Value::Int(weighted)]
            })
            .collect()
    }

    fn q5(&self, lookup: usize) -> Rows {
        let o = &self.orders[lookup];
        vec![vec![
            Value::Int(lookup as i64),
            Value::Int(o.customer as i64),
            Value::Int(o.product as i64),
            Value::Int(o.qty),
            Value::Float(o.price),
            Value::text(STATUSES[o.status]),
        ]]
    }

    fn q6(&self) -> Rows {
        let mut groups: BTreeMap<u64, (i64, f64)> = BTreeMap::new();
        for &(category, cost) in &self.products {
            let g = groups.entry(category).or_default();
            g.0 += 1;
            g.1 += cost;
        }
        groups
            .into_iter()
            .map(|(c, (n, cost))| {
                vec![
                    Value::text(format!("cat{c:02}")),
                    Value::Int(n),
                    Value::Float(cost / n as f64),
                ]
            })
            .collect()
    }
}

#[derive(Hash)]
pub struct Op {
    qty_over: i64,
    status: usize,
    lookup: usize,
}

pub struct SqlAnalytics {
    wb: Workbook,
    data: Data,
    /// What the four parameterless templates returned the first time.
    first: Option<[Rows; 4]>,
}

/// Series indices: 0 is the whole refresh, 1..=6 the templates.
const FIXED: [usize; 4] = [1, 2, 3, 5];

impl Workload for SqlAnalytics {
    const NAME: &'static str = "sql-analytics";
    const KINDS: &'static [&'static str] = &[
        "refresh",
        "q1_filter",
        "q2_topk",
        "q3_join3",
        "q4_rangetable",
        "q5_point",
        "q6_small",
    ];
    const PRIMARY: &'static [usize] = &[0];
    const TAIL_PCT: f64 = 90.0;
    const AUX: usize = 6;
    const WARMUP_OPS: usize = 3;
    const PROBE_EVERY: u64 = 1;
    const ON_PATH: &'static [(&'static str, &'static [(&'static str, f64)])] = &[(
        "op.refresh",
        &[
            ("sql.parse_us", 6.0),
            ("exec.q1_filter_ms", 1.0),
            ("exec.q2_topk_ms", 1.0),
            ("exec.q3_join3_ms", 1.0),
            ("exec.q4_rangetable_ms", 1.0),
            ("exec.q5_point_ms", 1.0),
            ("exec.q6_small_ms", 1.0),
        ],
    )];

    type Op = Op;

    fn ops(seed: u64, smoke: bool) -> Box<dyn Iterator<Item = Op>> {
        let n_orders = sizes(smoke).0;
        let mut rng = Rng::new(seed ^ 0x5A1);
        Box::new(std::iter::from_fn(move || {
            Some(Op {
                qty_over: 2 + rng.below(6) as i64,
                status: rng.index(STATUSES.len()),
                lookup: rng.index(n_orders),
            })
        }))
    }

    fn setup(seed: u64, smoke: bool) -> Self {
        let (wb, data) = build(seed, smoke);
        SqlAnalytics {
            wb,
            data,
            first: None,
        }
    }

    fn workbook(&self) -> &Workbook {
        &self.wb
    }

    fn root_span(_op: &Op) -> &'static str {
        "op.refresh"
    }

    fn apply(&mut self, op: &Op, tr: &mut Tracer, samples: &mut Samples) -> Outcome {
        let mut results: Vec<Option<Rows>> = Vec::with_capacity(TEMPLATES);
        for (i, sql) in statements(op.qty_over, op.status, op.lookup)
            .iter()
            .enumerate()
        {
            let t = Instant::now();
            let s = tr.begin(TEMPLATE_NAMES[i]);
            let r = self.wb.query(sql);
            tr.end(s);
            samples.push(i + 1, t.elapsed());
            results.push(r.ok().map(|(_, rows)| rows));
        }
        // Parameterised templates are checked against the model on every
        // refresh; the fixed ones must keep returning what they returned
        // first, and `check` holds that first answer to the naive one.
        let mut failed = 0;
        failed += (results[0] != Some(self.data.q1(op.qty_over, op.status))) as u32;
        failed += (results[4] != Some(self.data.q5(op.lookup))) as u32;
        match &self.first {
            Some(first) => {
                for (slot, &i) in FIXED.iter().enumerate() {
                    failed += (results[i].as_ref() != Some(&first[slot])) as u32;
                }
            }
            None => {
                let mut take = |i: usize| results[i].take().unwrap_or_default();
                self.first = Some(FIXED.map(&mut take));
            }
        }
        Outcome {
            kind: 0,
            units: TEMPLATES as u32,
            failed,
            key: op.lookup as u64,
        }
    }

    fn check(&mut self) -> Vec<Check> {
        let naive = [
            self.data.q2(),
            self.data.q3(),
            self.data.q4(),
            self.data.q6(),
        ];
        let first = self.first.take().unwrap_or_default();
        FIXED
            .iter()
            .zip(naive.iter().zip(&first))
            .map(|(&i, (want, got))| Check {
                name: format!(
                    "{} rows == naive evaluation over the generated data",
                    TEMPLATE_NAMES[i]
                ),
                ok: want == got && !want.is_empty(),
                detail: format!("{} rows expected, {} returned", want.len(), got.len()),
            })
            .collect()
    }
}
