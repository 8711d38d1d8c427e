//! Model-based property tests: all three cell stores must agree with a plain
//! `HashMap` model under arbitrary edit sequences, including structural
//! row/column edits and range queries. The tiled store's packed tiles also
//! get a dense-churn property that checks `get` and the row-major range walk
//! after every edit.
//!
//! Driven by `dataspread_testkit` (deterministic seeds) instead of an
//! external property-testing crate — see substitution #4 in `DESIGN.md`.

use std::collections::HashMap;
use std::ops::ControlFlow;

use dataspread_gridstore::block::BlockConfig;
use dataspread_gridstore::{BlockGrid, CellStore, NaiveGrid, TileConfig, TiledGrid};
use dataspread_testkit::{cases, Rng};
use dataspread_types::{CellAddr, Range};

#[derive(Clone, Debug)]
enum Op {
    Set(u32, u32, i64),
    Remove(u32, u32),
    InsertRows(u32, u32),
    DeleteRows(u32, u32),
    InsertCols(u32, u32),
    DeleteCols(u32, u32),
    QueryRange(u32, u32, u32, u32),
}

fn arb_ops(rng: &mut Rng) -> Vec<Op> {
    let len = rng.index(80);
    (0..len)
        .map(|_| match rng.weighted(&[4, 2, 1, 1, 1, 1, 2]) {
            0 => Op::Set(rng.u32_in(0, 64), rng.u32_in(0, 64), rng.i64()),
            1 => Op::Remove(rng.u32_in(0, 64), rng.u32_in(0, 64)),
            2 => Op::InsertRows(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            3 => Op::DeleteRows(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            4 => Op::InsertCols(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            5 => Op::DeleteCols(rng.u32_in(0, 40), rng.u32_in(1, 4)),
            _ => Op::QueryRange(
                rng.u32_in(0, 64),
                rng.u32_in(0, 64),
                rng.u32_in(0, 64),
                rng.u32_in(0, 64),
            ),
        })
        .collect()
}

struct Model {
    cells: HashMap<CellAddr, i64>,
}

impl Model {
    fn new() -> Self {
        Model {
            cells: HashMap::new(),
        }
    }

    fn apply_shift(&mut self, f: impl Fn(CellAddr) -> Option<CellAddr>) {
        let old = std::mem::take(&mut self.cells);
        for (a, v) in old {
            if let Some(na) = f(a) {
                self.cells.insert(na, v);
            }
        }
    }
}

/// Apply one op to the store and the model, checking the values the store
/// returns on the way.
fn apply<S: CellStore<i64>>(store: &mut S, model: &mut Model, op: &Op) {
    match *op {
        Op::Set(r, c, v) => {
            let a = CellAddr::new(r, c);
            let old_s = store.set(a, v);
            let old_m = model.cells.insert(a, v);
            assert_eq!(old_s, old_m, "set({a}) old value mismatch");
        }
        Op::Remove(r, c) => {
            let a = CellAddr::new(r, c);
            assert_eq!(store.remove(a), model.cells.remove(&a), "remove({a})");
        }
        Op::InsertRows(at, n) => {
            store.insert_rows(at, n);
            model.apply_shift(|a| {
                if a.row >= at {
                    Some(CellAddr::new(a.row + n, a.col))
                } else {
                    Some(a)
                }
            });
        }
        Op::DeleteRows(at, n) => {
            store.delete_rows(at, n);
            model.apply_shift(|a| {
                if a.row >= at && a.row < at + n {
                    None
                } else if a.row >= at + n {
                    Some(CellAddr::new(a.row - n, a.col))
                } else {
                    Some(a)
                }
            });
        }
        Op::InsertCols(at, n) => {
            store.insert_cols(at, n);
            model.apply_shift(|a| {
                if a.col >= at {
                    Some(CellAddr::new(a.row, a.col + n))
                } else {
                    Some(a)
                }
            });
        }
        Op::DeleteCols(at, n) => {
            store.delete_cols(at, n);
            model.apply_shift(|a| {
                if a.col >= at && a.col < at + n {
                    None
                } else if a.col >= at + n {
                    Some(CellAddr::new(a.row, a.col - n))
                } else {
                    Some(a)
                }
            });
        }
        Op::QueryRange(r0, c0, r1, c1) => {
            let q = Range::new(CellAddr::new(r0, c0), CellAddr::new(r1, c1));
            let got = store.cells_in_range(q);
            let mut expect: Vec<(CellAddr, i64)> = model
                .cells
                .iter()
                .filter(|(a, _)| q.contains(**a))
                .map(|(a, v)| (*a, *v))
                .collect();
            expect.sort_by_key(|(a, _)| *a);
            assert_eq!(got, expect, "range query {q} mismatch");
        }
    }
}

fn run_store<S: CellStore<i64>>(mut store: S, ops: &[Op]) {
    let mut model = Model::new();
    for op in ops {
        apply(&mut store, &mut model, op);
        assert_eq!(
            store.cell_count(),
            model.cells.len(),
            "cell count after {op:?}"
        );
    }
    // Final full sweep.
    if let Some(bounds) = store.used_bounds() {
        let got = store.cells_in_range(bounds);
        assert_eq!(got.len(), model.cells.len());
    } else {
        assert!(model.cells.is_empty());
    }
}

#[test]
fn naive_matches_model() {
    cases(48, 0x621201, |rng| {
        let ops = arb_ops(rng);
        run_store(NaiveGrid::new(), &ops);
    });
}

#[test]
fn tiled_matches_model() {
    cases(48, 0x621202, |rng| {
        let ops = arb_ops(rng);
        run_store(
            TiledGrid::new(TileConfig {
                tile_rows: 8,
                tile_cols: 8,
            }),
            &ops,
        );
    });
}

#[test]
fn tiled_default_matches_model() {
    cases(48, 0x621203, |rng| {
        let ops = arb_ops(rng);
        run_store(TiledGrid::default(), &ops);
    });
}

#[test]
fn block_matches_model() {
    cases(48, 0x621204, |rng| {
        let ops = arb_ops(rng);
        run_store(
            BlockGrid::new(BlockConfig {
                capacity: 16,
                proximity: 4,
            }),
            &ops,
        );
    });
}

#[test]
fn block_small_capacity_matches_model() {
    // Capacity 2 forces constant splitting — stress for the R-tree churn.
    cases(48, 0x621205, |rng| {
        let ops = arb_ops(rng);
        run_store(
            BlockGrid::new(BlockConfig {
                capacity: 2,
                proximity: 2,
            }),
            &ops,
        );
    });
}

/// Cases for the dense-churn property: `DSP_STRESS_ITERS` (default 48), the
/// knob CI's stress job raises.
fn churn_cases() -> u64 {
    std::env::var("DSP_STRESS_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(48)
}

/// One edit inside a 30 × 30 corner. While `filling`, most edits write
/// new cells into the 10 × 14 `hot` window at its origin, so the few tiles
/// under it fill up; otherwise most remove held cells (`held` is the model
/// in row-major order), so tiles empty and are dropped. Overwrites, misses
/// and structural shifts ride along in both phases.
fn churn_op(rng: &mut Rng, held: &[(CellAddr, i64)], filling: bool, hot: CellAddr) -> Op {
    let (at, n) = (rng.u32_in(0, 30), rng.u32_in(1, 4));
    let weights = if filling {
        [48, 3, 1, 1, 1, 1, 1, 1]
    } else {
        [3, 3, 48, 1, 1, 1, 1, 1]
    };
    match rng.weighted(&weights) {
        w @ (1 | 2) if !held.is_empty() => {
            let a = held[rng.index(held.len())].0;
            if w == 1 {
                Op::Set(a.row, a.col, rng.i64())
            } else {
                Op::Remove(a.row, a.col)
            }
        }
        3 => Op::Remove(rng.u32_in(0, 30), rng.u32_in(0, 30)),
        4 => Op::InsertRows(at, n),
        5 => Op::DeleteRows(at, n),
        6 => Op::InsertCols(at, n),
        7 => Op::DeleteCols(at, n),
        _ => Op::Set(
            hot.row + rng.u32_in(0, 10),
            hot.col + rng.u32_in(0, 14),
            rng.i64(),
        ),
    }
}

/// The store against the model (`held`, row-major) after one edit: `get` at
/// every held cell and at a few empty ones, then a random range walk, whole
/// and broken off part-way.
fn check_churn(store: &TiledGrid<i64>, held: &[(CellAddr, i64)], rng: &mut Rng) {
    assert_eq!(store.cell_count(), held.len());
    for (a, v) in held {
        assert_eq!(store.get(*a), Some(v), "get({a})");
    }
    for _ in 0..8 {
        let a = CellAddr::new(rng.u32_in(0, 40), rng.u32_in(0, 40));
        if held.binary_search_by_key(&a, |&(a, _)| a).is_err() {
            assert_eq!(store.get(a), None, "get({a}) of an empty cell");
        }
    }
    let corner = |rng: &mut Rng| CellAddr::new(rng.u32_in(0, 40), rng.u32_in(0, 40));
    let q = Range::new(corner(rng), corner(rng));
    let expect: Vec<(CellAddr, i64)> = held
        .iter()
        .copied()
        .filter(|(a, _)| q.contains(*a))
        .collect();
    let walk = |stop: usize| {
        let mut seen = Vec::new();
        let flow = store.try_for_each_in_range(q, &mut |a, v| {
            seen.push((a, *v));
            if seen.len() == stop {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        (flow, seen)
    };
    assert_eq!(
        walk(usize::MAX),
        (ControlFlow::Continue(()), expect.clone()),
        "walk of {q}"
    );
    if !expect.is_empty() {
        let stop = rng.usize_in(1, expect.len() + 1);
        assert_eq!(
            walk(stop),
            (ControlFlow::Break(()), expect[..stop].to_vec()),
            "walk of {q} stopped after {stop}"
        );
    }
}

#[test]
fn tiled_dense_churn_matches_model() {
    // 7 × 11 = 77 slots: two bitmap words, and rows straddle the boundary
    // between them.
    cases(churn_cases(), 0x621206, |rng| {
        let mut store = TiledGrid::new(TileConfig {
            tile_rows: 7,
            tile_cols: 11,
        });
        let mut model = Model::new();
        let mut held = Vec::new();
        let mut hot = CellAddr::new(0, 0);
        for step in 0..400 {
            // Phases of 100 edits: fill a fresh hot window, then drain.
            if step % 200 == 0 {
                hot = CellAddr::new(rng.u32_in(0, 21), rng.u32_in(0, 17));
            }
            let op = churn_op(rng, &held, step % 200 < 100, hot);
            apply(&mut store, &mut model, &op);
            held = model.cells.iter().map(|(a, v)| (*a, *v)).collect();
            held.sort_unstable();
            check_churn(&store, &held, rng);
        }
    });
}
