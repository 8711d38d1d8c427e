//! Cross-sheet dependency tracking and incremental recomputation.
//!
//! The paper's front half: formula cells over ranges, recomputed
//! *incrementally* — an edit re-evaluates only the formulas downstream of
//! the changed cells, in topological order, never the unrelated ones (the
//! HTAP argument: interactive latency must not pay for workbook size).
//!
//! An edit is finished when it returns. Every workbook method that changes
//! sheet or table state runs inside `Workbook::edit`, the one write
//! boundary, which folds the edit's consequences in before returning —
//! whether the edit succeeded or failed part-way — so every read takes
//! `&self` and shows computed values. The consequences are:
//!
//! 1. **Structural edits** (insert/delete rows/cols, `Workbook::edit_grid`)
//!    rewrite the references *other* sheets' formulas hold into the edited
//!    sheet at once (the edited sheet rewrote its own), and mark the
//!    dependents index stale, so the boundary runs a full recompute —
//!    structure changes are rare and invalidate broadly. The full pass
//!    also rebuilds the `DepIndex` wholesale.
//! 2. **Cell edits** are recorded by the sheets (`Sheet::take_pending`);
//!    the boundary first re-indexes every edited cell in the `DepIndex`
//!    (drop what a formula there was indexed under, re-insert the formula
//!    there now). The dirty set then stabs the index: each changed position
//!    yields the formulas with a precedent rectangle containing it, and a
//!    BFS closes that transitively. The walk stabs each dirty position and
//!    each member once, and records as it goes the edges it finds: a stab
//!    at a member's own position (a dirty formula's included) yields that
//!    member's out-edges. Members get dense ordinals in sorted order, and
//!    Kahn's algorithm orders them over those edges with flat arrays, then
//!    they are re-evaluated. Cells left unordered sit on a reference cycle
//!    (or feed from one) and are poisoned with `#CYCLE!`. No step looks at
//!    a formula outside the work set. A full pass is the same walk, seeded
//!    with every formula.
//!
//! **A shared range is read once per pass.** Many formulas read the same
//! range (a column total beside every row, ten `SUM(A1:A3000)+k`). Within
//! one `recompute_set` pass, an aggregate's fold of a range into an
//! *empty* accumulator — the range is the aggregate's first input — is
//! memoised under (resolved sheet index, normalised range, function), with
//! the range's first error as a possible result, and every later reader
//! takes it from the memo; the memo is dropped when the pass ends. This is
//! exact: Kahn's order evaluates every work-set formula inside a range
//! before any reader of it, cycle members and their readers are never
//! evaluated, and formulas outside the work set keep their values, so no
//! cell of a memoised range changes during the pass and a hit equals a
//! fresh walk bit for bit. Only a fold into an empty accumulator is
//! shared: into a running one, float sums round and integer sums widen in
//! an order set by the earlier arguments (`0.1 + 1e16 - 1e16` is `0`,
//! `0.1 + (1e16 - 1e16)` is `0.1`), so those ranges, `CONCAT` and
//! `VLOOKUP` still walk. An order-independent exact sum would lift that.
//! `calc_range_memo_hits` counts the hits.
//!
//! The metrics registry's `calc_passes` / `calc_cells_dirtied` /
//! `calc_cells_recomputed` (see `docs/OBSERVABILITY.md`) let tests pin the
//! "unrelated cells are not recomputed" property, not just final values,
//! and `calc_graph_nodes_visited` pins that a pass examined no other
//! formula; `calc_index_stabs` pins that it stabbed the index once per
//! dirty position and member.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::ControlFlow;

use dataspread_formula::{Acc, CellProvider, Func, GridOp};
use dataspread_gridstore::{RTree, Rect};
use dataspread_obs::Counter;
use dataspread_types::{CellAddr, CellError, DsResult, Range, SheetRef, Value};

use crate::sheet::Sheet;
use crate::workbook::Workbook;

/// A formula cell's identity: (sheet index, position).
type CellId = (usize, CellAddr);

/// The dependents index: answers "which formulas read this cell?" by
/// stabbing an R-tree instead of scanning every formula — provenance
/// recorded once, when a formula is typed, and consulted on every edit.
pub(crate) struct DepIndex {
    /// One tree per *precedent* sheet, holding every formula's resolved,
    /// deduplicated precedent rectangles with the formula as payload.
    trees: Vec<RTree<CellId>>,
    /// What each formula was indexed under, so re-typing or clearing it
    /// drops exactly those entries. Formulas that read nothing are absent.
    by_formula: HashMap<CellId, Vec<(usize, Range)>>,
    /// Formulas the last pass covering them poisoned with `#CYCLE!` (on a
    /// cycle or fed by one). A later pass that leaves one out of its work
    /// set still poisons the members it feeds, as a full pass would.
    cyclic: HashSet<CellId>,
    /// Out of date (a structural edit): the next flush runs a full pass,
    /// which rebuilds the index and the cycle set.
    stale: bool,
    /// The registry's `calc_index_stabs`: one per tree search in
    /// [`DepIndex::readers`].
    stabs: Counter,
}

impl std::fmt::Debug for DepIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepIndex")
            .field("formulas", &self.by_formula.len())
            .field("cyclic", &self.cyclic.len())
            .field("stale", &self.stale)
            .finish()
    }
}

impl DepIndex {
    /// An empty index counting its stabs on `stabs`.
    pub(crate) fn new(stabs: Counter) -> Self {
        DepIndex {
            trees: Vec::new(),
            by_formula: HashMap::new(),
            cyclic: HashSet::new(),
            stale: false,
            stabs,
        }
    }

    /// Drop every entry and the cycle set, for a full pass to rebuild.
    fn clear(&mut self) {
        *self = DepIndex::new(self.stabs.clone());
    }

    fn insert(&mut self, id: CellId, precs: Vec<(usize, Range)>) {
        if precs.is_empty() {
            return;
        }
        for &(si, range) in &precs {
            if self.trees.len() <= si {
                self.trees.resize_with(si + 1, RTree::default);
            }
            self.trees[si].insert(Rect::from_range(range), id);
        }
        self.by_formula.insert(id, precs);
    }

    fn remove(&mut self, id: CellId) {
        // Only indexed formulas can be cyclic (a cycle needs an edge in), and
        // the guard keeps a pass over a formula-free workbook hash-free.
        if self.by_formula.is_empty() {
            return;
        }
        self.cyclic.remove(&id);
        for (si, range) in self.by_formula.remove(&id).into_iter().flatten() {
            if let Some(tree) = self.trees.get_mut(si) {
                tree.remove(Rect::from_range(range), id);
            }
        }
    }

    /// Formulas with an indexed precedent rectangle containing the cell,
    /// once per such rectangle, in sorted order. A sheet no formula reads
    /// has an empty tree or none, and nothing to stab.
    fn readers(&self, (si, addr): CellId) -> Vec<CellId> {
        let Some(tree) = self.trees.get(si).filter(|t| !t.is_empty()) else {
            return Vec::new();
        };
        self.stabs.bump();
        let mut out = tree.point_search(addr.row, addr.col);
        out.sort_unstable();
        out
    }
}

/// One recompute pass: its work set and the dependency edges among it,
/// over dense ordinals.
struct Schedule {
    /// The members, sorted; a member's ordinal is its index here.
    members: Vec<CellId>,
    /// Member `m`'s readers are `readers[start[m]..start[m + 1]]`, once per
    /// indexed precedent rectangle of the reader containing `m`, sorted.
    start: Vec<u32>,
    readers: Vec<u32>,
    /// Edges into each member: its entries in `readers`, plus one per
    /// rectangle over a poisoned formula outside the pass.
    indegree: Vec<u32>,
}

/// A range fold's key: (resolved sheet index, normalised range, function).
type FoldKey = (usize, Range, Func);

/// The range folds of one recompute pass: each is a fold into an empty
/// accumulator, or the range's first error. Owned by `recompute_set` and
/// dropped with the pass, so a fold never outlives the cell values it was
/// taken from.
#[derive(Default)]
struct RangeMemo {
    folds: RefCell<HashMap<FoldKey, Result<Acc, CellError>>>,
    hits: Cell<u64>,
}

/// Cross-sheet cell resolution over the workbook's cached values.
pub(crate) struct WbCells<'a> {
    sheets: &'a [Sheet],
    by_name: &'a HashMap<String, usize>,
    home: usize,
    memo: &'a RangeMemo,
}

impl WbCells<'_> {
    fn index(&self, sheet: &SheetRef) -> Result<usize, CellError> {
        match sheet {
            SheetRef::Current => Ok(self.home),
            SheetRef::Named(n) => self
                .by_name
                .get(&n.to_ascii_lowercase())
                .copied()
                .ok_or(CellError::Ref),
        }
    }

    fn resolve(&self, sheet: &SheetRef) -> Result<&Sheet, CellError> {
        Ok(&self.sheets[self.index(sheet)?])
    }
}

impl CellProvider for WbCells<'_> {
    fn cell_value(&self, sheet: &SheetRef, addr: CellAddr) -> Result<Value, CellError> {
        Ok(self.resolve(sheet)?.value(addr))
    }

    fn visit_range(
        &self,
        sheet: &SheetRef,
        range: Range,
        f: &mut dyn FnMut(CellAddr, &Value) -> ControlFlow<()>,
    ) -> Result<(), CellError> {
        self.resolve(sheet)?.visit_range(range, f);
        Ok(())
    }

    /// A fold into an empty accumulator is served from the pass's memo,
    /// walking the range only on its first use; any other fold walks.
    fn fold_range(&self, sheet: &SheetRef, range: Range, acc: &mut Acc) -> Result<(), CellError> {
        if !acc.is_empty() {
            return acc.fold(self, sheet, range);
        }
        let key = (self.index(sheet)?, range, acc.func());
        if let Some(fold) = self.memo.folds.borrow().get(&key) {
            self.memo.hits.set(self.memo.hits.get() + 1);
            *acc = fold.clone()?;
            return Ok(());
        }
        let folded = acc.fold(self, sheet, range);
        let fold = folded.map(|()| acc.clone());
        self.memo.folds.borrow_mut().insert(key, fold);
        folded
    }
}

impl Workbook {
    /// Resolve a formula's sheet qualifier to a sheet index; `None` when the
    /// named sheet does not exist (the reference evaluates to `#REF!`).
    fn resolve_sheet(&self, home: usize, s: &SheetRef) -> Option<usize> {
        match s {
            SheetRef::Current => Some(home),
            SheetRef::Named(n) => self.by_name.get(&n.to_ascii_lowercase()).copied(),
        }
    }

    /// The resolved, deduplicated precedents of the formula at `id`; empty
    /// when there is none (or it did not parse: it displays `#NAME?` and
    /// reads nothing).
    fn precedents(&self, (i, addr): CellId) -> Vec<(usize, Range)> {
        let mut out: Vec<(usize, Range)> = Vec::new();
        let Some(ast) = self.sheets[i].formula_ast(addr) else {
            return out;
        };
        for (s, range) in ast.precedents() {
            if let Some(si) = self.resolve_sheet(i, &s) {
                if !out.contains(&(si, range)) {
                    out.push((si, range));
                }
            }
        }
        out
    }

    /// Bring the index up to date with the edited cells: whatever formula
    /// each held before is dropped, whatever it holds now is inserted.
    fn reindex(&mut self, dirty: &[CellId]) {
        for &id in dirty {
            self.deps.remove(id);
            let precs = self.precedents(id);
            self.deps.insert(id, precs);
        }
    }

    /// One structural edit of sheet `i`: the sheet shifts its cells, its
    /// formulas and its self-references, every other sheet's references
    /// into it are rewritten now, and the index goes stale, so the next
    /// flush is a full pass. Formulas typed later already use post-edit
    /// coordinates and are never shifted by it.
    pub(crate) fn edit_grid(&mut self, i: usize, op: GridOp) -> DsResult<()> {
        self.sheets[i].edit_grid(op)?;
        let edited = self.sheets[i].name().to_string();
        for (j, sheet) in self.sheets.iter_mut().enumerate() {
            if j != i {
                sheet.adjust_foreign_refs(op, &edited);
            }
        }
        self.deps.stale = true;
        Ok(())
    }

    /// Fold every sheet's edited cells into the dependents index and
    /// recompute what they invalidate — everything, when a structural edit
    /// left the index stale. Cheap no-op when nothing is pending and the
    /// index is current. Called by the write boundary (`Workbook::edit`)
    /// and once by `open` after WAL replay.
    pub(crate) fn flush_grid(&mut self) {
        if !self.deps.stale && self.sheets.iter().all(|s| !s.has_pending()) {
            return;
        }
        let mut dirty: Vec<CellId> = Vec::new();
        for (i, sheet) in self.sheets.iter_mut().enumerate() {
            dirty.extend(sheet.take_pending().into_iter().map(|a| (i, a)));
        }
        self.obs.calc_cells_dirtied.add(dirty.len() as u64);
        if self.deps.stale {
            self.recompute_all();
        } else {
            self.reindex(&dirty);
            self.recompute_after(&dirty);
        }
    }

    /// Rebuild the dependents index and re-evaluate every formula in the
    /// workbook (topological order, cycles poisoned). Used on a stale index
    /// (after structural edits), on sheet creation, and by `recalculate`.
    /// The walk is the incremental one, seeded with every formula.
    pub(crate) fn recompute_all(&mut self) {
        let all = self.index_all();
        let pass = self.schedule(&all);
        self.recompute_set(pass);
    }

    /// Rebuild the dependents index from every formula, by inserts, and
    /// return the formulas.
    fn index_all(&mut self) -> Vec<CellId> {
        self.deps.clear();
        let mut all: Vec<CellId> = Vec::new();
        for i in 0..self.sheets.len() {
            for addr in self.sheets[i].formula_addrs() {
                let precs = self.precedents((i, addr));
                self.deps.insert((i, addr), precs);
                all.push((i, addr));
            }
        }
        all
    }

    /// Index a decoded workbook's formulas without evaluating them: the
    /// checkpointed cached values are what the last pass left. Only the
    /// cycle set cannot be read off the index. Every formula a full pass
    /// would poison shows `#CYCLE!`, so those are marked pending: `open`'s
    /// flush re-runs them with their dependents, which rebuilds the set
    /// exactly, beside whatever the WAL tail dirtied.
    pub(crate) fn index_decoded(&mut self) {
        for (i, addr) in self.index_all() {
            if self.sheets[i].value(addr) == Value::Error(CellError::Cycle) {
                self.sheets[i].mark_pending(addr);
            }
        }
    }

    /// Leave a decoded workbook's index stale, so `open`'s flush is one
    /// full pass: its cached values were written under older evaluation
    /// semantics and are not trusted.
    pub(crate) fn distrust_decoded(&mut self) {
        self.deps.stale = true;
    }

    /// Incremental pass: re-evaluate exactly the formulas downstream of the
    /// edited positions.
    fn recompute_after(&mut self, dirty: &[CellId]) {
        let pass = self.schedule(dirty);
        if !pass.members.is_empty() {
            self.recompute_set(pass);
        }
    }

    /// Find the work set of the edited positions `dirty` and its edges.
    /// Edited cells that are themselves formulas are members; the walk
    /// stabs the index once at every dirty position and once at every
    /// member it adds, breadth-first, and a stab at a member's position
    /// yields that member's out-edges (`=A1` in A1 is a self-loop).
    fn schedule(&self, dirty: &[CellId]) -> Schedule {
        // Members in discovery order, their discovery indices, and each
        // one's out-edges as a span of `edges` (discovery indices).
        let mut found: Vec<CellId> = dirty
            .iter()
            .copied()
            .filter(|&(i, a)| self.sheets[i].formula_text(a).is_some())
            .collect();
        let mut slot: HashMap<CellId, u32> = (0..)
            .zip(found.iter().copied())
            .map(|(k, id)| (id, k))
            .collect();
        let mut span: Vec<(u32, u32)> = vec![(0, 0); found.len()];
        let mut edges: Vec<u32> = Vec::new();
        let mut edits = dirty.iter();
        let mut next = found.len();
        loop {
            // Every dirty position first (a dirty formula is stabbed here
            // and never again), then each member the walk added.
            let (pos, member) = match edits.next() {
                Some(&pos) => (pos, slot.get(&pos).copied()),
                None if next < found.len() => {
                    next += 1;
                    (found[next - 1], Some(next as u32 - 1))
                }
                None => break,
            };
            let first = edges.len() as u32;
            for f in self.deps.readers(pos) {
                let k = *slot.entry(f).or_insert_with(|| {
                    found.push(f);
                    span.push((0, 0));
                    found.len() as u32 - 1
                });
                if member.is_some() {
                    edges.push(k);
                }
            }
            if let Some(m) = member {
                span[m as usize] = (first, edges.len() as u32);
            }
        }
        // Ordinals follow sorted `CellId` order, which keeps evaluation
        // order (and therefore tie-breaks) stable across runs.
        let mut order: Vec<u32> = (0..found.len() as u32).collect();
        order.sort_unstable_by_key(|&k| found[k as usize]);
        let mut ordinal = vec![0u32; found.len()];
        for (o, &k) in (0..).zip(&order) {
            ordinal[k as usize] = o;
        }
        let mut pass = Schedule {
            members: order.iter().map(|&k| found[k as usize]).collect(),
            start: Vec::with_capacity(found.len() + 1),
            readers: Vec::with_capacity(edges.len()),
            indegree: vec![0; found.len()],
        };
        pass.start.push(0);
        for &k in &order {
            let (a, b) = span[k as usize];
            for &f in &edges[a as usize..b as usize] {
                let f = ordinal[f as usize];
                pass.readers.push(f);
                pass.indegree[f as usize] += 1;
            }
            pass.start.push(pass.readers.len() as u32);
        }
        // A poisoned formula outside the work set feeds its readers an edge
        // that never resolves: they stay unordered and are poisoned too.
        for &c in &self.deps.cyclic {
            if !slot.contains_key(&c) {
                for f in self.deps.readers(c) {
                    if let Some(&k) = slot.get(&f) {
                        pass.indegree[ordinal[k as usize] as usize] += 1;
                    }
                }
            }
        }
        pass
    }

    /// Evaluate a pass's members in dependency order; whatever Kahn's
    /// algorithm cannot order is on (or downstream of) a cycle → `#CYCLE!`.
    fn recompute_set(&mut self, pass: Schedule) {
        let Schedule {
            members,
            start,
            readers,
            mut indegree,
        } = pass;
        self.obs.calc_passes.bump();
        self.obs.calc_graph_nodes_visited.add(members.len() as u64);
        let mut queue: VecDeque<u32> = (0..)
            .zip(&indegree)
            .filter(|(_, &d)| d == 0)
            .map(|(m, _)| m)
            .collect();
        let memo = RangeMemo::default();
        // Topological level per member: roots sit at level 1, a dependent
        // sits one past its deepest evaluated precedent. The max over the
        // pass is the critical-path depth the `calc_topo_depth` gauge
        // reports.
        let mut level = vec![1u32; members.len()];
        let mut max_level = 0;
        while let Some(m) = queue.pop_front() {
            let m = m as usize;
            self.eval_formula_cell(members[m], &memo);
            max_level = max_level.max(level[m]);
            for &d in &readers[start[m] as usize..start[m + 1] as usize] {
                let d = d as usize;
                level[d] = level[d].max(level[m] + 1);
                indegree[d] -= 1;
                if indegree[d] == 0 {
                    queue.push_back(d as u32);
                }
            }
        }
        self.obs.calc_topo_depth.set(i64::from(max_level));
        self.obs.calc_range_memo_hits.add(memo.hits.get());
        // A member was evaluated exactly when its in-degree reached 0. The
        // leftovers are cyclic (or fed by a cycle): poison them.
        for (id, left) in members.into_iter().zip(indegree) {
            if left == 0 {
                if !self.deps.cyclic.is_empty() {
                    self.deps.cyclic.remove(&id);
                }
            } else {
                self.sheets[id.0].set_cached(id.1, Value::Error(CellError::Cycle));
                self.obs.calc_cells_recomputed.bump();
                self.deps.cyclic.insert(id);
            }
        }
    }

    /// Evaluate one formula cell against the workbook, reading shared
    /// range folds through the pass's `memo`, and cache the result.
    fn eval_formula_cell(&mut self, (i, addr): CellId, memo: &RangeMemo) {
        let v = match self.sheets[i].formula_ast(addr) {
            Some(ast) => {
                let provider = WbCells {
                    sheets: &self.sheets,
                    by_name: &self.by_name,
                    home: i,
                    memo,
                };
                ast.eval(&provider)
            }
            None => return, // formula removed mid-pass; nothing to do
        };
        self.sheets[i].set_cached(addr, v);
        self.obs.calc_cells_recomputed.bump();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workbook;

    fn a(s: &str) -> CellAddr {
        CellAddr::parse_a1(s).unwrap()
    }

    /// A counter of the workbook's metrics registry.
    fn counter(wb: &Workbook, name: &str) -> u64 {
        wb.metrics_snapshot().counter(name).unwrap()
    }

    /// A formula typed into a workbook is evaluated once, by the edit's
    /// flush: its range is walked once, not once by the sheet and again by
    /// the flush.
    #[test]
    fn a_typed_formula_is_evaluated_once() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        let ones: Vec<Vec<Value>> = (0..1000).map(|_| vec![Value::Int(1)]).collect();
        wb.set_region(s, a("A1"), &ones).unwrap();
        use dataspread_gridstore::CellStore;
        let scanned = |wb: &Workbook| wb.sheet(s).store().stats().cells_scanned();
        let before = scanned(&wb);
        let shown = wb.set_input(s, a("B1"), "=SUM(A1:A1000)").unwrap();
        assert_eq!(shown, Value::Int(1000));
        assert_eq!(scanned(&wb) - before, 1000);
        // Unparseable source still shows `#NAME?`, with nothing to walk.
        let shown = wb.set_input(s, a("B2"), "=SUM(A1:").unwrap();
        assert_eq!(shown, Value::Error(CellError::Name));
        assert_eq!(scanned(&wb) - before, 1000);
    }

    #[test]
    fn formula_evaluates_and_tracks_edits() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "2").unwrap();
        wb.set_input(s, a("A2"), "3").unwrap();
        let v = wb.set_input(s, a("B1"), "=SUM(A1:A2)*10").unwrap();
        assert_eq!(v, Value::Int(50));
        // Editing a precedent recomputes the dependent.
        wb.set_input(s, a("A1"), "5").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(80));
        // Clearing a precedent recomputes too.
        wb.set_value(s, a("A2"), Value::Empty).unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(50));
    }

    #[test]
    fn chained_formulas_recompute_in_topological_order() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "1").unwrap();
        wb.set_input(s, a("B1"), "=A1+1").unwrap();
        wb.set_input(s, a("C1"), "=B1+1").unwrap();
        wb.set_input(s, a("D1"), "=C1+B1").unwrap();
        assert_eq!(wb.cell(s, a("D1")), Value::Int(5));
        wb.set_input(s, a("A1"), "10").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(11));
        assert_eq!(wb.cell(s, a("C1")), Value::Int(12));
        assert_eq!(wb.cell(s, a("D1")), Value::Int(23));
    }

    #[test]
    fn unrelated_formulas_are_not_recomputed() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "1").unwrap();
        wb.set_input(s, a("Z1"), "100").unwrap();
        wb.set_input(s, a("B1"), "=A1*2").unwrap();
        wb.set_input(s, a("Y1"), "=Z1*2").unwrap();
        let before = counter(&wb, "calc_cells_recomputed");
        // Touch only A1: exactly one formula (B1) may re-evaluate.
        wb.set_input(s, a("A1"), "7").unwrap();
        let recomputed = counter(&wb, "calc_cells_recomputed") - before;
        assert_eq!(recomputed, 1, "only the dependent formula re-evaluates");
        assert_eq!(wb.cell(s, a("B1")), Value::Int(14));
        assert_eq!(wb.cell(s, a("Y1")), Value::Int(200));
    }

    #[test]
    fn cycles_are_poisoned_not_hung() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "=B1+1").unwrap();
        wb.set_input(s, a("B1"), "=A1+1").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Error(CellError::Cycle));
        assert_eq!(wb.cell(s, a("B1")), Value::Error(CellError::Cycle));
        // Self-reference is the smallest cycle.
        wb.set_input(s, a("C1"), "=C1").unwrap();
        assert_eq!(wb.cell(s, a("C1")), Value::Error(CellError::Cycle));
        // Breaking the cycle heals both cells.
        wb.set_input(s, a("B1"), "1").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(2));
    }

    #[test]
    fn new_readers_of_a_cycle_are_poisoned_like_a_full_pass() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "=B1+1").unwrap();
        wb.set_input(s, a("B1"), "=A1+1").unwrap();
        // C1 never evaluates A1 (the IF takes the other branch), but it is
        // fed by a cycle; the pass sees only C1 and must still poison it.
        // It stabs C1, then each poisoned formula outside it (A1, B1).
        let stabs = counter(&wb, "calc_index_stabs");
        wb.set_input(s, a("C1"), "=IF(D1>0,A1,7)").unwrap();
        assert_eq!(wb.cell(s, a("C1")), Value::Error(CellError::Cycle));
        assert_eq!(counter(&wb, "calc_index_stabs") - stabs, 3);
        wb.recalculate();
        assert_eq!(wb.cell(s, a("C1")), Value::Error(CellError::Cycle));
        // Breaking the cycle frees the reader.
        wb.set_input(s, a("B1"), "1").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(2));
        assert_eq!(wb.cell(s, a("C1")), Value::Int(7));
    }

    #[test]
    fn cross_sheet_dependencies_recompute() {
        let mut wb = Workbook::new();
        let data = wb.add_sheet("Data").unwrap();
        let s = wb.current_sheet();
        wb.set_input(data, a("A1"), "21").unwrap();
        wb.set_input(s, a("A1"), "=Data!A1*2").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(42));
        wb.set_input(data, a("A1"), "50").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(100));
        // A reference to a sheet that does not exist is #REF!.
        wb.set_input(s, a("B1"), "=Nope!A1").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Error(CellError::Ref));
        // Creating the sheet heals it.
        let nope = wb.add_sheet("Nope").unwrap();
        wb.set_input(nope, a("A1"), "9").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Int(9));
    }

    #[test]
    fn structural_edits_shift_references_across_sheets() {
        let mut wb = Workbook::new();
        let data = wb.add_sheet("Data").unwrap();
        let s = wb.current_sheet();
        wb.set_input(data, a("A5"), "7").unwrap();
        wb.set_input(s, a("A1"), "=Data!A5").unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Int(7));
        // Insert rows above the referenced cell on Data: the foreign
        // reference follows the data.
        wb.insert_rows(data, 0, 3).unwrap();
        assert_eq!(wb.formula_text(s, a("A1")), Some("=Data!A8"));
        assert_eq!(wb.cell(s, a("A1")), Value::Int(7));
        // Delete the referenced row: #REF!.
        wb.delete_rows(data, 7, 1).unwrap();
        assert_eq!(wb.cell(s, a("A1")), Value::Error(CellError::Ref));
    }

    #[test]
    fn delete_rows_shrinks_ranges_and_recomputes() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        for r in 1..=5 {
            wb.set_input(s, a(&format!("A{r}")), "10").unwrap();
        }
        wb.set_input(s, a("C1"), "=SUM(A1:A5)").unwrap();
        assert_eq!(wb.cell(s, a("C1")), Value::Int(50));
        wb.delete_rows(s, 1, 2).unwrap();
        assert_eq!(wb.formula_text(s, a("C1")), Some("=SUM(A1:A3)"));
        assert_eq!(wb.cell(s, a("C1")), Value::Int(30));
        wb.insert_cols(s, 0, 1).unwrap();
        assert_eq!(wb.formula_text(s, a("D1")), Some("=SUM(B1:B3)"));
        assert_eq!(wb.cell(s, a("D1")), Value::Int(30));
    }

    #[test]
    fn formula_results_visible_to_sql() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "40").unwrap();
        wb.set_input(s, a("B1"), "=A1+2").unwrap();
        let (_, rows) = wb.query("SELECT RANGEVALUE(B1)").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(42)]]);
        // Via RANGETABLE too.
        wb.set_input(s, a("A2"), "=A1/2").unwrap();
        let (_, rows) = wb.query("SELECT SUM(a) FROM RANGETABLE(A1:A2)").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(60)]]);
        // And an edit of a precedent reaches the query through the formula.
        wb.set_input(s, a("A1"), "100").unwrap();
        let (_, rows) = wb.query("SELECT RANGEVALUE(B1)").unwrap();
        assert_eq!(rows, vec![vec![Value::Int(102)]]);
    }

    /// A workbook laid out like dsbench's `recalc`: 3 000 inputs in A,
    /// `B{i} = A{i}*2+1` on the first 2 400, a 300-long chain in C fed by
    /// G1, 30 block sums of 100 inputs then 10 whole-column sums in D, and
    /// 150 readers of `$E$1` in F — 2 890 formulas, each typed on its own.
    fn recalc_shaped() -> (Workbook, crate::SheetId) {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        let inputs: Vec<Vec<Value>> = (0..3000).map(|i| vec![Value::Int(i % 97)]).collect();
        wb.set_region(s, a("A1"), &inputs).unwrap();
        wb.set_value(s, a("E1"), Value::Int(0)).unwrap();
        wb.set_value(s, a("G1"), Value::Int(0)).unwrap();
        let mut formula = |cell: String, src: String| {
            wb.set_input(s, a(&cell), &src).unwrap();
        };
        for i in 1..=2400 {
            formula(format!("B{i}"), format!("=A{i}*2+1"));
        }
        formula("C1".into(), "=G1".into());
        for k in 2..=300 {
            formula(format!("C{k}"), format!("=C{}+1", k - 1));
        }
        for b in 0..30 {
            let first = b * 100 + 1;
            formula(
                format!("D{}", b + 1),
                format!("=SUM(A{first}:A{})", first + 99),
            );
        }
        for k in 0..10 {
            formula(format!("D{}", 31 + k), format!("=SUM(A1:A3000)+{k}"));
        }
        for k in 1..=150 {
            formula(format!("F{k}"), format!("=$E$1+{k}"));
        }
        (wb, s)
    }

    #[test]
    fn index_stabs_visit_only_the_dependents_of_an_edit() {
        let (mut wb, s) = recalc_shaped();
        let visited = |wb: &Workbook| wb.obs.calc_graph_nodes_visited.get();
        let recomputed = |wb: &Workbook| counter(wb, "calc_cells_recomputed");
        let passes = |wb: &Workbook| counter(wb, "calc_passes");
        let hits = |wb: &Workbook| wb.obs.calc_range_memo_hits.get();
        // One stab per dirty position and one per member the walk adds.
        let stabs = |wb: &Workbook| counter(wb, "calc_index_stabs");

        // An edit nothing reads examines no formula and runs no pass.
        let (v0, p0, t0) = (visited(&wb), passes(&wb), stabs(&wb));
        wb.set_value(s, a("H5"), Value::Int(1)).unwrap();
        assert_eq!(visited(&wb) - v0, 0);
        assert_eq!(passes(&wb) - p0, 0);
        assert_eq!(stabs(&wb) - t0, 1);

        // A leaf edit reaches B5, its block sum D1 and the ten column sums;
        // the first column sum walks A1:A3000 and the other nine reuse it.
        let (v0, r0, h0, t0) = (visited(&wb), recomputed(&wb), hits(&wb), stabs(&wb));
        wb.set_value(s, a("A5"), Value::Int(1000)).unwrap();
        assert_eq!(visited(&wb) - v0, 12);
        assert_eq!(recomputed(&wb) - r0, 12);
        assert_eq!(hits(&wb) - h0, 9);
        assert_eq!(stabs(&wb) - t0, 13);
        assert_eq!(wb.cell(s, a("B5")), Value::Int(2001));
        let total: i64 = (0..3000).map(|i| i % 97).sum::<i64>() - 4 + 1000;
        assert_eq!(wb.cell(s, a("D40")), Value::Int(total + 9));

        // A chain-head edit reaches exactly the 300 chain cells, in order.
        let (v0, r0, h0, t0) = (visited(&wb), recomputed(&wb), hits(&wb), stabs(&wb));
        wb.set_value(s, a("G1"), Value::Int(7)).unwrap();
        assert_eq!(visited(&wb) - v0, 300);
        assert_eq!(recomputed(&wb) - r0, 300);
        assert_eq!(hits(&wb) - h0, 0);
        assert_eq!(stabs(&wb) - t0, 301);
        assert_eq!(wb.cell(s, a("C300")), Value::Int(306));
        assert_eq!(wb.obs.calc_topo_depth.get(), 300);

        // A fan-out edit reaches the 150 readers of $E$1, one level deep.
        let (v0, r0, t0) = (visited(&wb), recomputed(&wb), stabs(&wb));
        wb.set_value(s, a("E1"), Value::Int(5)).unwrap();
        assert_eq!(visited(&wb) - v0, 150);
        assert_eq!(recomputed(&wb) - r0, 150);
        assert_eq!(stabs(&wb) - t0, 151);
        assert_eq!(wb.cell(s, a("F150")), Value::Int(155));
        assert_eq!(wb.obs.calc_topo_depth.get(), 1);
    }

    #[test]
    fn a_leaf_edit_reads_each_range_a_tile_at_a_time() {
        use dataspread_gridstore::CellStore;
        let (mut wb, s) = recalc_shaped();
        let reads = |wb: &Workbook| wb.sheet(s).store().stats().blocks_read();
        // One walk of the column's 94 tiles serves all ten column sums;
        // then the block sum's 4 tiles and B5's one cell. Cell by cell and
        // sum by sum, the edit would read over 30 000 times.
        let before = reads(&wb);
        wb.set_value(s, a("A5"), Value::Int(1000)).unwrap();
        assert_eq!(reads(&wb) - before, 99);
    }

    #[test]
    fn range_reads_are_row_major_across_tile_columns() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        // AH is in the second tile column; row 1 comes before row 2.
        wb.set_value(s, a("AH1"), Value::Error(CellError::Div0))
            .unwrap();
        wb.set_value(s, a("A2"), Value::Error(CellError::Ref))
            .unwrap();
        wb.set_input(s, a("A10"), "=SUM(A1:AH2)").unwrap();
        assert_eq!(wb.cell(s, a("A10")), Value::Error(CellError::Div0));
        wb.set_input(s, a("A11"), "=COUNT(A1:AH2)").unwrap();
        assert_eq!(wb.cell(s, a("A11")), Value::Error(CellError::Div0));
        // CONCAT keeps text order across the AF|AG tile boundary.
        for (cell, text) in [("AE4", "a"), ("AG4", "b"), ("AF5", "c"), ("AH5", "d")] {
            wb.set_input(s, a(cell), text).unwrap();
        }
        wb.set_value(s, a("AF4"), Value::Int(1)).unwrap();
        wb.set_input(s, a("A12"), "=CONCAT(AE4:AH5)").unwrap();
        assert_eq!(wb.cell(s, a("A12")), Value::text("a1bcd"));
    }

    #[test]
    fn vlookup_key_column_crosses_tile_rows() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        // Keys in A30:A40 (tile rows 0 and 1) with gaps and a duplicate 7.
        for (cell, v) in [
            ("A30", "5"),
            ("B30", "five"),
            ("A33", "7"),
            ("B33", "first"),
            ("A35", "7"),
            ("B35", "second"),
            ("A38", "9"),
            ("B38", "nine"),
        ] {
            wb.set_input(s, a(cell), v).unwrap();
        }
        let lookup = |wb: &mut Workbook, src: &str| {
            wb.set_input(s, a("D1"), src).unwrap();
            wb.cell(s, a("D1"))
        };
        assert_eq!(
            lookup(&mut wb, "=VLOOKUP(7,A30:B40,2,FALSE)"),
            Value::text("first")
        );
        assert_eq!(
            lookup(&mut wb, "=VLOOKUP(9,A30:B40,2,FALSE)"),
            Value::text("nine")
        );
        assert_eq!(
            lookup(&mut wb, "=VLOOKUP(0,A30:B40,2,FALSE)"),
            Value::Error(CellError::Na),
            "empty keys never match"
        );
        assert_eq!(
            lookup(&mut wb, "=VLOOKUP(8,A30:B40,2)"),
            Value::text("second"),
            "approximate: the last key at or below the needle"
        );
        wb.set_value(s, a("A36"), Value::Error(CellError::Num))
            .unwrap();
        assert_eq!(
            lookup(&mut wb, "=VLOOKUP(9,A30:B40,2,FALSE)"),
            Value::Error(CellError::Num),
            "an error key before the match"
        );
        assert_eq!(
            lookup(&mut wb, "=VLOOKUP(7,A30:B40,2,FALSE)"),
            Value::text("first"),
            "an error key after the match is never read"
        );
    }

    #[test]
    fn min_max_over_mixed_cells() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_value(s, a("A1"), Value::Int(3)).unwrap();
        wb.set_value(s, a("B1"), Value::Float(2.5)).unwrap();
        wb.set_value(s, a("C1"), Value::text("1")).unwrap();
        wb.set_value(s, a("D1"), Value::Bool(true)).unwrap();
        wb.set_value(s, a("AH1"), Value::Float(3.0)).unwrap();
        let eval = |wb: &mut Workbook, src: &str| {
            wb.set_input(s, a("A5"), src).unwrap();
            wb.cell(s, a("A5"))
        };
        assert_eq!(eval(&mut wb, "=MIN(A1:AH1)"), Value::Float(2.5));
        // Int 3 and Float 3.0 tie; the first in row-major order stays.
        assert_eq!(eval(&mut wb, "=MAX(A1:AH1)"), Value::Int(3));
        assert_eq!(eval(&mut wb, "=MAX(C1:D1)"), Value::Int(0), "no numbers");
        assert_eq!(eval(&mut wb, "=MIN(A1:D1,-1)"), Value::Int(-1));
        assert_eq!(eval(&mut wb, "=MAX(C1,D1,2)"), Value::Int(2));
        assert_eq!(eval(&mut wb, "=SUM(A1:AH1)"), Value::Float(8.5));
    }

    #[test]
    fn non_finite_cells_make_min_max_num_through_the_range_memo() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_value(s, a("A1"), Value::Float(f64::NAN)).unwrap();
        wb.set_value(s, a("A2"), Value::Int(2)).unwrap();
        wb.set_value(s, a("A3"), Value::Float(f64::INFINITY))
            .unwrap();
        let readers = [
            ("B1", "=MIN(A1:A3)"),
            ("B2", "=MIN(A1:A3)"),
            ("C1", "=MAX(A2:A3)"),
            ("C2", "=MAX(A2:A3)"),
            ("D1", "=SUM(A1:A3)"),
            ("D2", "=AVERAGE(A1:A3)"),
            ("D3", "=A1+A2"),
        ];
        for (cell, src) in readers {
            wb.set_input(s, a(cell), src).unwrap();
        }
        // One edit re-evaluates every reader in one pass: the second
        // reader of each MIN/MAX range takes the first one's fold from the
        // memo, non-finite flag included.
        let hits = wb.obs.calc_range_memo_hits.get();
        wb.set_value(s, a("A2"), Value::Int(3)).unwrap();
        assert_eq!(wb.obs.calc_range_memo_hits.get() - hits, 2);
        for (cell, src) in readers {
            assert_eq!(wb.cell(s, a(cell)), Value::Error(CellError::Num), "{src}");
        }
    }

    #[test]
    fn retyped_and_cleared_formulas_leave_the_index() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        // Overlapping precedent rectangles under one formula.
        wb.set_input(s, a("B1"), "=SUM(A1:A3)+SUM(A3:A5)+SUM(A5:A7)")
            .unwrap();
        wb.set_input(s, a("C1"), "=B1").unwrap();
        // Retype B1 to read column D instead: A edits no longer reach it.
        wb.set_input(s, a("B1"), "=D1*2").unwrap();
        let before = counter(&wb, "calc_cells_recomputed");
        for r in 1..=7 {
            wb.set_value(s, a(&format!("A{r}")), Value::Int(r)).unwrap();
        }
        assert_eq!(counter(&wb, "calc_cells_recomputed"), before);
        wb.set_value(s, a("D1"), Value::Int(4)).unwrap();
        assert_eq!(wb.cell(s, a("C1")), Value::Int(8));
        // Clearing B1 drops its entries; C1 still re-reads the empty cell.
        wb.set_value(s, a("B1"), Value::Empty).unwrap();
        let before = counter(&wb, "calc_cells_recomputed");
        wb.set_value(s, a("D1"), Value::Int(5)).unwrap();
        assert_eq!(counter(&wb, "calc_cells_recomputed"), before);
        assert_eq!(wb.cell(s, a("C1")), Value::Empty);
        assert!(wb.deps.by_formula.keys().all(|id| id.1 == a("C1")));
    }

    #[test]
    fn error_propagation_through_dependents() {
        let mut wb = Workbook::new();
        let s = wb.current_sheet();
        wb.set_input(s, a("A1"), "1").unwrap();
        wb.set_input(s, a("B1"), "=A1/0").unwrap();
        wb.set_input(s, a("C1"), "=B1+1").unwrap();
        assert_eq!(wb.cell(s, a("B1")), Value::Error(CellError::Div0));
        assert_eq!(wb.cell(s, a("C1")), Value::Error(CellError::Div0));
        // IF can shield dependents from the error.
        wb.set_input(s, a("D1"), "=IF(A1>0,A1,B1)").unwrap();
        assert_eq!(wb.cell(s, a("D1")), Value::Int(1));
    }
}
