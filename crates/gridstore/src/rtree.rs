//! A compact R-tree over integer rectangles.
//!
//! This is the "two-dimensional indexing method" of the paper's interface
//! storage manager: proximity blocks register their bounding rectangles here,
//! and a window fetch asks the tree which blocks could intersect the window.
//! Quadratic-split Guttman R-tree; deletion condenses underfull nodes by
//! re-inserting the orphaned data entries.

use dataspread_types::Range;

/// Inclusive integer rectangle in (row, col) space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Rect {
    pub r0: u32,
    pub c0: u32,
    pub r1: u32,
    pub c1: u32,
}

impl Rect {
    pub fn new(r0: u32, c0: u32, r1: u32, c1: u32) -> Self {
        debug_assert!(r0 <= r1 && c0 <= c1);
        Rect { r0, c0, r1, c1 }
    }

    pub fn point(r: u32, c: u32) -> Self {
        Rect {
            r0: r,
            c0: c,
            r1: r,
            c1: c,
        }
    }

    pub fn from_range(r: Range) -> Self {
        Rect {
            r0: r.start.row,
            c0: r.start.col,
            r1: r.end.row,
            c1: r.end.col,
        }
    }

    pub fn to_range(self) -> Range {
        Range::from_bounds(self.r0, self.c0, self.r1, self.c1)
    }

    pub fn intersects(&self, o: &Rect) -> bool {
        self.r0 <= o.r1 && o.r0 <= self.r1 && self.c0 <= o.c1 && o.c0 <= self.c1
    }

    pub fn contains_point(&self, r: u32, c: u32) -> bool {
        r >= self.r0 && r <= self.r1 && c >= self.c0 && c <= self.c1
    }

    /// Does this rectangle cover all of `o`?
    pub fn contains(&self, o: &Rect) -> bool {
        self.r0 <= o.r0 && o.r1 <= self.r1 && self.c0 <= o.c0 && o.c1 <= self.c1
    }

    pub fn union(&self, o: &Rect) -> Rect {
        Rect {
            r0: self.r0.min(o.r0),
            c0: self.c0.min(o.c0),
            r1: self.r1.max(o.r1),
            c1: self.c1.max(o.c1),
        }
    }

    pub fn area(&self) -> u64 {
        (self.r1 - self.r0 + 1) as u64 * (self.c1 - self.c0 + 1) as u64
    }

    /// How much this rectangle's area would grow to cover `o`.
    pub fn enlargement(&self, o: &Rect) -> u64 {
        self.union(o).area() - self.area()
    }
}

type NodeId = usize;

#[derive(Debug)]
enum RNodeKind<P> {
    Leaf(Vec<(Rect, P)>),
    Internal(Vec<(Rect, NodeId)>),
    Free,
}

#[derive(Debug)]
struct RNode<P> {
    kind: RNodeKind<P>,
}

/// Guttman R-tree mapping rectangles to payloads.
#[derive(Debug)]
pub struct RTree<P> {
    arena: Vec<RNode<P>>,
    free: Vec<NodeId>,
    root: NodeId,
    len: usize,
    max_entries: usize,
    min_entries: usize,
}

impl<P: Copy + PartialEq> Default for RTree<P> {
    fn default() -> Self {
        RTree::new(8)
    }
}

impl<P: Copy + PartialEq> RTree<P> {
    /// `max_entries` per node (≥ 4); min fill is `max_entries / 2 - 1`,
    /// clamped to ≥ 2.
    pub fn new(max_entries: usize) -> Self {
        assert!(max_entries >= 4);
        RTree {
            arena: vec![RNode {
                kind: RNodeKind::Leaf(Vec::new()),
            }],
            free: Vec::new(),
            root: 0,
            len: 0,
            max_entries,
            min_entries: (max_entries / 2).saturating_sub(1).max(2),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn alloc(&mut self, node: RNode<P>) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.arena[id] = node;
            id
        } else {
            self.arena.push(node);
            self.arena.len() - 1
        }
    }

    fn release(&mut self, id: NodeId) {
        self.arena[id] = RNode {
            kind: RNodeKind::Free,
        };
        self.free.push(id);
    }

    // ---- insert ----------------------------------------------------------

    pub fn insert(&mut self, rect: Rect, payload: P) {
        self.len += 1;
        if let Some((sib_rect, sib_id)) = self.insert_rec(self.root, rect, payload) {
            // Root split: grow the tree by one level.
            let old_root = self.root;
            let old_rect = self.node_bounds(old_root);
            let new_root = self.alloc(RNode {
                kind: RNodeKind::Internal(vec![(old_rect, old_root), (sib_rect, sib_id)]),
            });
            self.root = new_root;
        }
    }

    /// Recursive insert; returns `Some((rect, id))` if `node` split and a new
    /// sibling must be linked by the caller.
    fn insert_rec(&mut self, node: NodeId, rect: Rect, payload: P) -> Option<(Rect, NodeId)> {
        let is_leaf = matches!(self.arena[node].kind, RNodeKind::Leaf(_));
        if is_leaf {
            match &mut self.arena[node].kind {
                RNodeKind::Leaf(entries) => entries.push((rect, payload)),
                _ => unreachable!(),
            }
            if self.node_len(node) > self.max_entries {
                return Some(self.split_leaf(node));
            }
            return None;
        }
        // Choose the subtree needing least enlargement (ties: smaller area).
        let chosen = match &self.arena[node].kind {
            RNodeKind::Internal(entries) => {
                let mut best = 0;
                let mut best_cost = (u64::MAX, u64::MAX);
                for (i, (r, _)) in entries.iter().enumerate() {
                    let cost = (r.enlargement(&rect), r.area());
                    if cost < best_cost {
                        best_cost = cost;
                        best = i;
                    }
                }
                best
            }
            _ => unreachable!(),
        };
        let child_id = match &self.arena[node].kind {
            RNodeKind::Internal(entries) => entries[chosen].1,
            _ => unreachable!(),
        };
        let split = self.insert_rec(child_id, rect, payload);
        // Update the chosen entry's rect to cover the new data.
        let child_bounds = self.node_bounds(child_id);
        match &mut self.arena[node].kind {
            RNodeKind::Internal(entries) => entries[chosen].0 = child_bounds,
            _ => unreachable!(),
        }
        if let Some((sr, sid)) = split {
            match &mut self.arena[node].kind {
                RNodeKind::Internal(entries) => entries.push((sr, sid)),
                _ => unreachable!(),
            }
            if self.node_len(node) > self.max_entries {
                return Some(self.split_internal(node));
            }
        }
        None
    }

    fn node_len(&self, id: NodeId) -> usize {
        match &self.arena[id].kind {
            RNodeKind::Leaf(e) => e.len(),
            RNodeKind::Internal(e) => e.len(),
            RNodeKind::Free => panic!("free node"),
        }
    }

    fn node_bounds(&self, id: NodeId) -> Rect {
        match &self.arena[id].kind {
            RNodeKind::Leaf(e) => {
                let mut it = e.iter();
                let mut b = it.next().expect("bounds of empty node").0;
                for (r, _) in it {
                    b = b.union(r);
                }
                b
            }
            RNodeKind::Internal(e) => {
                let mut it = e.iter();
                let mut b = it.next().expect("bounds of empty node").0;
                for (r, _) in it {
                    b = b.union(r);
                }
                b
            }
            RNodeKind::Free => panic!("free node"),
        }
    }

    fn split_leaf(&mut self, node: NodeId) -> (Rect, NodeId) {
        let entries = match &mut self.arena[node].kind {
            RNodeKind::Leaf(e) => std::mem::take(e),
            _ => unreachable!(),
        };
        let (a, b) = quadratic_split(entries, self.min_entries);
        match &mut self.arena[node].kind {
            RNodeKind::Leaf(e) => *e = a,
            _ => unreachable!(),
        }
        let sib = self.alloc(RNode {
            kind: RNodeKind::Leaf(b),
        });
        (self.node_bounds(sib), sib)
    }

    fn split_internal(&mut self, node: NodeId) -> (Rect, NodeId) {
        let entries = match &mut self.arena[node].kind {
            RNodeKind::Internal(e) => std::mem::take(e),
            _ => unreachable!(),
        };
        let (a, b) = quadratic_split(entries, self.min_entries);
        match &mut self.arena[node].kind {
            RNodeKind::Internal(e) => *e = a,
            _ => unreachable!(),
        }
        let sib = self.alloc(RNode {
            kind: RNodeKind::Internal(b),
        });
        (self.node_bounds(sib), sib)
    }

    // ---- search ------------------------------------------------------------

    /// All payloads whose rectangle intersects `query`.
    pub fn search(&self, query: Rect) -> Vec<P> {
        let mut out = Vec::new();
        self.search_rec(self.root, query, &mut out);
        out
    }

    /// Payloads whose rectangle contains the point.
    pub fn point_search(&self, row: u32, col: u32) -> Vec<P> {
        self.search(Rect::point(row, col))
    }

    fn search_rec(&self, node: NodeId, query: Rect, out: &mut Vec<P>) {
        match &self.arena[node].kind {
            RNodeKind::Leaf(entries) => {
                for (r, p) in entries {
                    if r.intersects(&query) {
                        out.push(*p);
                    }
                }
            }
            RNodeKind::Internal(entries) => {
                for (r, c) in entries {
                    if r.intersects(&query) {
                        self.search_rec(*c, query, out);
                    }
                }
            }
            RNodeKind::Free => panic!("free node"),
        }
    }

    /// Visit every (rect, payload) pair (unordered) — used by rebuilds.
    pub fn for_each(&self, f: &mut dyn FnMut(Rect, P)) {
        self.for_each_rec(self.root, f);
    }

    fn for_each_rec(&self, node: NodeId, f: &mut dyn FnMut(Rect, P)) {
        match &self.arena[node].kind {
            RNodeKind::Leaf(entries) => {
                for (r, p) in entries {
                    f(*r, *p);
                }
            }
            RNodeKind::Internal(entries) => {
                for (_, c) in entries {
                    self.for_each_rec(*c, f);
                }
            }
            RNodeKind::Free => panic!("free node"),
        }
    }

    // ---- delete -----------------------------------------------------------

    /// Remove the entry stored under exactly `rect` with this payload (one
    /// payload may sit under several, overlapping rectangles). Returns
    /// `true` if an entry was removed.
    pub fn remove(&mut self, rect: Rect, payload: P) -> bool {
        let mut orphans: Vec<(Rect, P)> = Vec::new();
        let found = self.remove_rec(self.root, rect, payload, &mut orphans);
        if found {
            self.len -= 1;
        }
        // Shrink the root: an internal root with one child drops a level.
        loop {
            let collapse = match &self.arena[self.root].kind {
                RNodeKind::Internal(entries) if entries.len() == 1 => Some(entries[0].1),
                RNodeKind::Internal(entries) if entries.is_empty() => None,
                _ => break,
            };
            match collapse {
                Some(child) => {
                    let old = self.root;
                    self.root = child;
                    self.release(old);
                }
                None => {
                    self.arena[self.root].kind = RNodeKind::Leaf(Vec::new());
                    break;
                }
            }
        }
        // Re-insert data entries orphaned by condensed nodes.
        for (r, p) in orphans {
            self.len -= 1; // insert() will re-increment
            self.insert(r, p);
        }
        found
    }

    fn remove_rec(
        &mut self,
        node: NodeId,
        rect: Rect,
        payload: P,
        orphans: &mut Vec<(Rect, P)>,
    ) -> bool {
        let is_leaf = matches!(self.arena[node].kind, RNodeKind::Leaf(_));
        if is_leaf {
            match &mut self.arena[node].kind {
                RNodeKind::Leaf(entries) => {
                    if let Some(i) = entries
                        .iter()
                        .position(|(r, p)| *p == payload && *r == rect)
                    {
                        entries.remove(i);
                        return true;
                    }
                    false
                }
                _ => unreachable!(),
            }
        } else {
            let candidates: Vec<(usize, NodeId)> = match &self.arena[node].kind {
                RNodeKind::Internal(entries) => entries
                    .iter()
                    .enumerate()
                    .filter(|(_, (r, _))| r.contains(&rect))
                    .map(|(i, (_, c))| (i, *c))
                    .collect(),
                _ => unreachable!(),
            };
            for (idx, child) in candidates {
                if self.remove_rec(child, rect, payload, orphans) {
                    if self.node_len(child) < self.min_entries {
                        // Condense: orphan the whole subtree for re-insert.
                        self.collect_subtree(child, orphans);
                        self.release(child);
                        match &mut self.arena[node].kind {
                            RNodeKind::Internal(entries) => {
                                entries.remove(idx);
                            }
                            _ => unreachable!(),
                        }
                    } else {
                        let nb = self.node_bounds(child);
                        match &mut self.arena[node].kind {
                            RNodeKind::Internal(entries) => entries[idx].0 = nb,
                            _ => unreachable!(),
                        }
                    }
                    return true;
                }
            }
            false
        }
    }

    fn collect_subtree(&mut self, node: NodeId, out: &mut Vec<(Rect, P)>) {
        let kind = std::mem::replace(&mut self.arena[node].kind, RNodeKind::Free);
        match kind {
            RNodeKind::Leaf(entries) => out.extend(entries),
            RNodeKind::Internal(entries) => {
                for (_, c) in entries {
                    self.collect_subtree(c, out);
                    self.release(c);
                }
            }
            RNodeKind::Free => {}
        }
    }

    /// Update the rectangle stored for `payload` (a block grew or shrank):
    /// remove + re-insert.
    pub fn update(&mut self, old_rect: Rect, new_rect: Rect, payload: P) -> bool {
        if self.remove(old_rect, payload) {
            self.insert(new_rect, payload);
            true
        } else {
            false
        }
    }
}

/// The two halves a node splits into.
type SplitHalves<X> = (Vec<(Rect, X)>, Vec<(Rect, X)>);

/// Guttman quadratic split: pick the two seeds wasting the most area
/// together, then greedily assign the rest by least enlargement.
fn quadratic_split<X>(mut entries: Vec<(Rect, X)>, min_entries: usize) -> SplitHalves<X> {
    debug_assert!(entries.len() >= 2);
    // Seed selection.
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, 0i64);
    for i in 0..entries.len() {
        for j in (i + 1)..entries.len() {
            let d = entries[i].0.union(&entries[j].0).area() as i64
                - entries[i].0.area() as i64
                - entries[j].0.area() as i64;
            if d >= worst {
                worst = d;
                s1 = i;
                s2 = j;
            }
        }
    }
    // Take seeds out (higher index first to keep the other stable).
    let (hi, lo) = if s1 > s2 { (s1, s2) } else { (s2, s1) };
    let e_hi = entries.swap_remove(hi);
    let e_lo = entries.swap_remove(lo);
    let mut a = vec![e_lo];
    let mut b = vec![e_hi];
    let mut ra = a[0].0;
    let mut rb = b[0].0;
    while let Some(e) = entries.pop() {
        // Force assignment if one side must take everything to reach min.
        let remaining = entries.len() + 1;
        if a.len() + remaining <= min_entries {
            ra = ra.union(&e.0);
            a.push(e);
            continue;
        }
        if b.len() + remaining <= min_entries {
            rb = rb.union(&e.0);
            b.push(e);
            continue;
        }
        let ea = ra.enlargement(&e.0);
        let eb = rb.enlargement(&e.0);
        if ea < eb || (ea == eb && a.len() <= b.len()) {
            ra = ra.union(&e.0);
            a.push(e);
        } else {
            rb = rb.union(&e.0);
            b.push(e);
        }
    }
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_basics() {
        let a = Rect::new(0, 0, 4, 4);
        let b = Rect::new(3, 3, 6, 6);
        assert!(a.intersects(&b));
        assert_eq!(a.union(&b), Rect::new(0, 0, 6, 6));
        assert_eq!(a.area(), 25);
        assert_eq!(a.enlargement(&b), 49 - 25);
        assert!(a.contains_point(4, 4));
        assert!(!a.contains_point(5, 0));
        assert!(a.contains(&Rect::new(1, 1, 4, 4)));
        assert!(!a.contains(&b));
    }

    #[test]
    fn insert_search_point() {
        let mut t: RTree<u32> = RTree::new(4);
        for i in 0..50u32 {
            t.insert(Rect::new(i * 10, 0, i * 10 + 5, 5), i);
        }
        assert_eq!(t.len(), 50);
        let hits = t.point_search(102, 3);
        assert_eq!(hits, vec![10]);
        let hits = t.search(Rect::new(0, 0, 25, 5));
        let mut hits = hits;
        hits.sort();
        assert_eq!(hits, vec![0, 1, 2]);
    }

    #[test]
    fn overlapping_rects_all_found() {
        let mut t: RTree<u32> = RTree::new(4);
        for i in 0..20u32 {
            t.insert(Rect::new(0, 0, 10, 10), i);
        }
        let mut hits = t.point_search(5, 5);
        hits.sort();
        assert_eq!(hits, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn remove_and_search() {
        let mut t: RTree<u32> = RTree::new(4);
        for i in 0..30u32 {
            t.insert(Rect::point(i, i), i);
        }
        assert!(t.remove(Rect::point(7, 7), 7));
        assert!(!t.remove(Rect::point(7, 7), 7), "double remove");
        assert_eq!(t.len(), 29);
        assert!(t.point_search(7, 7).is_empty());
        assert_eq!(t.point_search(8, 8), vec![8]);
    }

    #[test]
    fn remove_everything() {
        let mut t: RTree<u32> = RTree::new(4);
        for i in 0..100u32 {
            t.insert(Rect::new(i, i, i + 2, i + 2), i);
        }
        for i in 0..100u32 {
            assert!(t.remove(Rect::new(i, i, i + 2, i + 2), i), "remove {i}");
        }
        assert!(t.is_empty());
        assert!(t.search(Rect::new(0, 0, 1000, 1000)).is_empty());
    }

    #[test]
    fn shared_payload_entries_remove_by_exact_rect() {
        // One payload under a chain of overlapping rects (a formula reading
        // A1:A3, A3:A5 and A5:A7). Removing by "any intersecting entry"
        // could take A3:A5 for A1:A3, then A5:A7 for A3:A5, and leave A1:A3
        // behind with nothing to match A5:A7.
        let mut t: RTree<u32> = RTree::new(4);
        let chain = [
            Rect::new(0, 0, 2, 0),
            Rect::new(2, 0, 4, 0),
            Rect::new(4, 0, 6, 0),
        ];
        for r in [chain[1], chain[2], chain[0]] {
            t.insert(r, 7);
        }
        t.insert(Rect::new(1, 0, 5, 0), 8);
        assert!(
            !t.remove(Rect::new(0, 0, 1, 0), 7),
            "intersecting is not enough"
        );
        for r in chain {
            assert!(t.remove(r, 7), "remove {r:?}");
        }
        assert_eq!(t.search(Rect::new(0, 0, 10, 10)), vec![8]);
    }

    #[test]
    fn update_moves_entry() {
        let mut t: RTree<u32> = RTree::new(4);
        t.insert(Rect::new(0, 0, 1, 1), 42);
        assert!(t.update(Rect::new(0, 0, 1, 1), Rect::new(50, 50, 60, 60), 42));
        assert!(t.point_search(0, 0).is_empty());
        assert_eq!(t.point_search(55, 55), vec![42]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn for_each_visits_all() {
        let mut t: RTree<u32> = RTree::new(5);
        for i in 0..37u32 {
            t.insert(Rect::point(i % 7, i / 7), i);
        }
        let mut seen = Vec::new();
        t.for_each(&mut |_, p| seen.push(p));
        seen.sort();
        assert_eq!(seen, (0..37).collect::<Vec<_>>());
    }

    #[test]
    fn search_window_after_heavy_churn() {
        let mut t: RTree<u32> = RTree::new(6);
        // Insert 200, delete the odd ones, verify the evens.
        for i in 0..200u32 {
            t.insert(Rect::point(i, 2 * i), i);
        }
        for i in (1..200u32).step_by(2) {
            assert!(t.remove(Rect::point(i, 2 * i), i));
        }
        for i in (0..200u32).step_by(2) {
            assert_eq!(t.point_search(i, 2 * i), vec![i], "payload {i}");
        }
        assert_eq!(t.len(), 100);
    }
}
