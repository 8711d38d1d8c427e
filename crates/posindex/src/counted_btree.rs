//! Order-statistics ("counted") B-tree: the positional index itself.
//!
//! Instead of separator *keys*, internal nodes store the *sizes* of their
//! subtrees. Descending by running count answers "what is at position p?" in
//! O(log n); inserting or deleting at a position touches one root-to-leaf
//! path. Stable row keys live in the leaves in presentation order. A
//! key→leaf map ([`KeyMap`], dense by key) plus parent pointers gives the
//! reverse lookup (`position_of`) in O(log n · fanout), which the interface
//! manager needs to translate keyed database updates back into grid rows.
//!
//! Nodes live in an arena (`Vec<Node>`) with integer ids and an explicit free
//! list, so the structure is safe Rust with no `Rc`/`RefCell` overhead.

use dataspread_types::{DsError, DsResult};

use crate::{KeyMap, PositionalIndex, RowKey};

type NodeId = usize;

/// `key_leaf`'s empty slot: no leaf has this id. Leaf ids are stored as
/// `u32`, half a `NodeId`; a tree would need 2³² nodes, of at least
/// `fanout / 2` keys each, to reach it.
const VACANT: u32 = u32::MAX;

/// Default maximum entries per node. 64 keeps nodes around a cache line
/// multiple and the tree ≤ 4 levels deep up to ~16M rows.
pub const DEFAULT_FANOUT: usize = 64;

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf {
        keys: Vec<RowKey>,
        /// Next leaf in presentation order; makes windowed reads a linked-list
        /// walk after one descent.
        next: Option<NodeId>,
    },
    Internal {
        children: Vec<NodeId>,
        /// `counts[i]` = number of keys under `children[i]`.
        counts: Vec<usize>,
    },
    /// Slot on the free list.
    Free,
}

#[derive(Clone, Debug)]
struct Node {
    parent: Option<NodeId>,
    kind: NodeKind,
}

/// The counted B-tree. See the module docs.
#[derive(Clone, Debug)]
pub struct CountedBtree {
    arena: Vec<Node>,
    free: Vec<NodeId>,
    root: NodeId,
    len: usize,
    fanout: usize,
    /// Reverse index: which leaf currently holds each key.
    key_leaf: KeyMap<u32>,
}

impl Default for CountedBtree {
    fn default() -> Self {
        CountedBtree::new()
    }
}

impl CountedBtree {
    /// An empty tree with the default fanout.
    pub fn new() -> Self {
        CountedBtree::with_fanout(DEFAULT_FANOUT)
    }

    /// An empty tree with an explicit fanout (≥ 4). Exposed so the benches can
    /// sweep the fanout (ablation #3 in DESIGN.md).
    pub fn with_fanout(fanout: usize) -> Self {
        assert!(fanout >= 4, "fanout must be at least 4");
        let root = 0;
        CountedBtree {
            arena: vec![Node {
                parent: None,
                kind: NodeKind::Leaf {
                    keys: Vec::new(),
                    next: None,
                },
            }],
            free: Vec::new(),
            root,
            len: 0,
            fanout,
            key_leaf: KeyMap::new(VACANT),
        }
    }

    /// Bulk-load from keys in positional order — O(n), used when a table is
    /// first displayed. Errors on duplicate keys.
    pub fn from_keys(keys: impl IntoIterator<Item = RowKey>) -> DsResult<Self> {
        Self::from_keys_with_fanout(keys, DEFAULT_FANOUT)
    }

    pub fn from_keys_with_fanout(
        keys: impl IntoIterator<Item = RowKey>,
        fanout: usize,
    ) -> DsResult<Self> {
        assert!(fanout >= 4, "fanout must be at least 4");
        let all: Vec<RowKey> = keys.into_iter().collect();
        if all.is_empty() {
            return Ok(CountedBtree::with_fanout(fanout));
        }
        let min = fanout / 2;
        let mut tree = CountedBtree {
            arena: Vec::new(),
            free: Vec::new(),
            root: 0,
            len: all.len(),
            fanout,
            key_leaf: KeyMap::new(VACANT),
        };

        // Chunk keys into leaves, keeping every leaf within [min, fanout].
        let mut chunks: Vec<Vec<RowKey>> = all.chunks(fanout).map(|c| c.to_vec()).collect();
        let n_chunks = chunks.len();
        if n_chunks >= 2 && chunks[n_chunks - 1].len() < min {
            let deficit = min - chunks[n_chunks - 1].len();
            let donor_len = chunks[n_chunks - 2].len();
            let moved = chunks[n_chunks - 2].split_off(donor_len - deficit);
            let last = &mut chunks[n_chunks - 1];
            let mut new_last = moved;
            new_last.append(last);
            *last = new_last;
        }

        // Build the leaf level, and the reverse index in one pass.
        let mut level: Vec<(NodeId, usize)> = Vec::with_capacity(chunks.len());
        let mut prev: Option<NodeId> = None;
        let mut homes: Vec<(RowKey, u32)> = Vec::with_capacity(all.len());
        for chunk in chunks {
            let count = chunk.len();
            let id = tree.arena.len();
            homes.extend(chunk.iter().map(|&k| (k, id as u32)));
            tree.arena.push(Node {
                parent: None,
                kind: NodeKind::Leaf {
                    keys: chunk,
                    next: None,
                },
            });
            if let Some(p) = prev {
                match &mut tree.arena[p].kind {
                    NodeKind::Leaf { next, .. } => *next = Some(id),
                    _ => unreachable!(),
                }
            }
            prev = Some(id);
            level.push((id, count));
        }

        tree.key_leaf = KeyMap::from_pairs(homes, VACANT);
        if tree.key_leaf.len() != all.len() {
            let mut seen = std::collections::HashSet::with_capacity(all.len());
            let dup = all
                .iter()
                .find(|&&k| !seen.insert(k))
                .copied()
                .unwrap_or_default();
            return Err(DsError::Storage(format!("duplicate row key {dup}")));
        }

        // Build internal levels until a single root remains.
        while level.len() > 1 {
            let mut next_level: Vec<(NodeId, usize)> = Vec::with_capacity(level.len() / 2 + 1);
            let mut groups: Vec<Vec<(NodeId, usize)>> =
                level.chunks(fanout).map(|c| c.to_vec()).collect();
            let g = groups.len();
            if g >= 2 && groups[g - 1].len() < min {
                let deficit = min - groups[g - 1].len();
                let donor_len = groups[g - 2].len();
                let moved = groups[g - 2].split_off(donor_len - deficit);
                let last = &mut groups[g - 1];
                let mut new_last = moved;
                new_last.append(last);
                *last = new_last;
            }
            for group in groups {
                let id = tree.arena.len();
                let children: Vec<NodeId> = group.iter().map(|(c, _)| *c).collect();
                let counts: Vec<usize> = group.iter().map(|(_, n)| *n).collect();
                let total: usize = counts.iter().sum();
                for &c in &children {
                    tree.arena[c].parent = Some(id);
                }
                tree.arena.push(Node {
                    parent: None,
                    kind: NodeKind::Internal { children, counts },
                });
                next_level.push((id, total));
            }
            level = next_level;
        }
        tree.root = level[0].0;
        Ok(tree)
    }

    /// Configured node fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree height in levels (a lone leaf is depth 1).
    pub fn depth(&self) -> usize {
        let mut d = 1;
        let mut id = self.root;
        while let NodeKind::Internal { children, .. } = &self.arena[id].kind {
            id = children[0];
            d += 1;
        }
        d
    }

    /// Number of live nodes (for space accounting in benches).
    pub fn node_count(&self) -> usize {
        self.arena.len() - self.free.len()
    }

    // ---- arena helpers -------------------------------------------------

    fn alloc(&mut self, node: Node) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.arena[id] = node;
            id
        } else {
            self.arena.push(node);
            self.arena.len() - 1
        }
    }

    fn release(&mut self, id: NodeId) {
        self.arena[id] = Node {
            parent: None,
            kind: NodeKind::Free,
        };
        self.free.push(id);
    }

    fn child_index(&self, parent: NodeId, child: NodeId) -> usize {
        match &self.arena[parent].kind {
            NodeKind::Internal { children, .. } => children
                .iter()
                .position(|&c| c == child)
                .expect("child not found under parent"),
            _ => panic!("child_index on non-internal node"),
        }
    }

    fn node_size(&self, id: NodeId) -> usize {
        match &self.arena[id].kind {
            NodeKind::Leaf { keys, .. } => keys.len(),
            NodeKind::Internal { children, .. } => children.len(),
            NodeKind::Free => panic!("size of freed node"),
        }
    }

    /// Propagate a ±delta along the path from `node` to the root.
    fn bump_counts(&mut self, mut node: NodeId, delta: isize) {
        while let Some(p) = self.arena[node].parent {
            let idx = self.child_index(p, node);
            match &mut self.arena[p].kind {
                NodeKind::Internal { counts, .. } => {
                    counts[idx] = (counts[idx] as isize + delta) as usize;
                }
                _ => unreachable!(),
            }
            node = p;
        }
    }

    /// Descend to the leaf that should receive an insert at `pos`.
    /// At exact boundaries we lean left (append to the earlier leaf).
    fn locate_insert(&self, mut pos: usize) -> (NodeId, usize) {
        let mut id = self.root;
        loop {
            match &self.arena[id].kind {
                NodeKind::Leaf { .. } => return (id, pos),
                NodeKind::Internal { children, counts } => {
                    let mut chosen = children.len() - 1;
                    for (i, &c) in counts.iter().enumerate() {
                        if pos <= c {
                            chosen = i;
                            break;
                        }
                        pos -= c;
                    }
                    id = children[chosen];
                }
                NodeKind::Free => unreachable!("free node in tree"),
            }
        }
    }

    /// Descend to the leaf holding position `pos` (requires `pos < len`).
    fn locate_read(&self, mut pos: usize) -> (NodeId, usize) {
        let mut id = self.root;
        loop {
            match &self.arena[id].kind {
                NodeKind::Leaf { .. } => return (id, pos),
                NodeKind::Internal { children, counts } => {
                    let mut chosen = children.len() - 1;
                    for (i, &c) in counts.iter().enumerate() {
                        if pos < c {
                            chosen = i;
                            break;
                        }
                        pos -= c;
                    }
                    id = children[chosen];
                }
                NodeKind::Free => unreachable!("free node in tree"),
            }
        }
    }

    // ---- splits --------------------------------------------------------

    fn split_leaf(&mut self, left_id: NodeId) {
        let (right_keys, old_next) = match &mut self.arena[left_id].kind {
            NodeKind::Leaf { keys, next } => {
                let mid = keys.len() / 2;
                let right = keys.split_off(mid);
                // The left half keeps the grown buffer otherwise: under
                // appends it never fills again, and would hold up to four
                // times the memory of its keys.
                keys.shrink_to_fit();
                (right, *next)
            }
            _ => unreachable!(),
        };
        let left_count = self.node_size(left_id);
        let right_count = right_keys.len();
        let right_id = self.alloc(Node {
            parent: None,
            kind: NodeKind::Leaf {
                keys: right_keys,
                next: old_next,
            },
        });
        match &mut self.arena[left_id].kind {
            NodeKind::Leaf { next, .. } => *next = Some(right_id),
            _ => unreachable!(),
        }
        // Re-home the moved keys in the reverse index.
        let moved: Vec<RowKey> = match &self.arena[right_id].kind {
            NodeKind::Leaf { keys, .. } => keys.clone(),
            _ => unreachable!(),
        };
        for k in moved {
            self.key_leaf.insert(k, right_id as u32);
        }
        self.attach_right(left_id, right_id, left_count, right_count);
    }

    fn split_internal(&mut self, left_id: NodeId) {
        let (right_children, right_counts) = match &mut self.arena[left_id].kind {
            NodeKind::Internal { children, counts } => {
                let mid = children.len() / 2;
                (children.split_off(mid), counts.split_off(mid))
            }
            _ => unreachable!(),
        };
        let left_total: usize = match &self.arena[left_id].kind {
            NodeKind::Internal { counts, .. } => counts.iter().sum(),
            _ => unreachable!(),
        };
        let right_total: usize = right_counts.iter().sum();
        let kids = right_children.clone();
        let right_id = self.alloc(Node {
            parent: None,
            kind: NodeKind::Internal {
                children: right_children,
                counts: right_counts,
            },
        });
        for c in kids {
            self.arena[c].parent = Some(right_id);
        }
        self.attach_right(left_id, right_id, left_total, right_total);
    }

    /// Hook `right_id` in as the sibling immediately after `left_id`,
    /// creating a new root if `left_id` was the root. Splits cascade upward.
    fn attach_right(
        &mut self,
        left_id: NodeId,
        right_id: NodeId,
        left_count: usize,
        right_count: usize,
    ) {
        match self.arena[left_id].parent {
            None => {
                let new_root = self.alloc(Node {
                    parent: None,
                    kind: NodeKind::Internal {
                        children: vec![left_id, right_id],
                        counts: vec![left_count, right_count],
                    },
                });
                self.arena[left_id].parent = Some(new_root);
                self.arena[right_id].parent = Some(new_root);
                self.root = new_root;
            }
            Some(p) => {
                let idx = self.child_index(p, left_id);
                match &mut self.arena[p].kind {
                    NodeKind::Internal { children, counts } => {
                        counts[idx] = left_count;
                        children.insert(idx + 1, right_id);
                        counts.insert(idx + 1, right_count);
                    }
                    _ => unreachable!(),
                }
                self.arena[right_id].parent = Some(p);
                if self.node_size(p) > self.fanout {
                    self.split_internal(p);
                }
            }
        }
    }

    // ---- underflow repair ------------------------------------------------

    fn min_size(&self) -> usize {
        self.fanout / 2
    }

    fn fix_underflow(&mut self, node_id: NodeId) {
        let Some(parent_id) = self.arena[node_id].parent else {
            // Root: an internal root with a single child collapses.
            if let NodeKind::Internal { children, .. } = &self.arena[node_id].kind {
                if children.len() == 1 {
                    let child = children[0];
                    self.arena[child].parent = None;
                    self.root = child;
                    self.release(node_id);
                }
            }
            return;
        };
        let idx = self.child_index(parent_id, node_id);
        let (left_sib, right_sib) = match &self.arena[parent_id].kind {
            NodeKind::Internal { children, .. } => (
                if idx > 0 {
                    Some(children[idx - 1])
                } else {
                    None
                },
                children.get(idx + 1).copied(),
            ),
            _ => unreachable!(),
        };
        let min = self.min_size();
        if let Some(l) = left_sib {
            if self.node_size(l) > min {
                self.borrow_from_left(parent_id, idx);
                return;
            }
        }
        if let Some(r) = right_sib {
            if self.node_size(r) > min {
                self.borrow_from_right(parent_id, idx);
                return;
            }
        }
        // No rich sibling: merge. Prefer merging into the left sibling.
        if left_sib.is_some() {
            self.merge(parent_id, idx - 1, idx);
        } else {
            self.merge(parent_id, idx, idx + 1);
        }
        // The merge shrank the parent; repair it if needed.
        if self.arena[parent_id].parent.is_none() {
            self.fix_underflow(parent_id); // root-collapse check
        } else if self.node_size(parent_id) < min {
            self.fix_underflow(parent_id);
        }
    }

    fn borrow_from_left(&mut self, parent_id: NodeId, idx: usize) {
        let (left_id, node_id) = match &self.arena[parent_id].kind {
            NodeKind::Internal { children, .. } => (children[idx - 1], children[idx]),
            _ => unreachable!(),
        };
        let moved_count;
        let is_leaf = matches!(self.arena[left_id].kind, NodeKind::Leaf { .. });
        if is_leaf {
            let key = match &mut self.arena[left_id].kind {
                NodeKind::Leaf { keys, .. } => keys.pop().expect("left sibling not empty"),
                _ => unreachable!(),
            };
            match &mut self.arena[node_id].kind {
                NodeKind::Leaf { keys, .. } => keys.insert(0, key),
                _ => unreachable!(),
            }
            self.key_leaf.insert(key, node_id as u32);
            moved_count = 1;
        } else {
            let (child, count) = match &mut self.arena[left_id].kind {
                NodeKind::Internal { children, counts } => (
                    children.pop().expect("left sibling not empty"),
                    counts.pop().unwrap(),
                ),
                _ => unreachable!(),
            };
            match &mut self.arena[node_id].kind {
                NodeKind::Internal { children, counts } => {
                    children.insert(0, child);
                    counts.insert(0, count);
                }
                _ => unreachable!(),
            }
            self.arena[child].parent = Some(node_id);
            moved_count = count;
        }
        match &mut self.arena[parent_id].kind {
            NodeKind::Internal { counts, .. } => {
                counts[idx - 1] -= moved_count;
                counts[idx] += moved_count;
            }
            _ => unreachable!(),
        }
    }

    fn borrow_from_right(&mut self, parent_id: NodeId, idx: usize) {
        let (node_id, right_id) = match &self.arena[parent_id].kind {
            NodeKind::Internal { children, .. } => (children[idx], children[idx + 1]),
            _ => unreachable!(),
        };
        let moved_count;
        let is_leaf = matches!(self.arena[right_id].kind, NodeKind::Leaf { .. });
        if is_leaf {
            let key = match &mut self.arena[right_id].kind {
                NodeKind::Leaf { keys, .. } => keys.remove(0),
                _ => unreachable!(),
            };
            match &mut self.arena[node_id].kind {
                NodeKind::Leaf { keys, .. } => keys.push(key),
                _ => unreachable!(),
            }
            self.key_leaf.insert(key, node_id as u32);
            moved_count = 1;
        } else {
            let (child, count) = match &mut self.arena[right_id].kind {
                NodeKind::Internal { children, counts } => (children.remove(0), counts.remove(0)),
                _ => unreachable!(),
            };
            match &mut self.arena[node_id].kind {
                NodeKind::Internal { children, counts } => {
                    children.push(child);
                    counts.push(count);
                }
                _ => unreachable!(),
            }
            self.arena[child].parent = Some(node_id);
            moved_count = count;
        }
        match &mut self.arena[parent_id].kind {
            NodeKind::Internal { counts, .. } => {
                counts[idx + 1] -= moved_count;
                counts[idx] += moved_count;
            }
            _ => unreachable!(),
        }
    }

    /// Merge `children[ri]` into `children[li]` (must be adjacent, li < ri).
    fn merge(&mut self, parent_id: NodeId, li: usize, ri: usize) {
        let (left_id, right_id) = match &self.arena[parent_id].kind {
            NodeKind::Internal { children, .. } => (children[li], children[ri]),
            _ => unreachable!(),
        };
        let right_kind = std::mem::replace(&mut self.arena[right_id].kind, NodeKind::Free);
        match right_kind {
            NodeKind::Leaf { keys, next } => {
                for &k in &keys {
                    self.key_leaf.insert(k, left_id as u32);
                }
                match &mut self.arena[left_id].kind {
                    NodeKind::Leaf { keys: lk, next: ln } => {
                        lk.extend(keys);
                        *ln = next;
                    }
                    _ => unreachable!(),
                }
            }
            NodeKind::Internal { children, counts } => {
                for &c in &children {
                    self.arena[c].parent = Some(left_id);
                }
                match &mut self.arena[left_id].kind {
                    NodeKind::Internal {
                        children: lc,
                        counts: lcnt,
                    } => {
                        lc.extend(children);
                        lcnt.extend(counts);
                    }
                    _ => unreachable!(),
                }
            }
            NodeKind::Free => unreachable!(),
        }
        match &mut self.arena[parent_id].kind {
            NodeKind::Internal { children, counts } => {
                counts[li] += counts[ri];
                children.remove(ri);
                counts.remove(ri);
            }
            _ => unreachable!(),
        }
        self.release(right_id);
    }

    // ---- verification (used by tests & proptests) ------------------------

    /// Exhaustively verify structural invariants; panics with a description
    /// on the first violation. O(n) — test-only.
    #[doc(hidden)]
    pub fn check_invariants(&self) {
        let mut leaves_in_order: Vec<NodeId> = Vec::new();
        let total = self.check_node(
            self.root,
            None,
            &mut leaves_in_order,
            0,
            self.tree_depth(self.root),
        );
        assert_eq!(total, self.len, "len mismatch");
        // next-pointer chain equals in-order leaves.
        let mut chained = Vec::new();
        let mut cur = Some(*leaves_in_order.first().expect("at least one leaf"));
        while let Some(id) = cur {
            chained.push(id);
            cur = match &self.arena[id].kind {
                NodeKind::Leaf { next, .. } => *next,
                _ => panic!("chained non-leaf"),
            };
        }
        assert_eq!(chained, leaves_in_order, "leaf chain broken");
        // reverse index complete and correct.
        assert_eq!(self.key_leaf.len(), self.len, "key_leaf size mismatch");
        for (k, leaf) in self.key_leaf.iter() {
            match &self.arena[leaf as usize].kind {
                NodeKind::Leaf { keys, .. } => {
                    assert!(keys.contains(&k), "key_leaf points {k} at wrong leaf")
                }
                _ => panic!("key_leaf points at non-leaf"),
            }
        }
    }

    fn tree_depth(&self, mut id: NodeId) -> usize {
        let mut d = 0;
        loop {
            match &self.arena[id].kind {
                NodeKind::Leaf { .. } => return d,
                NodeKind::Internal { children, .. } => {
                    id = children[0];
                    d += 1;
                }
                NodeKind::Free => panic!("free node in tree"),
            }
        }
    }

    fn check_node(
        &self,
        id: NodeId,
        parent: Option<NodeId>,
        leaves: &mut Vec<NodeId>,
        depth: usize,
        leaf_depth: usize,
    ) -> usize {
        assert_eq!(
            self.arena[id].parent, parent,
            "bad parent pointer at node {id}"
        );
        let min = self.min_size();
        match &self.arena[id].kind {
            NodeKind::Leaf { keys, .. } => {
                assert_eq!(depth, leaf_depth, "leaf at wrong depth");
                if parent.is_some() {
                    assert!(keys.len() >= min, "leaf underflow: {} < {min}", keys.len());
                }
                assert!(keys.len() <= self.fanout, "leaf overflow");
                leaves.push(id);
                keys.len()
            }
            NodeKind::Internal { children, counts } => {
                assert_eq!(children.len(), counts.len());
                if parent.is_some() {
                    assert!(children.len() >= min, "internal underflow");
                } else {
                    assert!(children.len() >= 2, "root internal must have ≥2 children");
                }
                assert!(children.len() <= self.fanout, "internal overflow");
                let mut total = 0;
                for (i, &c) in children.iter().enumerate() {
                    let sub = self.check_node(c, Some(id), leaves, depth + 1, leaf_depth);
                    assert_eq!(sub, counts[i], "count mismatch at node {id} child {i}");
                    total += sub;
                }
                total
            }
            NodeKind::Free => panic!("free node reachable"),
        }
    }
}

impl PositionalIndex for CountedBtree {
    fn len(&self) -> usize {
        self.len
    }

    fn insert_at(&mut self, pos: usize, key: RowKey) -> DsResult<()> {
        if pos > self.len {
            return Err(DsError::Storage(format!(
                "insert position {pos} out of bounds (len {})",
                self.len
            )));
        }
        if self.key_leaf.contains_key(key) {
            return Err(DsError::Storage(format!("duplicate row key {key}")));
        }
        let (leaf_id, off) = self.locate_insert(pos);
        match &mut self.arena[leaf_id].kind {
            NodeKind::Leaf { keys, .. } => keys.insert(off, key),
            _ => unreachable!(),
        }
        self.key_leaf.insert(key, leaf_id as u32);
        self.len += 1;
        self.bump_counts(leaf_id, 1);
        if self.node_size(leaf_id) > self.fanout {
            self.split_leaf(leaf_id);
        }
        Ok(())
    }

    fn remove_at(&mut self, pos: usize) -> DsResult<RowKey> {
        if pos >= self.len {
            return Err(DsError::Storage(format!(
                "remove position {pos} out of bounds (len {})",
                self.len
            )));
        }
        let (leaf_id, off) = self.locate_read(pos);
        let key = match &mut self.arena[leaf_id].kind {
            NodeKind::Leaf { keys, .. } => keys.remove(off),
            _ => unreachable!(),
        };
        self.key_leaf.remove(key);
        self.len -= 1;
        self.bump_counts(leaf_id, -1);
        if self.arena[leaf_id].parent.is_some() && self.node_size(leaf_id) < self.min_size() {
            self.fix_underflow(leaf_id);
        }
        Ok(key)
    }

    fn key_at(&self, pos: usize) -> Option<RowKey> {
        if pos >= self.len {
            return None;
        }
        let (leaf_id, off) = self.locate_read(pos);
        match &self.arena[leaf_id].kind {
            NodeKind::Leaf { keys, .. } => Some(keys[off]),
            _ => unreachable!(),
        }
    }

    fn position_of(&self, key: RowKey) -> Option<usize> {
        let leaf_id = self.key_leaf.get(key)? as NodeId;
        let mut pos = match &self.arena[leaf_id].kind {
            NodeKind::Leaf { keys, .. } => keys.iter().position(|&k| k == key)?,
            _ => unreachable!(),
        };
        let mut child = leaf_id;
        while let Some(p) = self.arena[child].parent {
            let idx = self.child_index(p, child);
            match &self.arena[p].kind {
                NodeKind::Internal { counts, .. } => {
                    pos += counts[..idx].iter().sum::<usize>();
                }
                _ => unreachable!(),
            }
            child = p;
        }
        Some(pos)
    }

    fn range(&self, pos: usize, count: usize) -> Vec<RowKey> {
        if pos >= self.len || count == 0 {
            return Vec::new();
        }
        let take = count.min(self.len - pos);
        let mut out = Vec::with_capacity(take);
        let (mut leaf_id, mut off) = self.locate_read(pos);
        loop {
            match &self.arena[leaf_id].kind {
                NodeKind::Leaf { keys, next } => {
                    for &k in &keys[off..] {
                        out.push(k);
                        if out.len() == take {
                            return out;
                        }
                    }
                    match next {
                        Some(n) => {
                            leaf_id = *n;
                            off = 0;
                        }
                        None => return out,
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t = CountedBtree::new();
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.key_at(0), None);
        assert_eq!(t.range(0, 10), Vec::<RowKey>::new());
        t.check_invariants();
    }

    #[test]
    fn push_sequence_and_read_back() {
        let mut t = CountedBtree::with_fanout(4);
        for k in 0..100 {
            t.push(k).unwrap();
        }
        t.check_invariants();
        assert_eq!(t.len(), 100);
        for p in 0..100 {
            assert_eq!(t.key_at(p), Some(p as RowKey));
            assert_eq!(t.position_of(p as RowKey), Some(p));
        }
        assert!(t.depth() > 2, "fanout 4 over 100 keys must be multi-level");
    }

    #[test]
    fn insert_at_front_reverses() {
        let mut t = CountedBtree::with_fanout(4);
        for k in 0..50 {
            t.insert_at(0, k).unwrap();
        }
        t.check_invariants();
        let expect: Vec<RowKey> = (0..50).rev().collect();
        assert_eq!(t.to_vec(), expect);
    }

    #[test]
    fn insert_middle() {
        let mut t = CountedBtree::with_fanout(4);
        t.push(1).unwrap();
        t.push(3).unwrap();
        t.insert_at(1, 2).unwrap();
        assert_eq!(t.to_vec(), vec![1, 2, 3]);
        t.check_invariants();
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut t = CountedBtree::new();
        t.push(7).unwrap();
        assert!(t.push(7).is_err());
        assert!(t.insert_at(0, 7).is_err());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut t = CountedBtree::new();
        assert!(t.insert_at(1, 5).is_err());
        t.push(5).unwrap();
        assert!(t.remove_at(1).is_err());
        assert_eq!(t.key_at(1), None);
    }

    #[test]
    fn remove_everything_both_directions() {
        let mut t = CountedBtree::with_fanout(4);
        for k in 0..64 {
            t.push(k).unwrap();
        }
        // Remove from the front.
        for k in 0..32 {
            assert_eq!(t.remove_at(0).unwrap(), k);
            t.check_invariants();
        }
        // Remove from the back.
        for k in (32..64).rev() {
            let last = t.len() - 1;
            assert_eq!(t.remove_at(last).unwrap(), k);
            t.check_invariants();
        }
        assert!(t.is_empty());
    }

    #[test]
    fn remove_middle_repeatedly() {
        let mut t = CountedBtree::with_fanout(4);
        for k in 0..101 {
            t.push(k).unwrap();
        }
        while t.len() > 0 {
            let mid = t.len() / 2;
            t.remove_at(mid).unwrap();
            t.check_invariants();
        }
    }

    #[test]
    fn position_of_after_shifts() {
        let mut t = CountedBtree::with_fanout(4);
        for k in 0..20 {
            t.push(k).unwrap();
        }
        // Insert 5 keys at the front; existing keys shift by 5.
        for k in 100..105 {
            t.insert_at(0, k).unwrap();
        }
        assert_eq!(t.position_of(0), Some(5));
        assert_eq!(t.position_of(19), Some(24));
        t.remove_at(0).unwrap();
        assert_eq!(t.position_of(0), Some(4));
    }

    #[test]
    fn range_spans_leaves() {
        let mut t = CountedBtree::with_fanout(4);
        for k in 0..40 {
            t.push(k * 10).unwrap();
        }
        let r = t.range(7, 11);
        let expect: Vec<RowKey> = (7..18).map(|k| k * 10).collect();
        assert_eq!(r, expect);
        // Clamped at the end.
        assert_eq!(t.range(38, 10), vec![380, 390]);
    }

    #[test]
    fn bulk_load_matches_push() {
        let keys: Vec<RowKey> = (0..1000).map(|k| k * 3).collect();
        let bulk = CountedBtree::from_keys_with_fanout(keys.clone(), 8).unwrap();
        bulk.check_invariants();
        assert_eq!(bulk.to_vec(), keys);
        for (p, &k) in keys.iter().enumerate() {
            assert_eq!(bulk.key_at(p), Some(k));
            assert_eq!(bulk.position_of(k), Some(p));
        }
    }

    #[test]
    fn bulk_load_small_tail() {
        // 9 keys with fanout 8 leaves a 1-key tail chunk that must be
        // rebalanced to satisfy the min-size invariant.
        let keys: Vec<RowKey> = (0..9).collect();
        let t = CountedBtree::from_keys_with_fanout(keys.clone(), 8).unwrap();
        t.check_invariants();
        assert_eq!(t.to_vec(), keys);
    }

    #[test]
    fn bulk_load_rejects_duplicates() {
        assert!(CountedBtree::from_keys([1, 2, 1]).is_err());
    }

    #[test]
    fn bulk_then_edit() {
        let mut t = CountedBtree::from_keys_with_fanout(0..500, 16).unwrap();
        t.insert_at(250, 10_000).unwrap();
        assert_eq!(t.key_at(250), Some(10_000));
        assert_eq!(t.key_at(251), Some(250));
        t.remove_key(10_000).unwrap();
        assert_eq!(t.key_at(250), Some(250));
        t.check_invariants();
    }

    #[test]
    fn node_count_shrinks_after_mass_delete() {
        let mut t = CountedBtree::from_keys_with_fanout(0..4096, 8).unwrap();
        let full = t.node_count();
        for _ in 0..4000 {
            t.remove_at(0).unwrap();
        }
        t.check_invariants();
        assert!(
            t.node_count() < full / 4,
            "tree should shrink: {} vs {}",
            t.node_count(),
            full
        );
    }
}
