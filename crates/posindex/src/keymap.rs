//! [`KeyMap`]: a map from row keys to small values, stored densely.
//!
//! A table hands out row keys from one counter, so the keys it holds are
//! nearly dense below that counter. A vector indexed by key then costs one
//! value per key, where a hash map costs the key, the value, a control
//! byte, and the load-factor slack — about three times the memory for the
//! row directories and the positional index's reverse index, and a hash
//! per probe. Keys too far beyond the vector's end for its density (a store
//! decoded after heavy churn, a crafted replay key) go to a hash map
//! instead, so memory stays proportional to the keys ever held whatever
//! keys arrive.

use std::collections::HashMap;

use crate::RowKey;

/// Keys beyond the dense vector's end are placed in it while its length
/// stays within twice the live count plus this slack.
const SLACK: usize = 64;

/// A map from [`RowKey`] to a `Copy` value (see the module docs). One value
/// of `V` — `vacant` — marks an empty dense slot and cannot be stored.
#[derive(Clone, Debug)]
pub struct KeyMap<V> {
    /// Values of keys `0..dense.len()`; `vacant` where there is none.
    dense: Vec<V>,
    /// Keys that did not fit the dense range when they arrived; all lie
    /// beyond it (growing it adopts those it covers).
    sparse: HashMap<RowKey, V>,
    vacant: V,
    len: usize,
}

impl<V: Copy + PartialEq> KeyMap<V> {
    /// An empty map whose dense slots read `vacant` when empty.
    pub fn new(vacant: V) -> Self {
        KeyMap {
            dense: Vec::new(),
            sparse: HashMap::new(),
            vacant,
            len: 0,
        }
    }

    /// A map of `pairs` (keys distinct), sized in one pass: dense over the
    /// keys when they are dense enough, else a hash map.
    pub fn from_pairs(pairs: Vec<(RowKey, V)>, vacant: V) -> Self {
        let mut map = KeyMap::new(vacant);
        let end = pairs
            .iter()
            .map(|&(k, _)| k)
            .max()
            .map_or(0, |k| k.saturating_add(1));
        if end <= (2 * pairs.len() + SLACK) as u64 {
            map.dense = vec![vacant; end as usize];
        }
        for (k, v) in pairs {
            map.insert(k, v);
        }
        map
    }

    /// Number of keys held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no key is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The dense slot of `key`, if it lies in the dense range.
    fn slot(&self, key: RowKey) -> Option<usize> {
        usize::try_from(key).ok().filter(|&i| i < self.dense.len())
    }

    /// The value of `key`.
    pub fn get(&self, key: RowKey) -> Option<V> {
        match self.slot(key) {
            Some(i) => Some(self.dense[i]).filter(|&v| v != self.vacant),
            None => self.sparse.get(&key).copied(),
        }
    }

    /// Whether `key` is held.
    pub fn contains_key(&self, key: RowKey) -> bool {
        self.get(key).is_some()
    }

    /// Set the value of `key`, returning the one it replaced.
    ///
    /// # Panics
    ///
    /// If `v` is the map's vacant value, which would read as absent.
    pub fn insert(&mut self, key: RowKey, v: V) -> Option<V> {
        assert!(v != self.vacant, "the vacant value cannot be stored");
        let grow_to = usize::try_from(key)
            .ok()
            .filter(|&i| i < 2 * (self.len + 1) + SLACK);
        let old = match (self.slot(key), grow_to) {
            (Some(i), _) => {
                Some(std::mem::replace(&mut self.dense[i], v)).filter(|&o| o != self.vacant)
            }
            (None, Some(i)) => {
                // Grow the dense range over the key, adopting any sparse
                // key it now covers.
                let from = self.dense.len();
                self.dense.resize(i + 1, self.vacant);
                if !self.sparse.is_empty() {
                    for k in from..i {
                        if let Some(s) = self.sparse.remove(&(k as RowKey)) {
                            self.dense[k] = s;
                        }
                    }
                }
                self.dense[i] = v;
                self.sparse.remove(&key)
            }
            (None, None) => self.sparse.insert(key, v),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Remove `key`, returning its value.
    pub fn remove(&mut self, key: RowKey) -> Option<V> {
        let old = match self.slot(key) {
            Some(i) => Some(std::mem::replace(&mut self.dense[i], self.vacant))
                .filter(|&o| o != self.vacant),
            None => self.sparse.remove(&key),
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    /// Every `(key, value)`: the dense range in key order, then the sparse
    /// keys in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (RowKey, V)> + '_ {
        let vacant = self.vacant;
        (0..)
            .zip(self.dense.iter().copied())
            .filter(move |&(_, v)| v != vacant)
            .chain(self.sparse.iter().map(|(&k, &v)| (k, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `HashMap` model under random inserts, overwrites and removes over
    /// keys that are mostly dense with far outliers: every `get`, `len` and
    /// the `iter` set agree, and the dense range never outgrows its bound.
    #[test]
    fn matches_a_hash_map_model() {
        dataspread_testkit::cases(64, 0x4E7_0A9, |rng| {
            let mut map = KeyMap::new(u32::MAX);
            let mut model: HashMap<RowKey, u32> = HashMap::new();
            let mut next = 0u64;
            let mut inserted = 0usize;
            for step in 0..rng.usize_in(1, 600) {
                let key = match rng.below(10) {
                    0..=4 => {
                        next += 1;
                        next - 1
                    }
                    5 | 6 => rng.below(next + 1),
                    7 => rng.below(1 << 40),
                    _ => next + rng.below(200),
                };
                if rng.below(4) == 0 {
                    assert_eq!(map.remove(key), model.remove(&key), "step {step}");
                } else {
                    let v = rng.below(1000) as u32;
                    inserted += 1;
                    assert_eq!(map.insert(key, v), model.insert(key, v), "step {step}");
                }
                assert_eq!(map.len(), model.len());
                assert!(map.dense.len() <= 2 * inserted + SLACK);
                let probe = rng.below(next + 300);
                assert_eq!(map.get(probe), model.get(&probe).copied());
                assert_eq!(map.get(key), model.get(&key).copied());
            }
            let mut got: Vec<(RowKey, u32)> = map.iter().collect();
            got.sort_unstable();
            let mut want: Vec<(RowKey, u32)> = model.into_iter().collect();
            want.sort_unstable();
            assert_eq!(got, want);
        });
    }

    #[test]
    fn from_pairs_is_dense_only_when_the_keys_are() {
        let dense = KeyMap::from_pairs((0..100).rev().map(|k| (k, k as u32)).collect(), u32::MAX);
        assert_eq!((dense.dense.len(), dense.sparse.len()), (100, 0));
        assert_eq!(dense.iter().count(), 100);
        let sparse = KeyMap::from_pairs(vec![(5, 1), (1 << 50, 2), (u64::MAX, 3)], u32::MAX);
        assert_eq!(sparse.get(1 << 50), Some(2));
        assert_eq!(sparse.get(u64::MAX), Some(3));
        assert_eq!(sparse.get(5), Some(1));
        assert!(sparse.dense.len() <= 2 * 3 + SLACK);
    }
}
