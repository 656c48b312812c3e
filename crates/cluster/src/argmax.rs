//! A fixed-shape argmax tree over `f64` keys with point updates.

/// Tournament tree over `n` keys, padded to a power of two.
///
/// Every internal node holds the index of the larger of its children's
/// winners; ties go to the right child unless that is padding, so the
/// root is the *highest* index among the maximal keys — the element
/// `Iterator::max_by` returns for the same keys in index order. Keys
/// live in their own vector, so [`set`](Self::set) takes a key computed
/// once and only compares stored keys on its O(log n) walk to the root.
#[derive(Debug, Clone, Default)]
pub(crate) struct ArgmaxTree {
    /// Leaf keys, padded with `-∞` to `base` entries.
    keys: Vec<f64>,
    /// Heap-shaped winners: node `i` in `1..base` holds the winning leaf
    /// index of its subtree (index 0 unused).
    nodes: Vec<u32>,
    /// Number of padded leaves (power of two, at least 1).
    base: usize,
    /// Logical leaf count; leaves at `len..base` are padding.
    len: usize,
}

impl ArgmaxTree {
    /// Rebuilds the tree over `key(0..n)` in O(n), reusing the
    /// allocations when the size is unchanged.
    pub(crate) fn rebuild(&mut self, n: usize, key: impl Fn(usize) -> f64) {
        self.len = n;
        self.base = n.next_power_of_two().max(1);
        self.keys.clear();
        self.keys.extend((0..n).map(key));
        self.keys.resize(self.base, f64::NEG_INFINITY);
        self.nodes.clear();
        self.nodes.resize(self.base, 0);
        for node in (1..self.base).rev() {
            self.nodes[node] = self.pick(node) as u32;
        }
    }

    /// Sets leaf `i` to `key` and refreshes its root path.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn set(&mut self, i: usize, key: f64) {
        assert!(
            i < self.len,
            "ArgmaxTree leaf {i} out of range {}",
            self.len
        );
        self.keys[i] = key;
        let mut node = (self.base + i) / 2;
        while node >= 1 {
            self.nodes[node] = self.pick(node) as u32;
            node /= 2;
        }
    }

    /// The winning leaf index and its key. An empty tree answers
    /// `(0, -∞)`.
    pub(crate) fn max(&self) -> (usize, f64) {
        let i = self.winner(1);
        (i, self.keys[i])
    }

    /// Winning leaf index of the subtree rooted at heap node `node`.
    fn winner(&self, node: usize) -> usize {
        if node >= self.base {
            node - self.base
        } else {
            self.nodes[node] as usize
        }
    }

    /// The winner of internal node `node` from its two children; the
    /// right (higher-index) child wins ties unless it is padding.
    fn pick(&self, node: usize) -> usize {
        let (l, r) = (self.winner(2 * node), self.winner(2 * node + 1));
        if r < self.len && self.keys[r] >= self.keys[l] {
            r
        } else {
            l
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `Iterator::max_by` over the same keys: the last maximal index.
    fn reference(keys: &[f64]) -> Option<usize> {
        (0..keys.len()).max_by(|&a, &b| keys[a].partial_cmp(&keys[b]).expect("no NaN keys"))
    }

    #[test]
    fn matches_max_by_under_point_updates() {
        for n in [1usize, 2, 3, 5, 8, 13] {
            let mut keys: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64).collect();
            let mut tree = ArgmaxTree::default();
            tree.rebuild(n, |i| keys[i]);
            for step in 0..40 {
                let i = (step * 11) % n;
                keys[i] = match step % 4 {
                    0 => f64::NEG_INFINITY,
                    1 => 4.0, // forces ties with the initial maximum
                    2 => (step % 3) as f64,
                    _ => 0.0,
                };
                tree.set(i, keys[i]);
                let (w, k) = tree.max();
                assert_eq!(Some(w), reference(&keys), "n={n} step={step}");
                assert_eq!(k.to_bits(), keys[w].to_bits());
            }
        }
    }

    #[test]
    fn padding_never_wins_a_tie() {
        let mut tree = ArgmaxTree::default();
        tree.rebuild(3, |_| f64::NEG_INFINITY);
        assert_eq!(tree.max(), (2, f64::NEG_INFINITY));
    }
}
