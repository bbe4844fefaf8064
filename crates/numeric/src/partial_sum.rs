//! Fixed-shape binary partial-sum tree over a weight vector.
//!
//! The kinetic Monte-Carlo hot loop needs two operations per event: the
//! total rate `Σ wᵢ` (for the exponential clock) and an inverse-CDF draw
//! (find the leaf where the running prefix sum first exceeds `u·Σ`). A flat
//! array makes both O(E); this tree makes both O(log E) while keeping every
//! produced bit a pure function of the leaf values:
//!
//! * **Fixed shape.** The tree is a complete binary tree over
//!   `len.next_power_of_two()` slots, zero-padded past `len`. Its shape —
//!   and therefore the reduction order of every internal sum — depends only
//!   on `len`, never on which leaves changed or in what order.
//! * **Recompute, never adjust.** Updating leaves recomputes each affected
//!   internal node as `left + right` from its children's current values.
//!   Nodes are never corrected by adding a delta (`node += new − old` would
//!   accumulate round-off that depends on the update history), so any
//!   sequence of [`PartialSumTree::update_leaves`] calls leaves every node
//!   bit-identical to a from-scratch [`PartialSumTree::rebuild`] over the
//!   same leaf values. The unit tests pin this equivalence.
//!
//! The price is that the root's bits differ from a flat left-to-right fold
//! of the same weights — a pairwise reduction associates differently. Code
//! that switches an accumulation from a fold to this tree changes
//! downstream bits deliberately (see `docs/DETERMINISM.md` §10).

/// A complete binary tree of partial sums with power-of-two leaf capacity.
///
/// Stored as the classic implicit heap: `nodes[1]` is the root,
/// `nodes[n]`'s children are `nodes[2n]` and `nodes[2n+1]`, and the leaves
/// occupy `nodes[width..width + len]` with zero padding up to `2·width`.
///
/// # Example
///
/// ```
/// use se_numeric::partial_sum::PartialSumTree;
///
/// let mut tree = PartialSumTree::new(3);
/// tree.fill(&[1.0, 3.0, 6.0]);
/// assert_eq!(tree.total(), 10.0);
/// assert_eq!(tree.descend(0.5), 0);
/// assert_eq!(tree.descend(3.5), 1);
/// assert_eq!(tree.descend(9.5), 2);
/// ```
#[derive(Debug, Clone)]
pub struct PartialSumTree {
    /// Number of real (non-padding) leaves.
    len: usize,
    /// Leaf capacity, `len.next_power_of_two().max(1)`.
    width: usize,
    /// Implicit heap storage, `2 · width` slots (`nodes[0]` unused).
    nodes: Vec<f64>,
    /// Scratch for the level-by-level propagation of `update_leaves`.
    frontier: Vec<u32>,
}

impl PartialSumTree {
    /// Creates a tree over `len` leaves, all zero.
    #[must_use]
    pub fn new(len: usize) -> Self {
        let width = len.next_power_of_two().max(1);
        Self {
            len,
            width,
            nodes: vec![0.0; 2 * width],
            frontier: Vec::new(),
        }
    }

    /// Number of real leaves.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree has no real leaves.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root sum — `Σ` of all leaves in the fixed pairwise order.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.nodes[1]
    }

    /// Current value of leaf `index`.
    #[must_use]
    pub fn leaf(&self, index: usize) -> f64 {
        self.nodes[self.width + index]
    }

    /// Writes leaf `index` **without** propagating to the internal nodes.
    ///
    /// Callers batch leaf writes and then propagate once via
    /// [`PartialSumTree::update_leaves`] (or [`PartialSumTree::rebuild`]).
    pub fn set_leaf(&mut self, index: usize, value: f64) {
        debug_assert!(index < self.len, "leaf {index} out of range {}", self.len);
        self.nodes[self.width + index] = value;
    }

    /// The real leaves as one mutable slice, written **without**
    /// propagating — the bulk form of [`PartialSumTree::set_leaf`], with
    /// the same obligation to propagate afterwards.
    pub fn leaves_mut(&mut self) -> &mut [f64] {
        &mut self.nodes[self.width..self.width + self.len]
    }

    /// Copies `values` into the leaves and rebuilds every internal node.
    ///
    /// # Panics
    ///
    /// Panics if `values.len()` differs from the tree's leaf count.
    pub fn fill(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.len, "leaf count mismatch");
        self.nodes[self.width..self.width + self.len].copy_from_slice(values);
        self.rebuild();
    }

    /// Recomputes every internal node bottom-up from the current leaves.
    ///
    /// Internal nodes whose descendants are all zero padding (leaves past
    /// `len`, which are permanently zero) keep their construction-time zero
    /// and are skipped, so the pass costs O(len) adds, not O(width).
    pub fn rebuild(&mut self) {
        let mut level_width = self.width;
        let mut live = self.len;
        while level_width > 1 {
            let parent_width = level_width / 2;
            let parent_live = live.div_ceil(2);
            let (parents, children) = self.nodes.split_at_mut(level_width);
            for (parent, pair) in parents[parent_width..parent_width + parent_live]
                .iter_mut()
                .zip(children[..2 * parent_live].chunks_exact(2))
            {
                *parent = pair[0] + pair[1];
            }
            level_width = parent_width;
            live = parent_live;
        }
    }

    /// Propagates a batch of leaf writes up to the root.
    ///
    /// `changed` holds the written leaf indices, **sorted ascending** (
    /// duplicates are tolerated). Each affected internal node is recomputed
    /// as `left + right`, so the result is bit-identical to a full
    /// [`PartialSumTree::rebuild`] — the batch only bounds *which* nodes are
    /// touched, never what value they get. Cost is O(k · log width) with
    /// shared ancestors deduplicated level by level.
    pub fn update_leaves(&mut self, changed: &[u32]) {
        debug_assert!(changed.windows(2).all(|w| w[0] <= w[1]));
        if changed.is_empty() || self.width == 1 {
            return;
        }
        // Seed the frontier with the parents of the changed leaves; ascend
        // one level per pass until only the root's level remains. Sorted
        // input keeps duplicates adjacent, so a last-pushed check dedups.
        let mut frontier = std::mem::take(&mut self.frontier);
        frontier.clear();
        for &leaf in changed {
            let parent = ((self.width + leaf as usize) >> 1) as u32;
            if frontier.last() != Some(&parent) {
                frontier.push(parent);
            }
        }
        loop {
            let mut write = 0;
            for read in 0..frontier.len() {
                let node = frontier[read] as usize;
                self.nodes[node] = self.nodes[2 * node] + self.nodes[2 * node + 1];
                let parent = (node >> 1) as u32;
                if write == 0 || frontier[write - 1] != parent {
                    frontier[write] = parent;
                    write += 1;
                }
            }
            frontier.truncate(write);
            if frontier[0] == 0 {
                break;
            }
        }
        self.frontier = frontier;
    }

    /// Inverse-CDF descent: the leaf whose prefix-sum bucket contains
    /// `target`, for `target ∈ [0, total)`.
    ///
    /// At each internal node the walk goes left when `target` is below the
    /// left child's sum, else subtracts it and goes right — the tree-shaped
    /// equivalent of the linear scan `acc += w; target < acc`. Floating-point
    /// round-off (or `target ≥ total`) can steer the walk into a zero-sum
    /// subtree or the zero padding; the returned index is clamped to
    /// `len − 1`, and callers that must land on a *positive* leaf apply
    /// their own final-bucket clamp (the KMC engines fall back to the last
    /// positive-rate event, mirroring the linear scan's fallback).
    #[must_use]
    pub fn descend(&self, mut target: f64) -> usize {
        let mut node = 1;
        while node < self.width {
            let left = 2 * node;
            let left_sum = self.nodes[left];
            if target < left_sum {
                node = left;
            } else {
                target -= left_sum;
                node = left + 1;
            }
        }
        (node - self.width).min(self.len.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference linear scan with the same bucket convention as `descend`.
    fn linear_select(weights: &[f64], target: f64) -> usize {
        let mut acc = 0.0;
        for (i, &w) in weights.iter().enumerate() {
            acc += w;
            if target < acc {
                return i;
            }
        }
        weights.len() - 1
    }

    #[test]
    fn totals_and_leaves_round_trip() {
        let mut tree = PartialSumTree::new(5);
        tree.fill(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(tree.len(), 5);
        assert_eq!(tree.total(), 15.0);
        for (i, expected) in [1.0, 2.0, 3.0, 4.0, 5.0].iter().enumerate() {
            assert_eq!(tree.leaf(i), *expected);
        }
    }

    #[test]
    fn incremental_updates_match_full_rebuild_bit_for_bit() {
        // The determinism contract: any update history ends with every node
        // identical to a from-scratch rebuild over the same leaves.
        let mut rng = StdRng::seed_from_u64(42);
        for len in [1usize, 2, 3, 7, 8, 9, 64, 100] {
            let mut values: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() * 1e9).collect();
            let mut incremental = PartialSumTree::new(len);
            incremental.fill(&values);
            for _ in 0..50 {
                let count = 1 + rng.gen::<u64>() as usize % len;
                let mut changed: Vec<u32> = (0..count)
                    .map(|_| (rng.gen::<u64>() as usize % len) as u32)
                    .collect();
                changed.sort_unstable();
                for &leaf in &changed {
                    let v = rng.gen::<f64>() * 1e9;
                    values[leaf as usize] = v;
                    incremental.set_leaf(leaf as usize, v);
                }
                incremental.update_leaves(&changed);
                let mut rebuilt = PartialSumTree::new(len);
                rebuilt.fill(&values);
                assert_eq!(
                    incremental.nodes.len(),
                    rebuilt.nodes.len(),
                    "len {len}: node storage diverged"
                );
                for node in 1..incremental.nodes.len() {
                    assert_eq!(
                        incremental.nodes[node].to_bits(),
                        rebuilt.nodes[node].to_bits(),
                        "len {len}, node {node}: incremental update drifted from rebuild"
                    );
                }
            }
        }
    }

    #[test]
    fn descent_matches_linear_scan_on_exact_weights() {
        // Integer weights make every partial sum exact, so the tree's
        // pairwise sums equal the scan's running sums and the selected
        // bucket must agree for any target.
        let weights = [2.0, 0.0, 5.0, 1.0, 0.0, 3.0, 4.0];
        let mut tree = PartialSumTree::new(weights.len());
        tree.fill(&weights);
        assert_eq!(tree.total(), 15.0);
        let mut target = 0.0;
        while target < 15.0 {
            assert_eq!(
                tree.descend(target),
                linear_select(&weights, target),
                "target {target}"
            );
            target += 0.25;
        }
    }

    #[test]
    fn descent_clamps_overflow_targets_into_the_last_real_leaf() {
        // A non-power-of-two length leaves zero padding on the right; a
        // target at (or marginally above) the total must not land there.
        let weights = [1.0, 2.0, 3.0];
        let mut tree = PartialSumTree::new(weights.len());
        tree.fill(&weights);
        assert_eq!(tree.descend(tree.total()), weights.len() - 1);
        assert_eq!(tree.descend(tree.total() + 1.0), weights.len() - 1);
    }

    #[test]
    fn descent_can_land_on_a_zero_leaf_under_round_off_style_targets() {
        // With trailing zero weights, an at-the-edge target lands on a
        // zero-rate leaf — the case the engines' final-bucket clamp exists
        // for. The tree reports the clamped index; policy is the caller's.
        let weights = [4.0, 0.0, 0.0];
        let mut tree = PartialSumTree::new(weights.len());
        tree.fill(&weights);
        let idx = tree.descend(4.0);
        assert_eq!(idx, weights.len() - 1);
        assert_eq!(tree.leaf(idx), 0.0);
    }

    #[test]
    fn single_leaf_and_empty_trees_are_well_formed() {
        let mut one = PartialSumTree::new(1);
        one.fill(&[7.5]);
        assert_eq!(one.total(), 7.5);
        assert_eq!(one.descend(0.0), 0);
        let empty = PartialSumTree::new(0);
        assert!(empty.is_empty());
        assert_eq!(empty.total(), 0.0);
    }

    #[test]
    fn update_leaves_tolerates_duplicates_and_full_batches() {
        let mut tree = PartialSumTree::new(4);
        tree.fill(&[1.0, 1.0, 1.0, 1.0]);
        tree.set_leaf(2, 9.0);
        tree.update_leaves(&[2, 2, 2]);
        assert_eq!(tree.total(), 12.0);
        for (i, v) in [10.0, 20.0, 30.0, 40.0].iter().enumerate() {
            tree.set_leaf(i, *v);
        }
        tree.update_leaves(&[0, 1, 2, 3]);
        assert_eq!(tree.total(), 100.0);
    }
}
