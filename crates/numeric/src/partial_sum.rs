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
//!   sequence of [`PartialSumTree::rebuild_span`] calls leaves every node
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

    /// The real leaves as one mutable slice, written **without**
    /// propagating to the internal nodes: callers batch leaf writes and
    /// then propagate once via [`PartialSumTree::rebuild_span`] (or
    /// [`PartialSumTree::rebuild`]).
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
        if self.len > 0 {
            self.rebuild_span(0, self.len - 1);
        }
    }

    /// Recomputes the ancestors of the leaf span `[first, last]` bottom-up,
    /// after leaf writes confined to that span.
    ///
    /// Each level recomputes one contiguous node range as `left + right`,
    /// so the result is bit-identical to a full rebuild: no node outside
    /// the span's ancestors has a written descendant, and a recomputed
    /// node whose children did not change keeps its bits. Cost is
    /// O(last − first + log width).
    ///
    /// # Panics
    ///
    /// Panics if `first > last` or `last` is not a real leaf.
    pub fn rebuild_span(&mut self, first: usize, last: usize) {
        assert!(
            first <= last && last < self.len,
            "leaf span [{first}, {last}] out of range {}",
            self.len
        );
        let mut level_width = self.width;
        let (mut lo, mut hi) = (first, last);
        while level_width > 1 {
            let parent_width = level_width / 2;
            let (parent_lo, parent_hi) = (lo / 2, hi / 2);
            let (parents, children) = self.nodes.split_at_mut(level_width);
            for (parent, pair) in parents[parent_width + parent_lo..=parent_width + parent_hi]
                .iter_mut()
                .zip(children[2 * parent_lo..2 * parent_hi + 2].chunks_exact(2))
            {
                *parent = pair[0] + pair[1];
            }
            level_width = parent_width;
            (lo, hi) = (parent_lo, parent_hi);
        }
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
    use proptest::prelude::*;
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

    /// Every node of `tree` is bitwise the node of a fresh `fill` over
    /// `values`, and the fresh fill is bitwise the plain heap reduction
    /// `node = left + right` over every slot, padding included.
    fn assert_nodes_are_a_fresh_fill(tree: &PartialSumTree, values: &[f64], context: &str) {
        let mut fresh = PartialSumTree::new(values.len());
        fresh.fill(values);
        let mut heap = vec![0.0; fresh.nodes.len()];
        heap[fresh.width..fresh.width + values.len()].copy_from_slice(values);
        for node in (1..fresh.width).rev() {
            heap[node] = heap[2 * node] + heap[2 * node + 1];
        }
        assert_eq!(tree.nodes.len(), heap.len(), "{context}: node storage");
        for (node, (&got, (&want, &plain))) in tree
            .nodes
            .iter()
            .zip(fresh.nodes.iter().zip(&heap))
            .enumerate()
        {
            assert_eq!(
                want.to_bits(),
                plain.to_bits(),
                "{context}, node {node}: fill drifted from the heap reduction"
            );
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{context}, node {node}: span rebuild drifted from a fresh fill"
            );
        }
    }

    #[test]
    fn incremental_updates_match_full_rebuild_bit_for_bit() {
        // The determinism contract, exhaustively on small trees: after
        // rewriting every leaf of any span `[first, last]` and rebuilding
        // just that span, every node is identical to a from-scratch fill.
        let mut rng = StdRng::seed_from_u64(42);
        for len in 1_usize..=9 {
            let mut values: Vec<f64> = (0..len).map(|_| rng.gen::<f64>() * 1e9).collect();
            let mut tree = PartialSumTree::new(len);
            tree.fill(&values);
            for first in 0..len {
                for last in first..len {
                    for leaf in first..=last {
                        values[leaf] = rng.gen::<f64>() * 1e9;
                        tree.leaves_mut()[leaf] = values[leaf];
                    }
                    tree.rebuild_span(first, last);
                    let context = format!("len {len}, span [{first}, {last}]");
                    assert_nodes_are_a_fresh_fill(&tree, &values, &context);
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

    proptest! {
        /// `rebuild_span` ≡ `rebuild`: over tree lengths from one leaf to
        /// past a power of two, a walk of spans (whole tree, single edge
        /// leaves, prefixes, suffixes, random single leaves and random
        /// ranges), each with random leaf writes inside it (zeros
        /// included), leaves every node bitwise a fresh `fill`.
        #[test]
        fn prop_rebuild_span_is_bitwise_a_fresh_fill(
            len_index in 0_usize..9,
            seed in 0_u64..1_000_000,
            spans in proptest::collection::vec(0_usize..7, 1..40),
        ) {
            let len = [1_usize, 2, 3, 7, 8, 9, 64, 100, 514][len_index];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |bound: usize| rng.gen::<u64>() as usize % bound;
            let mut values: Vec<f64> = (0..len).map(|_| draw(1 << 30) as f64 * 1e-3).collect();
            let mut tree = PartialSumTree::new(len);
            tree.fill(&values);
            for (step, &shape) in spans.iter().enumerate() {
                let (a, b) = (draw(len), draw(len));
                let (first, last) = match shape {
                    0 => (0, len - 1),
                    1 => (0, 0),
                    2 => (len - 1, len - 1),
                    3 => (a, a),
                    4 => (0, a),
                    5 => (a, len - 1),
                    _ => (a.min(b), a.max(b)),
                };
                let writes = 1 + draw(last - first + 1);
                for _ in 0..writes {
                    let leaf = first + draw(last - first + 1);
                    let value = if draw(4) == 0 { 0.0 } else { draw(1 << 30) as f64 * 1e-3 };
                    values[leaf] = value;
                    tree.leaves_mut()[leaf] = value;
                }
                tree.rebuild_span(first, last);
                let context = format!("len {len}, step {step}, span [{first}, {last}]");
                assert_nodes_are_a_fresh_fill(&tree, &values, &context);
            }
        }
    }
}
