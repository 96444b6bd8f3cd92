//! The divisor lattice behind the tiling tree (§IV-B, Fig 5 of the paper)
//! and the spatial unrolling enumeration (§III-B).
//!
//! A node picks one rung per dimension of that dimension's divisor ladder
//! (the sorted divisors of its quota), held as a [`DimVec`] of ladder
//! indices; the root is all zeros — factor 1 everywhere — and an edge
//! steps one allowed dimension one rung up. The caller's `feasible`
//! predicate sees a node's factor vector. It must be monotone — whenever
//! a node is feasible, so is every node below it — and the root is
//! feasible by precondition: neither walk ever asks about it.
//!
//! Two walks answer the enumerators ([`walk`] picks one):
//!
//! * **The frontier** — the maximal feasible nodes, for the Tiling and
//!   Spatial Unrolling Principles — without visiting the interior. The
//!   allowed dimension with the longest ladder is the search axis. An
//!   odometer over the other allowed dimensions walks the projection of
//!   the feasible set onto them, each digit stopping at its first
//!   infeasible rung (the projection of a downward-closed set is
//!   downward closed). At each projection point `p` a gallop down from
//!   the previous point's height, then a bisection, finds the highest
//!   feasible rung `m` on the axis; `(p, m)` is maximal iff no other
//!   allowed dimension can step one rung from it. Every feasible node is
//!   `(p, i)` for one `p` and some `i ≤ m`, so `explored = Σ (m + 1)`
//!   counts the feasible set without walking it. The nodes are emitted in
//!   descending colexicographic order — the highest dimension compared
//!   first, larger first.
//! * **The pop order** — every feasible node, in the order a depth-first
//!   search from the root pops them (children pushed in ascending
//!   dimension order, each node once): the ablation mode
//!   (`maximal_only = false`).
//!
//! The depth-first search pops the maximal nodes in exactly the
//! frontier's order, and pops each feasible node once; the property test
//! below holds the frontier to the pop order filtered to maximal nodes,
//! element for element, with equal `explored`. So the frontier changes how
//! much of the lattice is touched, never which tiles or unrollings come
//! out, in what order, or what the search's counters read.

use std::borrow::Cow;

use sunstone_ir::{DimId, DimSet, DimVec, FxHashSet};

/// What a walk found.
pub(crate) struct Walk {
    /// The emitted nodes' factor vectors, in emission order.
    pub(crate) nodes: Vec<DimVec>,
    /// Size of the feasible set the tree spans, the root included.
    pub(crate) explored: usize,
}

/// The maximal feasible nodes when `maximal_only`, else every feasible
/// node in depth-first pop order. `ladders[d]` is dimension `d`'s divisor
/// ladder (ascending, from 1); `feasible` must be monotone, and the root
/// is taken as feasible.
pub(crate) fn walk(
    ladders: &[Cow<'_, [u64]>],
    allowed: DimSet,
    feasible: impl FnMut(&[u64]) -> bool,
    maximal_only: bool,
) -> Walk {
    let lattice = Lattice::new(ladders, allowed, feasible);
    if maximal_only {
        lattice.frontier()
    } else {
        lattice.pop_order()
    }
}

struct Lattice<'l, F> {
    ladders: &'l [Cow<'l, [u64]>],
    /// The allowed dimensions with a rung above the root, ascending.
    axes: Vec<usize>,
    feasible: F,
    /// The node under the cursor: its ladder index and its factor per
    /// dimension.
    at: DimVec,
    factors: DimVec,
}

impl<'l, F: FnMut(&[u64]) -> bool> Lattice<'l, F> {
    fn new(ladders: &'l [Cow<'l, [u64]>], allowed: DimSet, feasible: F) -> Self {
        let n = ladders.len();
        let axes = allowed.iter().map(DimId::index).filter(|&d| ladders[d].len() > 1).collect();
        Lattice { ladders, axes, feasible, at: DimVec::splat(0, n), factors: DimVec::ones(n) }
    }

    fn rungs(&self, d: usize) -> usize {
        self.ladders[d].len()
    }

    /// Moves the cursor to rung `i` of dimension `d`.
    fn set(&mut self, d: usize, i: usize) {
        self.at[d] = i as u64;
        self.factors[d] = self.ladders[d][i];
    }

    fn probe(&mut self) -> bool {
        (self.feasible)(&self.factors)
    }

    /// Whether the node one rung above the cursor in `d` is feasible; the
    /// cursor stays where it is.
    fn can_step(&mut self, d: usize) -> bool {
        let i = self.at[d] as usize;
        if i + 1 == self.rungs(d) {
            return false;
        }
        self.set(d, i + 1);
        let up = self.probe();
        self.set(d, i);
        up
    }

    /// How many rungs of `axis` are feasible with the other dimensions
    /// where the cursor has them, given that the first `lo` are and none
    /// from `cap` on is: a gallop down from `cap`, then a bisection. Leaves
    /// the cursor somewhere on `axis`.
    fn feasible_rungs(&mut self, axis: usize, lo: usize, cap: usize) -> usize {
        // Rungs below `good` are feasible, rungs from `bad` on are not.
        let (mut good, mut bad) = (lo, cap);
        let mut step = 1;
        while good < bad {
            let i = bad.saturating_sub(step).max(good);
            self.set(axis, i);
            if self.probe() {
                good = i + 1;
                break;
            }
            bad = i;
            step *= 2;
        }
        while good < bad {
            let mid = good + (bad - good) / 2;
            self.set(axis, mid);
            if self.probe() {
                good = mid + 1;
            } else {
                bad = mid;
            }
        }
        good
    }

    /// Moves the odometer over `digits` (the innermost last) to the next
    /// point of the feasible set's projection: the innermost digit up one
    /// rung, else reset to the root and carry outward. Returns the digit
    /// that moved and the new point's feasible rung count on `axis`, or
    /// `None` past the last point. `caps[l]` is the count at the point
    /// digit `l` last moved to — an upper bound for the next one.
    fn advance(&mut self, axis: usize, digits: &[usize], caps: &[usize]) -> Option<(usize, usize)> {
        for (l, &d) in digits.iter().enumerate().rev() {
            let i = self.at[d] as usize + 1;
            if i < self.rungs(d) {
                self.set(d, i);
                let count = self.feasible_rungs(axis, 0, caps[l]);
                if count > 0 {
                    return Some((l, count));
                }
            }
            self.set(d, 0);
        }
        None
    }

    /// The maximal feasible nodes in descending colexicographic order (see
    /// the module docs).
    fn frontier(mut self) -> Walk {
        let Some(axis) = self.axes.iter().copied().max_by_key(|&d| self.rungs(d)) else {
            return Walk { nodes: vec![self.factors], explored: 1 };
        };
        let digits: Vec<usize> = self.axes.iter().copied().filter(|&d| d != axis).collect();
        // The root is feasible: at least one rung of the axis is.
        let mut count = self.feasible_rungs(axis, 1, self.rungs(axis));
        let mut caps = vec![count; digits.len()];
        let (mut nodes, mut explored) = (Vec::new(), 0);
        loop {
            explored += count;
            self.set(axis, count - 1);
            // The top of this column is maximal iff no digit can step from
            // it. The innermost digit's step is the next point, so its
            // answer is that point's count.
            let outer = &digits[..digits.len().saturating_sub(1)];
            let top = outer.iter().all(|&d| !self.can_step(d)).then(|| self.factors.clone());
            let next = self.advance(axis, &digits, &caps);
            let inner_steps = matches!(next, Some((l, c)) if l + 1 == digits.len() && c == count);
            nodes.extend(top.filter(|_| !inner_steps));
            let Some((l, c)) = next else { break };
            caps[l..].fill(c);
            count = c;
        }
        nodes.sort_unstable_by(|a, b| b.iter().rev().cmp(a.iter().rev()));
        Walk { nodes, explored }
    }

    /// Every feasible node, in the order a depth-first search from the
    /// root pops them.
    fn pop_order(mut self) -> Walk {
        let axes = std::mem::take(&mut self.axes);
        let root = self.at.clone();
        let mut seen: FxHashSet<DimVec> = FxHashSet::default();
        seen.insert(root.clone());
        let mut stack = vec![root];
        let mut nodes = Vec::new();
        while let Some(node) = stack.pop() {
            for &d in &axes {
                self.set(d, node[d] as usize);
            }
            for &d in &axes {
                if self.can_step(d) {
                    let mut child = node.clone();
                    child[d] += 1;
                    if seen.insert(child.clone()) {
                        stack.push(child);
                    }
                }
            }
            nodes.push(self.factors.clone());
        }
        let explored = nodes.len();
        Walk { nodes, explored }
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;

    /// Most nodes a generated case's lattice box holds: the pop-order
    /// oracle visits every feasible one.
    const BUDGET: u64 = 20_000;

    /// A random monotone predicate over factor vectors.
    #[derive(Debug)]
    enum Shape {
        /// Inside at least one of the boxes (per-dimension factor limits).
        Boxes(Vec<Vec<u64>>),
        /// `Σ weight[d] · factor[d] ≤ Σ weight + slack` — the root always
        /// fits, like a capacity sum.
        Capacity(Vec<u64>, u64),
        /// `Π factor ≤ units` — the unrolling bound, which rejects even
        /// the root when `units` is 0: the walks take the root as given,
        /// as the unrolling root rule does.
        Units(u64),
    }

    /// One generated lattice: 1–10 dimensions (past the `DimVec` spill at
    /// 8) with ladders of 1–12 rungs, any allowed set (the empty one
    /// included), and a predicate intersected with a box of at most
    /// [`BUDGET`] nodes so the oracle stays small.
    #[derive(Debug)]
    struct Case {
        ladders: Vec<Cow<'static, [u64]>>,
        allowed: DimSet,
        bound: Vec<u64>,
        shape: Shape,
    }

    fn below(rng: &mut TestRng, n: u64) -> u64 {
        rng.next_u64() % n
    }

    fn case() -> impl Strategy<Value = Case> {
        proptest::strategy_fn(|rng: &mut TestRng| {
            let n = 1 + below(rng, 10) as usize;
            let mut ladders: Vec<Cow<'static, [u64]>> = Vec::with_capacity(n);
            for _ in 0..n {
                let mut factor = 1;
                let mut ladder = vec![factor];
                for _ in 0..below(rng, 12) {
                    factor += 1 + below(rng, 3);
                    ladder.push(factor);
                }
                ladders.push(Cow::Owned(ladder));
            }
            let allowed = (0..n).filter(|_| below(rng, 2) == 1).map(DimId::from_index).collect();
            let mut volume = 1;
            let mut bound = Vec::with_capacity(n);
            for ladder in &ladders {
                let rungs = ladder.len() as u64;
                let top = (rungs - 1 - below(rng, rungs) / 2).min(BUDGET / volume - 1);
                volume *= top + 1;
                bound.push(ladder[top as usize]);
            }
            let shape = match below(rng, 3) {
                0 => Shape::Boxes(
                    (0..1 + below(rng, 3))
                        .map(|_| {
                            ladders.iter().map(|l| l[below(rng, l.len() as u64) as usize]).collect()
                        })
                        .collect(),
                ),
                1 => Shape::Capacity((0..n).map(|_| below(rng, 5)).collect(), below(rng, 60)),
                _ => Shape::Units(below(rng, 400)),
            };
            Case { ladders, allowed, bound, shape }
        })
    }

    impl Case {
        fn feasible(&self, f: &[u64]) -> bool {
            let within = |limit: &[u64]| f.iter().zip(limit).all(|(x, y)| x <= y);
            within(&self.bound)
                && match &self.shape {
                    Shape::Boxes(boxes) => boxes.iter().any(|b| within(b)),
                    Shape::Capacity(weights, slack) => {
                        let load: u64 = f.iter().zip(weights).map(|(x, w)| x * w).sum();
                        load <= weights.iter().sum::<u64>() + slack
                    }
                    Shape::Units(units) => f.iter().product::<u64>() <= *units,
                }
        }

        /// Whether no allowed dimension can step one rung from `node`.
        fn is_maximal(&self, node: &[u64]) -> bool {
            self.allowed.iter().map(DimId::index).all(|d| {
                let ladder = &self.ladders[d];
                let i = ladder.binary_search(&node[d]).expect("a node sits on its ladders");
                let Some(&up) = ladder.get(i + 1) else { return true };
                let mut child = DimVec::from_slice(node);
                child[d] = up;
                !self.feasible(&child)
            })
        }

        fn walk(&self, maximal_only: bool) -> Walk {
            walk(&self.ladders, self.allowed, |f| self.feasible(f), maximal_only)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The frontier walk is the pop-order walk filtered to maximal
        /// nodes — element for element, in order — with equal `explored`.
        #[test]
        fn frontier_is_the_maximal_pop_order(case in case()) {
            let every = case.walk(false);
            prop_assert_eq!(every.explored, every.nodes.len());
            let maximal: Vec<DimVec> =
                every.nodes.iter().filter(|node| case.is_maximal(node)).cloned().collect();
            let frontier = case.walk(true);
            prop_assert_eq!(frontier.nodes, maximal, "{:?}", case);
            prop_assert_eq!(frontier.explored, every.explored, "{:?}", case);
        }

        /// An infeasible root ends both enumerators at the root in both
        /// modes: nothing kept, one node explored, one probe.
        #[test]
        fn an_infeasible_root_explores_one_node(case in case(), units in 0u64..64) {
            let quota: Vec<u64> = case.ladders.iter().map(|l| l[l.len() - 1]).collect();
            let base = vec![1; quota.len()];
            for maximal_only in [true, false] {
                let tiles = crate::tiling::enumerate_tiles(
                    &base, &quota, case.allowed, |_| false, maximal_only,
                );
                prop_assert!(tiles.tiles.is_empty());
                prop_assert_eq!((tiles.explored, tiles.probes), (1, 1));
                let unrolls = crate::unrolling::enumerate_unrollings(
                    &quota, case.allowed, units, |_| false, 0.5, maximal_only,
                );
                prop_assert!(unrolls.unrollings.is_empty());
                prop_assert_eq!((unrolls.explored, unrolls.probes), (1, 1));
            }
        }
    }
}
