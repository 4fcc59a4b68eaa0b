//! Exact allocation on general graphs by branch-and-bound.
//!
//! For non-chordal (non-SSA) instances, "maximum-weight `R`-colourable
//! induced subgraph" has no polynomial structure to exploit, so we
//! search: vertices are processed in decreasing-weight order and each is
//! either assigned one of the colours `0..R` or spilled. Colour symmetry
//! is broken by allowing at most one previously unused colour per
//! vertex; the incumbent is seeded with the best heuristic solution
//! (`GC` and `LH`) so pruning bites immediately; the bound is the spill
//! cost accumulated so far (every completion only adds spills).
//!
//! The search runs on a relabelled copy of the graph: vertex `i` is the
//! `i`-th vertex in search order, and neighbourhood rows and colour
//! classes are flat runs of `W` words (`W = ⌈n/64⌉`). One generic
//! search is monomorphised for `W = 1..=4` (up to 256 vertices) and
//! runs on heap-sized rows above that.
//!
//! JVM-method-sized graphs (≲ 40 vertices) solve in well under the node
//! budget; the solver returns `None` if the budget is exhausted, so a
//! caller can distinguish *certified* optima from timeouts.

use super::SolveBudget;
use crate::baselines::ChaitinBriggs;
use crate::cluster::LayeredHeuristic;
use crate::problem::{Allocation, Allocator, Instance};
use lra_graph::{BitSet, Cost};
use std::time::Instant;

/// How many search nodes pass between cooperative deadline checks.
/// A power of two so the check compiles to a mask test.
const DEADLINE_STRIDE: u64 = 4096;

/// Words per bit row: a compile-time constant for the fixed widths, a
/// runtime one for heap rows.
trait Width: Copy {
    fn words(self) -> usize;
}

#[derive(Clone, Copy)]
struct Fixed<const W: usize>;

impl<const W: usize> Width for Fixed<W> {
    #[inline(always)]
    fn words(self) -> usize {
        W
    }
}

#[derive(Clone, Copy)]
struct Heap(usize);

impl Width for Heap {
    #[inline(always)]
    fn words(self) -> usize {
        self.0
    }
}

struct Search<'a, Wd: Width> {
    width: Wd,
    /// Neighbourhood row of each search position, over positions.
    rows: &'a [u64],
    /// Spill weight of each search position.
    weights: &'a [Cost],
    r: u32,
    /// Positions currently holding each colour: colour `c` is free for
    /// position `i` iff class `c` is disjoint from row `i`.
    classes: Vec<u64>,
    /// The colour classes of the best leaf found so far.
    best_classes: Vec<u64>,
    best_spill: Cost,
    nodes: u64,
    node_limit: u64,
    deadline: Option<Instant>,
}

impl<Wd: Width> Search<'_, Wd> {
    /// Counts one search node; `false` once the fuel or the deadline
    /// trips.
    #[inline(always)]
    fn count_node(&mut self) -> bool {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            return false;
        }
        if self.nodes.is_multiple_of(DEADLINE_STRIDE) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return false;
                }
            }
        }
        true
    }

    /// Enters the child node `(i, spill, used_colors)`. A child the
    /// prune test rejects on entry is counted here, without the call.
    #[inline(always)]
    fn visit(&mut self, i: usize, spill: Cost, used_colors: u32) -> bool {
        if spill >= self.best_spill {
            return self.count_node();
        }
        self.run(i, spill, used_colors)
    }

    fn run(&mut self, i: usize, spill: Cost, used_colors: u32) -> bool {
        if !self.count_node() {
            return false;
        }
        if spill >= self.best_spill {
            return true; // prune: cannot improve
        }
        if i == self.weights.len() {
            self.best_spill = spill;
            self.best_classes.copy_from_slice(&self.classes);
            return true;
        }
        let w = self.width.words();
        let rows = self.rows;
        let row = &rows[i * w..(i + 1) * w];
        let (word, bit) = (i / 64, 1u64 << (i % 64));

        // Try colours first (allocating is never charged), with symmetry
        // breaking: at most one fresh colour.
        let limit = (used_colors + 1).min(self.r);
        for c in 0..limit {
            let class = &self.classes[c as usize * w..(c as usize + 1) * w];
            if row.iter().zip(class).any(|(a, b)| a & b != 0) {
                continue; // a neighbour holds this colour
            }
            self.classes[c as usize * w + word] |= bit;
            let ok = self.visit(i + 1, spill, used_colors.max(c + 1));
            self.classes[c as usize * w + word] &= !bit;
            if !ok {
                return false;
            }
        }

        // Spill branch.
        self.visit(i + 1, spill + self.weights[i], used_colors)
    }
}

/// Runs the search at one row width; returns whether it completed, the
/// nodes it counted and the best leaf's colour classes.
fn search<Wd: Width>(
    width: Wd,
    rows: &[u64],
    weights: &[Cost],
    r: u32,
    incumbent_spill: Cost,
    budget: &SolveBudget,
) -> (bool, u64, Vec<u64>) {
    // min(r, n) classes: the search can never use more colours than
    // vertices, and an absurd caller-supplied R must not allocate R
    // rows.
    let classes = vec![0; (r as usize).min(weights.len()) * width.words()];
    let mut s = Search {
        width,
        rows,
        weights,
        r,
        best_classes: classes.clone(),
        classes,
        // `run` records strictly better solutions only, so start one
        // above the incumbent: a completed search always ends on a
        // leaf at least as good as it.
        best_spill: incumbent_spill + 1,
        nodes: 0,
        node_limit: budget.node_limit,
        deadline: budget.deadline,
    };
    let completed = s.run(0, 0, 0);
    (completed, s.nodes, s.best_classes)
}

/// Solves `instance` exactly with `r` registers, or returns `None` if
/// the search exceeds `node_limit` nodes (no certified optimum).
pub fn solve(instance: &Instance, r: u32, node_limit: u64) -> Option<Allocation> {
    solve_budgeted(instance, r, &SolveBudget::nodes(node_limit))
}

/// [`solve`] under a full [`SolveBudget`]: aborts (returning `None`)
/// on node-fuel exhaustion *or* when the cooperative deadline passes.
pub fn solve_budgeted(instance: &Instance, r: u32, budget: &SolveBudget) -> Option<Allocation> {
    solve_metered(instance, r, budget, None, &mut 0)
}

/// [`solve_budgeted`] that reports the search nodes it counted through
/// `spent` (on success and on abort; a fuel abort leaves
/// `node_limit + 1`) and accepts the `LH` allocation of this very
/// instance as `lh_seed`, sparing the recomputation of that incumbent.
/// The `GC` incumbent is always computed: the better of the two
/// bounds the search, so a seed changes no decision.
pub fn solve_metered(
    instance: &Instance,
    r: u32,
    budget: &SolveBudget,
    lh_seed: Option<&Allocation>,
    spent: &mut u64,
) -> Option<Allocation> {
    *spent = 0;
    if budget.expired() {
        return None;
    }
    let n = instance.vertex_count();
    if r == 0 {
        return Some(instance.allocation_from_set(BitSet::new(n)));
    }

    // Incumbent: the better of the two polynomial heuristics. LH works
    // on any graph; GC too.
    let lh_spill = match lh_seed {
        Some(a) => a.spill_cost,
        None => LayeredHeuristic::new().allocate(instance, r).spill_cost,
    };
    let gc_spill = ChaitinBriggs::new().allocate(instance, r).spill_cost;
    let incumbent_spill = lh_spill.min(gc_spill);

    let g = instance.graph();
    let wg = instance.weighted_graph();
    // Decreasing weight puts expensive spills early (strong bounds);
    // ties broken by degree so constrained vertices are decided first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse((wg.weight(v), g.degree(v))));
    let mut position = vec![0usize; n];
    for (i, &v) in order.iter().enumerate() {
        position[v] = i;
    }
    let words = n.div_ceil(64).max(1);
    let mut rows = vec![0u64; n * words];
    for (i, &v) in order.iter().enumerate() {
        for &u in g.neighbor_indices(v) {
            let j = position[u as usize];
            rows[i * words + j / 64] |= 1 << (j % 64);
        }
    }
    let weights: Vec<Cost> = order.iter().map(|&v| wg.weight(v)).collect();

    let (completed, nodes, classes) = match words {
        1 => search(Fixed::<1>, &rows, &weights, r, incumbent_spill, budget),
        2 => search(Fixed::<2>, &rows, &weights, r, incumbent_spill, budget),
        3 => search(Fixed::<3>, &rows, &weights, r, incumbent_spill, budget),
        4 => search(Fixed::<4>, &rows, &weights, r, incumbent_spill, budget),
        w => search(Heap(w), &rows, &weights, r, incumbent_spill, budget),
    };
    *spent = nodes;
    if !completed {
        return None;
    }
    // The allocated set is the union of the best leaf's colour classes,
    // and the classes themselves are the witness colouring.
    let mut allocated = BitSet::new(n);
    let mut colors = vec![0u32; n];
    for (c, class) in classes.chunks_exact(words).enumerate() {
        for (k, &word) in class.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = order[k * 64 + bits.trailing_zeros() as usize];
                allocated.insert(v);
                colors[v] = c as u32;
                bits &= bits - 1;
            }
        }
    }
    Some(instance.allocation_from_set(allocated).with_witness(colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{generate, Graph, WeightedGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(g: Graph, w: Vec<Cost>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    #[test]
    fn c5_two_registers() {
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst = instance(c5, vec![5, 4, 3, 2, 1]);
        let a = solve(&inst, 2, 1_000_000).unwrap();
        // C5 is 3-chromatic: one vertex must go; the cheapest is 1.
        assert_eq!(a.spill_cost, 1);
        assert!(verify::check(&inst, &a, 2).is_feasible());
    }

    #[test]
    fn matches_exhaustive_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for trial in 0..8 {
            let g = generate::random_general(&mut rng, 10, 35);
            let w = generate::random_weights(&mut rng, 10, 2);
            let inst = instance(g, w);
            for r in 1..=3u32 {
                let a = solve(&inst, r, 10_000_000).unwrap();
                let best = exhaustive(&inst, r);
                assert_eq!(a.allocated_weight, best, "trial {trial} R={r}");
                assert!(verify::check(&inst, &a, r).is_feasible());
            }
        }
    }

    /// Reference: enumerate all subsets, check colourability exactly.
    fn exhaustive(inst: &Instance, r: u32) -> Cost {
        use lra_graph::coloring;
        let n = inst.vertex_count();
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let set = BitSet::from_iter_with_capacity(n, (0..n).filter(|&v| mask & (1 << v) != 0));
            if coloring::exact_coloring(inst.graph(), &set, r).is_some() {
                best = best.max(inst.weighted_graph().weight_of_set(&set));
            }
        }
        best
    }

    #[test]
    fn witness_is_the_best_leafs_colouring() {
        // Past 128 vertices, so the rows span three words.
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let g = generate::random_general(&mut rng, 130, 3);
        let max_degree = (0..130).map(|v| g.degree(v)).max().unwrap() as u32;
        let inst = instance(g, generate::random_weights(&mut rng, 130, 2));
        // With more than Δ registers the first descent colours every
        // vertex, so the search certifies at once.
        for r in max_degree + 1..=max_degree + 2 {
            let a = solve(&inst, r, 10_000_000).unwrap();
            let colors = a.witness.as_ref().expect("a completed search has a leaf");
            for v in a.allocated.iter() {
                assert!(colors[v] < r);
                for &u in inst.graph().neighbor_indices(v) {
                    let u = u as usize;
                    assert!(!a.allocated.contains(u) || colors[u] != colors[v]);
                }
            }
        }
    }

    #[test]
    fn r_zero_spills_everything() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let inst = instance(g, vec![2, 3]);
        let a = solve(&inst, 0, 1000).unwrap();
        assert_eq!(a.spill_cost, 5);
    }

    #[test]
    fn expired_deadline_aborts_before_searching() {
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst = instance(c5, vec![5, 4, 3, 2, 1]);
        let budget = SolveBudget::nodes(1_000_000).with_time(Some(std::time::Duration::ZERO));
        assert!(solve_budgeted(&inst, 2, &budget).is_none());
        // The same search without the dead deadline completes.
        assert!(solve_budgeted(&inst, 2, &SolveBudget::nodes(1_000_000)).is_some());
    }

    #[test]
    fn node_limit_returns_none() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generate::random_general(&mut rng, 30, 40);
        let inst = instance(g, generate::random_weights(&mut rng, 30, 2));
        assert!(solve(&inst, 4, 10).is_none());
    }

    #[test]
    fn heuristic_incumbent_returned_when_already_optimal() {
        // Edgeless graph: everything allocated by every heuristic; the
        // search should confirm rather than regress.
        let inst = instance(Graph::empty(6), vec![1, 2, 3, 4, 5, 6]);
        let a = solve(&inst, 1, 1000).unwrap();
        assert_eq!(a.spill_cost, 0);
    }
}
