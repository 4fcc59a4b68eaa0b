//! Spill-everywhere problem instances and allocation results.
//!
//! An [`Instance`] is a weighted interference graph, optionally enriched
//! with structure the solvers can exploit: a perfect elimination order
//! (present exactly when the graph is chordal — the SSA case) and the
//! live intervals of a linearised program (the linear-scan view, present
//! when the instance was built from intervals).
//!
//! Allocators return an [`Allocation`]: the set of variables kept in
//! registers; everything else is spilled, and the **allocation cost** is
//! the total spill cost of the spilled variables — the quantity every
//! figure of the paper reports (normalised to the optimum).

use lra_graph::{cliques, peo, BitSet, Cost, Graph, Interval, Vertex, WeightedGraph};

/// A spill-everywhere problem instance.
#[derive(Clone, Debug)]
pub struct Instance {
    wg: WeightedGraph,
    peo: Option<Vec<Vertex>>,
    intervals: Option<Vec<Interval>>,
    // OnceLock (not cell::OnceCell) so instances stay Sync and can be
    // shared across the `crate::batch` worker pool.
    cliques: std::sync::OnceLock<Option<Vec<Vec<Vertex>>>>,
}

impl Instance {
    /// Wraps a weighted graph, detecting chordality (and caching a PEO).
    pub fn from_weighted_graph(wg: WeightedGraph) -> Self {
        let order = peo::perfect_elimination_order(wg.graph());
        Instance {
            wg,
            peo: order,
            intervals: None,
            cliques: std::sync::OnceLock::new(),
        }
    }

    /// Builds an instance from live intervals and per-variable weights.
    ///
    /// The graph is the interval-intersection graph; a PEO (by
    /// increasing right end point) comes for free.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != intervals.len()`.
    pub fn from_intervals(intervals: Vec<Interval>, weights: Vec<Cost>) -> Self {
        assert_eq!(intervals.len(), weights.len(), "one weight per interval");
        let g = lra_graph::interval::interval_graph(&intervals);
        let order = lra_graph::interval::interval_peo(&intervals);
        debug_assert!(peo::is_perfect_elimination_order(&g, &order));
        Instance {
            wg: WeightedGraph::new(g, weights),
            peo: Some(order),
            intervals: Some(intervals),
            cliques: std::sync::OnceLock::new(),
        }
    }

    /// The weighted interference graph.
    pub fn weighted_graph(&self) -> &WeightedGraph {
        &self.wg
    }

    /// The unweighted interference graph.
    pub fn graph(&self) -> &Graph {
        self.wg.graph()
    }

    /// Number of variables.
    pub fn vertex_count(&self) -> usize {
        self.wg.vertex_count()
    }

    /// `true` if the interference graph is chordal (SSA instances).
    pub fn is_chordal(&self) -> bool {
        self.peo.is_some()
    }

    /// A perfect elimination order, when the graph is chordal.
    pub fn peo(&self) -> Option<&[Vertex]> {
        self.peo.as_deref()
    }

    /// The live intervals, when the instance came from a linearised
    /// program.
    pub fn intervals(&self) -> Option<&[Interval]> {
        self.intervals.as_deref()
    }

    /// The maximal cliques of a chordal instance (computed once and
    /// cached); `None` for non-chordal instances.
    pub fn maximal_cliques(&self) -> Option<&[Vec<Vertex>]> {
        self.cliques
            .get_or_init(|| {
                self.peo
                    .as_ref()
                    .map(|order| cliques::maximal_cliques(self.wg.graph(), order))
            })
            .as_deref()
    }

    /// MaxLive: the size of the largest clique for chordal instances
    /// (equal to the chromatic number); for general instances, a greedy
    /// clique lower bound.
    pub fn max_live(&self) -> usize {
        match (&self.peo, &self.intervals) {
            (_, Some(ivs)) => lra_graph::interval::max_overlap(ivs),
            (Some(order), None) => cliques::max_clique_size(self.wg.graph(), order),
            (None, None) => {
                // Greedy clique heuristic (lower bound on ω).
                let g = self.wg.graph();
                let mut best = usize::from(g.vertex_count() > 0);
                for v in 0..g.vertex_count() {
                    let mut clique = vec![v];
                    for u in g.neighbor_indices(v) {
                        let u = *u as usize;
                        if clique.iter().all(|&c| g.has_edge(c, u)) {
                            clique.push(u);
                        }
                    }
                    best = best.max(clique.len());
                }
                best
            }
        }
    }

    /// Total weight of all variables (the cost of spilling everything).
    pub fn total_weight(&self) -> Cost {
        self.wg.total_weight()
    }

    /// Builds the [`Allocation`] that keeps exactly `allocated` in
    /// registers.
    pub fn allocation_from_set(&self, allocated: BitSet) -> Allocation {
        let allocated_weight = self.wg.weight_of_set(&allocated);
        Allocation {
            spill_cost: self.total_weight() - allocated_weight,
            allocated_weight,
            allocated,
            witness: None,
        }
    }
}

/// The outcome of an allocator on an [`Instance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Variables kept in registers.
    pub allocated: BitSet,
    /// Total spill cost of the variables *not* in `allocated` — the
    /// paper's allocation cost.
    pub spill_cost: Cost,
    /// Total weight of the allocated variables (the dual view).
    pub allocated_weight: Cost,
    /// A colouring the allocator built while choosing `allocated`, when
    /// it has one: entry `v` is the register of allocated vertex `v`
    /// (entries of spilled vertices are meaningless). The verifier
    /// falls back to checking it when it cannot find a colouring
    /// itself ([`crate::verify::check`]).
    pub witness: Option<Vec<u32>>,
}

impl Allocation {
    /// Attaches a witness colouring ([`Allocation::witness`]).
    pub fn with_witness(mut self, colors: Vec<u32>) -> Self {
        self.witness = Some(colors);
        self
    }

    /// Number of spilled variables.
    pub fn spilled_count(&self, instance: &Instance) -> usize {
        instance.vertex_count() - self.allocated.len()
    }

    /// The spilled variables, as a bit set.
    pub fn spilled_set(&self, instance: &Instance) -> BitSet {
        let mut s = BitSet::full(instance.vertex_count());
        s.difference_with(&self.allocated);
        s
    }
}

/// A spill-everywhere allocator: selects the variables to keep in
/// registers given `r` available registers.
///
/// Implementations must return a *feasible* allocation: the subgraph
/// induced by the allocated set must be `r`-colourable (see
/// [`crate::verify`]).
pub trait Allocator {
    /// Short name used in experiment tables (`GC`, `NL`, `BFPL`, …).
    fn name(&self) -> &'static str;

    /// Solves `instance` with `r` registers.
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::Graph;

    fn triangle_instance() -> Instance {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        Instance::from_weighted_graph(WeightedGraph::new(g, vec![4, 5, 6]))
    }

    #[test]
    fn chordal_detection_and_cliques() {
        let inst = triangle_instance();
        assert!(inst.is_chordal());
        assert_eq!(inst.maximal_cliques().unwrap().len(), 1);
        assert_eq!(inst.max_live(), 3);
    }

    #[test]
    fn non_chordal_instance() {
        let c4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::unit(c4));
        assert!(!inst.is_chordal());
        assert!(inst.peo().is_none());
        assert!(inst.maximal_cliques().is_none());
        assert_eq!(inst.max_live(), 2); // greedy clique bound
    }

    #[test]
    fn interval_instance_has_everything() {
        let ivs = vec![
            Interval::new(0, 4),
            Interval::new(2, 6),
            Interval::new(5, 8),
        ];
        let inst = Instance::from_intervals(ivs, vec![1, 2, 3]);
        assert!(inst.is_chordal());
        assert!(inst.intervals().is_some());
        assert_eq!(inst.max_live(), 2);
        assert_eq!(inst.total_weight(), 6);
    }

    #[test]
    fn allocation_costs_are_complementary() {
        let inst = triangle_instance();
        let alloc = inst.allocation_from_set(BitSet::from_iter_with_capacity(3, [1]));
        assert_eq!(alloc.allocated_weight, 5);
        assert_eq!(alloc.spill_cost, 10);
        assert_eq!(alloc.spilled_count(&inst), 2);
        let spilled = alloc.spilled_set(&inst);
        assert!(spilled.contains(0) && spilled.contains(2) && !spilled.contains(1));
    }

    #[test]
    #[should_panic(expected = "one weight per interval")]
    fn interval_weight_mismatch_panics() {
        let _ = Instance::from_intervals(vec![Interval::new(0, 1)], vec![1, 2]);
    }
}
