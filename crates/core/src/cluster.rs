//! The layered-heuristic allocator (`LH`) for general graphs.
//!
//! Section 5 of the paper: on non-chordal interference graphs (non-SSA
//! programs) the maximum weighted stable set is NP-hard, so each layer
//! is *approximated* by a greedy cluster: walk the candidates in
//! decreasing weight order, adding every vertex that does not interfere
//! with the cluster so far (Algorithm 5). Once all variables are
//! clustered, the `R` heaviest clusters are allocated (Algorithm 6).
//!
//! Because every cluster is a stable set, assigning one register per
//! allocated cluster is a proper colouring — the allocation is feasible
//! by construction on *any* graph.
//!
//! Complexity: `O(R(|V| + |E|))` as each clustering pass visits every
//! candidate and its neighbours once.

use crate::problem::{Allocation, Allocator, Instance};
use lra_graph::{BitSet, Cost};

/// The `LH` allocator of §5.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LayeredHeuristic {
    /// Apply the §4.1 weight bias to the ordering (off in the paper's
    /// evaluation; exposed for the ablation benchmarks).
    pub bias: bool,
}

impl LayeredHeuristic {
    /// The allocator as evaluated in the paper (no bias).
    pub fn new() -> Self {
        LayeredHeuristic { bias: false }
    }
}

/// A greedy stable-set clustering of the graph (Algorithm 5).
///
/// `order` must list the candidate vertices; clusters are built greedily
/// in that order. Returns the clusters, each a vector of vertex indices.
pub fn cluster_vertices(instance: &Instance, order: &[usize]) -> Vec<Vec<usize>> {
    let g = instance.graph();
    let n = g.vertex_count();
    let mut in_candidates = BitSet::from_iter_with_capacity(n, order.iter().copied());
    let mut clusters = Vec::new();

    while !in_candidates.is_empty() {
        let mut cluster = Vec::new();
        let mut potentials = in_candidates.clone();
        for &v in order {
            if !potentials.contains(v) {
                continue;
            }
            cluster.push(v);
            potentials.remove(v);
            potentials.difference_with_row(g.neighbor_row(v));
        }
        for &v in &cluster {
            in_candidates.remove(v);
        }
        clusters.push(cluster);
    }
    clusters
}

impl Allocator for LayeredHeuristic {
    fn name(&self) -> &'static str {
        "LH"
    }

    /// Clusters the variables into stable sets and allocates the `r`
    /// heaviest clusters (Algorithms 5–6). Works on any graph.
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        let wg = instance.weighted_graph();
        let n = wg.vertex_count();

        // Candidates ordered by decreasing (possibly biased) weight.
        let keys: Vec<Cost> = if self.bias {
            crate::layered::biased_weights(wg)
        } else {
            wg.weights().to_vec()
        };
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(keys[v]));

        let mut clusters = cluster_vertices(instance, &order);
        // Allocate the R clusters of greatest *raw* total weight.
        clusters.sort_by_key(|c| std::cmp::Reverse(wg.weight_of_slice(c)));
        clusters.truncate(r as usize);

        // Each cluster is a stable set, so its index is a register.
        let mut allocated = BitSet::new(n);
        let mut colors = vec![0u32; n];
        for (i, c) in clusters.iter().enumerate() {
            for &v in c {
                allocated.insert(v);
                colors[v] = i as u32;
            }
        }
        instance.allocation_from_set(allocated).with_witness(colors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{Graph, WeightedGraph};

    fn c5_instance() -> Instance {
        // C5 (non-chordal) with one heavy vertex.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        Instance::from_weighted_graph(WeightedGraph::new(g, vec![10, 1, 8, 1, 8]))
    }

    #[test]
    fn clusters_are_stable_sets_and_cover() {
        let inst = c5_instance();
        let order: Vec<usize> = (0..5).collect();
        let clusters = cluster_vertices(&inst, &order);
        let mut seen = [false; 5];
        for c in &clusters {
            assert!(inst.graph().is_stable_set(c), "cluster {c:?} not stable");
            for &v in c {
                assert!(!seen[v], "vertex {v} in two clusters");
                seen[v] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "all vertices clustered");
    }

    #[test]
    fn greedy_cluster_takes_heaviest_first() {
        let inst = c5_instance();
        let mut order: Vec<usize> = (0..5).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(inst.weighted_graph().weight(v)));
        let clusters = cluster_vertices(&inst, &order);
        // First cluster starts with vertex 0 (weight 10) and adds the
        // non-adjacent heavy vertices 2 or 3 (2 is heavier).
        assert!(clusters[0].contains(&0));
        assert!(clusters[0].contains(&2));
    }

    #[test]
    fn allocation_is_feasible_on_non_chordal_graphs() {
        let inst = c5_instance();
        for r in 0..=3 {
            let a = LayeredHeuristic::new().allocate(&inst, r);
            assert!(
                verify::check(&inst, &a, r.max(1)).is_feasible() || r == 0,
                "infeasible at R={r}"
            );
            if r == 0 {
                assert!(a.allocated.is_empty());
            }
        }
    }

    #[test]
    fn r_clusters_mean_r_colors_suffice() {
        let inst = c5_instance();
        let a = LayeredHeuristic::new().allocate(&inst, 2);
        assert!(verify::check(&inst, &a, 2).is_feasible());
        // With 2 registers on C5 at most 4 vertices are allocatable.
        assert!(a.allocated.len() <= 4);
    }

    #[test]
    fn enough_clusters_allocate_everything() {
        let inst = c5_instance();
        // C5 needs 3 stable sets; R=5 certainly covers all clusters.
        let a = LayeredHeuristic::new().allocate(&inst, 5);
        assert_eq!(a.spill_cost, 0);
    }

    #[test]
    fn works_on_chordal_instances_too() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![3, 2, 1]));
        let a = LayeredHeuristic::new().allocate(&inst, 2);
        // Triangle: each cluster is a single vertex; keep the 2 heaviest.
        assert_eq!(a.allocated_weight, 5);
        assert!(verify::check(&inst, &a, 2).is_feasible());
    }

    #[test]
    fn name_is_lh() {
        assert_eq!(LayeredHeuristic::new().name(), "LH");
    }
}
