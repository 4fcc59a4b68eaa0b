//! Chaitin–Briggs optimistic graph colouring (`GC`).
//!
//! The classic static-compilation allocator the paper uses as its main
//! baseline. Simplify: repeatedly remove (push) vertices with degree
//! `< R`; when stuck, pick the vertex minimising `cost(v)/degree(v)`
//! (Chaitin's spill metric) and push it *optimistically* (Briggs).
//! Select: pop the stack, giving each vertex the lowest colour unused by
//! its coloured neighbours; vertices that find no colour become actual
//! spills. In the spill-everywhere model, spilled variables leave the
//! graph entirely and the process repeats until a colouring succeeds.
//!
//! This is exactly the behaviour the paper's introduction criticises:
//! the `cost/degree` metric may spill a variable with many neighbours
//! even when it covers no high-pressure program point.

use crate::problem::{Allocation, Allocator, Instance};
use lra_graph::BitSet;

/// The `GC` baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaitinBriggs;

impl ChaitinBriggs {
    /// Creates the allocator.
    pub fn new() -> Self {
        ChaitinBriggs
    }
}

impl Allocator for ChaitinBriggs {
    fn name(&self) -> &'static str {
        "GC"
    }

    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        let g = instance.graph();
        let wg = instance.weighted_graph();
        let n = g.vertex_count();
        let r_us = r as usize;

        let mut spilled = BitSet::new(n);
        if r == 0 {
            return instance.allocation_from_set(BitSet::new(n));
        }

        loop {
            // Working degrees over the remaining (unspilled) vertices.
            let mut present = BitSet::full(n);
            present.difference_with(&spilled);
            let mut degree: Vec<usize> = (0..n)
                .map(|v| {
                    if present.contains(v) {
                        g.adjacent_count_in(v, &present)
                    } else {
                        0
                    }
                })
                .collect();

            let mut stack: Vec<usize> = Vec::with_capacity(present.len());
            // Present and not yet removed.
            let mut alive = present.clone();
            // Alive with degree < R: the simplify candidates, kept
            // current as degrees drop.
            let mut low =
                BitSet::from_iter_with_capacity(n, present.iter().filter(|&v| degree[v] < r_us));

            while !alive.is_empty() {
                // Simplify: the lowest-numbered vertex with degree < R.
                let simplifiable = low.iter().next();
                let v = match simplifiable {
                    Some(v) => v,
                    None => {
                        // Spill candidate: minimise cost/degree
                        // (compare by cross-multiplication to stay in
                        // integers).
                        alive
                            .iter()
                            .min_by(|&a, &b| {
                                let lhs = wg.weight(a) as u128 * degree[b].max(1) as u128;
                                let rhs = wg.weight(b) as u128 * degree[a].max(1) as u128;
                                lhs.cmp(&rhs).then(a.cmp(&b))
                            })
                            .expect("graph nonempty while vertices remain")
                    }
                };
                alive.remove(v);
                low.remove(v);
                stack.push(v);
                for &u in g.neighbor_indices(v) {
                    let u = u as usize;
                    if alive.contains(u) {
                        degree[u] = degree[u].saturating_sub(1);
                        if degree[u] < r_us {
                            low.insert(u);
                        }
                    }
                }
            }

            // Select phase: optimistic colouring.
            let mut color: Vec<Option<u32>> = vec![None; n];
            let mut new_spills = Vec::new();
            let mut used = vec![false; r_us];
            while let Some(v) = stack.pop() {
                used.fill(false);
                for &u in g.neighbor_indices(v) {
                    if let Some(c) = color[u as usize] {
                        if (c as usize) < r_us {
                            used[c as usize] = true;
                        }
                    }
                }
                match used.iter().position(|&b| !b) {
                    Some(c) => color[v] = Some(c as u32),
                    None => new_spills.push(v),
                }
            }

            if new_spills.is_empty() {
                let mut allocated = present;
                debug_assert!(allocated.iter().all(|v| color[v].is_some()));
                allocated.difference_with(&spilled);
                let colors = color.iter().map(|c| c.unwrap_or(0)).collect();
                return instance.allocation_from_set(allocated).with_witness(colors);
            }
            for v in new_spills {
                spilled.insert(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{Graph, GraphBuilder, WeightedGraph};

    fn instance(g: Graph, w: Vec<u64>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    #[test]
    fn colors_without_spilling_when_possible() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let inst = instance(g, vec![1, 1, 1, 1]);
        let a = ChaitinBriggs::new().allocate(&inst, 2);
        assert_eq!(a.spill_cost, 0);
        assert!(verify::check(&inst, &a, 2).is_feasible());
    }

    #[test]
    fn spills_cheapest_per_degree_on_clique() {
        let mut b = GraphBuilder::new(4);
        b.add_clique(&[0, 1, 2, 3]);
        let inst = instance(b.build(), vec![10, 20, 30, 5]);
        let a = ChaitinBriggs::new().allocate(&inst, 3);
        // One vertex must go; the cheapest (3, cost 5) is the right pick.
        assert_eq!(a.spill_cost, 5);
        assert!(!a.allocated.contains(3));
        assert!(verify::check(&inst, &a, 3).is_feasible());
    }

    #[test]
    fn optimistic_coloring_beats_pessimistic() {
        // Diamond (C4 + chord is not needed): C4 is 2-colourable even
        // though every vertex has degree 2 = R; Briggs' optimism colours
        // it with zero spills where pure Chaitin would spill.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let inst = instance(g, vec![1, 1, 1, 1]);
        let a = ChaitinBriggs::new().allocate(&inst, 2);
        assert_eq!(a.spill_cost, 0);
    }

    #[test]
    fn zero_registers_spills_everything() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let inst = instance(g, vec![3, 4]);
        let a = ChaitinBriggs::new().allocate(&inst, 0);
        assert_eq!(a.spill_cost, 7);
        assert!(a.allocated.is_empty());
    }

    #[test]
    fn always_feasible_on_random_like_graph() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (1, 4),
            ],
        );
        let inst = instance(g, vec![4, 7, 2, 9, 1, 3]);
        for r in 1..=4 {
            let a = ChaitinBriggs::new().allocate(&inst, r);
            assert!(verify::check(&inst, &a, r).is_feasible(), "R={r}");
        }
    }

    #[test]
    fn high_degree_cheap_vertex_spilled_despite_low_pressure() {
        // The paper's motivating pathology: a star centre interferes
        // with many cheap leaves but pressure is only 2. GC with R=2
        // still colours a star (centre + leaves = 2 colours), so use
        // R=1: GC spills the centre (cost/degree minimal) even though
        // spilling leaves would be cheaper per unit.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf);
        }
        let inst = instance(b.build(), vec![12, 4, 4, 4, 4]);
        let a = ChaitinBriggs::new().allocate(&inst, 1);
        // cost/degree: centre = 12/4 = 3, leaves = 4/1 = 4 -> centre goes.
        assert!(!a.allocated.contains(0));
        assert_eq!(a.spill_cost, 12);
        assert!(verify::check(&inst, &a, 1).is_feasible());
    }

    /// The simplify loop as it was before the `low` candidate set: a
    /// rescan of every vertex per removal. Test-only oracle.
    fn rescan_allocate(instance: &Instance, r: u32) -> BitSet {
        let g = instance.graph();
        let wg = instance.weighted_graph();
        let n = g.vertex_count();
        let r_us = r as usize;
        let mut spilled = BitSet::new(n);
        if r == 0 {
            return BitSet::new(n);
        }
        loop {
            let mut present = BitSet::full(n);
            present.difference_with(&spilled);
            let mut degree: Vec<usize> = (0..n)
                .map(|v| {
                    if present.contains(v) {
                        g.adjacent_count_in(v, &present)
                    } else {
                        0
                    }
                })
                .collect();
            let mut stack: Vec<usize> = Vec::with_capacity(present.len());
            let mut removed = BitSet::new(n);
            let mut remaining = present.len();
            while remaining > 0 {
                let simplifiable = present
                    .iter()
                    .find(|&v| !removed.contains(v) && degree[v] < r_us);
                let v = match simplifiable {
                    Some(v) => v,
                    None => present
                        .iter()
                        .filter(|&v| !removed.contains(v))
                        .min_by(|&a, &b| {
                            let lhs = wg.weight(a) as u128 * degree[b].max(1) as u128;
                            let rhs = wg.weight(b) as u128 * degree[a].max(1) as u128;
                            lhs.cmp(&rhs).then(a.cmp(&b))
                        })
                        .expect("graph nonempty while remaining > 0"),
                };
                removed.insert(v);
                remaining -= 1;
                stack.push(v);
                for &u in g.neighbor_indices(v) {
                    let u = u as usize;
                    if present.contains(u) && !removed.contains(u) {
                        degree[u] = degree[u].saturating_sub(1);
                    }
                }
            }
            let mut color: Vec<Option<u32>> = vec![None; n];
            let mut new_spills = Vec::new();
            while let Some(v) = stack.pop() {
                let mut used = vec![false; r_us];
                for &u in g.neighbor_indices(v) {
                    if let Some(c) = color[u as usize] {
                        if (c as usize) < r_us {
                            used[c as usize] = true;
                        }
                    }
                }
                match used.iter().position(|&b| !b) {
                    Some(c) => color[v] = Some(c as u32),
                    None => new_spills.push(v),
                }
            }
            if new_spills.is_empty() {
                let mut allocated = present;
                allocated.difference_with(&spilled);
                return allocated;
            }
            for v in new_spills {
                spilled.insert(v);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(60))]

        #[test]
        fn low_set_simplify_matches_the_rescan(
            seed in 0u64..1_000_000,
            n in 0usize..120,
            density in 2u32..60,
            r in 1u32..=6,
        ) {
            use lra_graph::generate;
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let g = if seed % 2 == 0 {
                generate::random_general(&mut rng, n, density)
            } else {
                generate::random_chordal(&mut rng, n, n + n / 2, 4)
            };
            let inst = instance(g, generate::random_weights(&mut rng, n, 2));
            let a = ChaitinBriggs::new().allocate(&inst, r);
            proptest::prop_assert_eq!(a.allocated, rescan_allocate(&inst, r));
            proptest::prop_assert!(verify::check(&inst, &a, r).is_feasible());
        }
    }
}
