//! Feasibility checking for allocations.
//!
//! An allocation with `R` registers is feasible when the subgraph
//! induced by the allocated variables is `R`-colourable — then the
//! assignment phase (tree-scan / greedy colouring) succeeds without
//! further spills.
//!
//! For chordal instances the check is exact and cheap: every maximal
//! clique must contain at most `R` allocated vertices. For general
//! graphs colourability is NP-complete; we use greedy colouring and
//! fall back to exhaustive search on small graphs.

use crate::problem::{Allocation, Instance};
use lra_graph::{coloring, BitSet};

/// The result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// Definitely feasible, with a witness colouring (register
    /// assignment) for the allocated vertices.
    Feasible(Vec<u32>),
    /// Definitely infeasible: the named clique has more than `R`
    /// allocated members, or no colouring exists.
    Infeasible(String),
    /// Greedy colouring failed and the graph is too large for the exact
    /// check — feasibility unknown (only possible on large non-chordal
    /// instances).
    Unknown,
}

impl Feasibility {
    /// `true` for [`Feasibility::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible(_))
    }
}

/// Checks that `alloc` fits in `r` registers on `instance`. When the
/// verifier's own colourings give no answer (greedy fails on a graph
/// too large for the exact search), the allocator's
/// [`Allocation::witness`], if it is a proper `r`-colouring of the
/// allocated vertices, proves the allocation feasible.
pub fn check(instance: &Instance, alloc: &Allocation, r: u32) -> Feasibility {
    check_witnessed(instance, &alloc.allocated, alloc.witness.as_deref(), r)
}

/// Checks that the vertex set `allocated` induces an `r`-colourable
/// subgraph of the instance graph.
pub fn check_set(instance: &Instance, allocated: &BitSet, r: u32) -> Feasibility {
    check_witnessed(instance, allocated, None, r)
}

fn check_witnessed(
    instance: &Instance,
    allocated: &BitSet,
    witness: Option<&[u32]>,
    r: u32,
) -> Feasibility {
    let g = instance.graph();

    if let Some(cliques) = instance.maximal_cliques() {
        // Chordal: ω of the induced subgraph = max allocated per clique.
        for (i, clique) in cliques.iter().enumerate() {
            let inside = clique
                .iter()
                .filter(|v| allocated.contains(v.index()))
                .count();
            if inside > r as usize {
                return Feasibility::Infeasible(format!(
                    "maximal clique #{i} has {inside} allocated vertices for {r} registers"
                ));
            }
        }
        // Colour the allocated subgraph greedily along the reverse PEO
        // (the tree-scan assignment); this must succeed given the clique
        // check above.
        let order = instance.peo().expect("chordal instance has a PEO");
        let mut colors = vec![0u32; g.vertex_count()];
        let mut assigned = BitSet::new(g.vertex_count());
        for v in order.iter().rev() {
            let v = v.index();
            if !allocated.contains(v) {
                continue;
            }
            let mut used = vec![false; r as usize];
            for &u in g.neighbor_indices(v) {
                let u = u as usize;
                if assigned.contains(u) && (colors[u] as usize) < used.len() {
                    used[colors[u] as usize] = true;
                }
            }
            match used.iter().position(|&b| !b) {
                Some(c) => {
                    colors[v] = c as u32;
                    assigned.insert(v);
                }
                None => {
                    return Feasibility::Infeasible(
                        "greedy PEO colouring exceeded R on a chordal graph".into(),
                    )
                }
            }
        }
        return Feasibility::Feasible(colors);
    }

    // General graph: greedy colouring on the allocated subgraph, in
    // decreasing-degree order.
    let members: Vec<usize> = allocated.iter().collect();
    let mut order = members.clone();
    order.sort_by_key(|&v| std::cmp::Reverse(g.adjacent_count_in(v, allocated)));
    let mut colors: Vec<Option<u32>> = vec![None; g.vertex_count()];
    let mut greedy_ok = true;
    for &v in &order {
        let mut used = vec![false; r as usize];
        for &u in g.neighbor_indices(v) {
            if let Some(c) = colors[u as usize] {
                if (c as usize) < used.len() {
                    used[c as usize] = true;
                }
            }
        }
        match used.iter().position(|&b| !b) {
            Some(c) => colors[v] = Some(c as u32),
            None => {
                greedy_ok = false;
                break;
            }
        }
    }
    if greedy_ok {
        return Feasibility::Feasible(colors.into_iter().map(|c| c.unwrap_or(0)).collect());
    }
    if members.len() <= 48 {
        return match coloring::exact_coloring(g, allocated, r) {
            Some(w) => Feasibility::Feasible(w),
            None => Feasibility::Infeasible("no R-colouring exists (exact search)".into()),
        };
    }
    match witness {
        Some(w) if is_proper_witness(instance, allocated, w, r) => Feasibility::Feasible(
            (0..g.vertex_count())
                .map(|v| if allocated.contains(v) { w[v] } else { 0 })
                .collect(),
        ),
        _ => Feasibility::Unknown,
    }
}

/// `true` when `colors` gives every allocated vertex a register below
/// `r` and no two adjacent allocated vertices the same one.
fn is_proper_witness(instance: &Instance, allocated: &BitSet, colors: &[u32], r: u32) -> bool {
    let g = instance.graph();
    colors.len() == g.vertex_count()
        && allocated.iter().all(|v| {
            colors[v] < r
                && g.neighbor_indices(v)
                    .iter()
                    .all(|&u| !allocated.contains(u as usize) || colors[u as usize] != colors[v])
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::{Graph, WeightedGraph};

    fn instance(n: usize, edges: &[(usize, usize)]) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::unit(Graph::from_edges(n, edges)))
    }

    #[test]
    fn triangle_needs_three_registers() {
        let inst = instance(3, &[(0, 1), (1, 2), (0, 2)]);
        let all = BitSet::full(3);
        assert!(check_set(&inst, &all, 3).is_feasible());
        assert!(!check_set(&inst, &all, 2).is_feasible());
    }

    #[test]
    fn spilling_restores_feasibility() {
        let inst = instance(3, &[(0, 1), (1, 2), (0, 2)]);
        let two = BitSet::from_iter_with_capacity(3, [0, 2]);
        assert!(check_set(&inst, &two, 2).is_feasible());
    }

    #[test]
    fn witness_coloring_is_proper() {
        let inst = instance(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let all = BitSet::full(4);
        if let Feasibility::Feasible(colors) = check_set(&inst, &all, 3) {
            assert!(coloring::is_proper_coloring(
                inst.graph(),
                &colors,
                Some(&all)
            ));
        } else {
            panic!("expected feasible");
        }
    }

    #[test]
    fn non_chordal_exact_fallback() {
        // C5 needs 3 colours; greedy in some orders may fail at 3 but
        // the exact fallback must answer correctly for both 2 and 3.
        let inst = instance(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let all = BitSet::full(5);
        assert!(!check_set(&inst, &all, 2).is_feasible());
        assert!(check_set(&inst, &all, 3).is_feasible());
    }

    #[test]
    fn empty_allocation_always_feasible() {
        let inst = instance(3, &[(0, 1), (1, 2), (0, 2)]);
        assert!(check_set(&inst, &BitSet::new(3), 0).is_feasible());
    }

    /// The crown graph on `2k` vertices (`u_i = 2i`, `v_i = 2i + 1`,
    /// `u_i ~ v_j` for `i ≠ j`): bipartite, but greedy colouring in
    /// index order needs `k` colours.
    fn crown(k: usize) -> Instance {
        let edges: Vec<(usize, usize)> = (0..k)
            .flat_map(|i| {
                (0..k)
                    .filter(move |&j| j != i)
                    .map(move |j| (2 * i, 2 * j + 1))
            })
            .collect();
        instance(2 * k, &edges)
    }

    #[test]
    fn a_proper_witness_decides_what_greedy_and_size_cannot() {
        let inst = crown(25); // 50 allocated vertices: past the exact search
        let all = BitSet::full(50);
        assert_eq!(check_set(&inst, &all, 2), Feasibility::Unknown);
        let sides: Vec<u32> = (0..50).map(|v| v as u32 % 2).collect();
        let alloc = inst.allocation_from_set(all.clone());
        let witnessed = alloc.clone().with_witness(sides.clone());
        assert_eq!(check(&inst, &witnessed, 2), Feasibility::Feasible(sides));
        // An improper or out-of-range witness proves nothing.
        let mut clash = vec![0u32; 50];
        clash[1] = 1;
        assert_eq!(
            check(&inst, &alloc.clone().with_witness(clash), 2),
            Feasibility::Unknown
        );
        let wide: Vec<u32> = (0..50).map(|v| 2 + v as u32 % 2).collect();
        assert_eq!(
            check(&inst, &alloc.with_witness(wide), 2),
            Feasibility::Unknown
        );
    }
}
