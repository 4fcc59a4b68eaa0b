//! Test-only reference bodies of the exact-tier kernels, kept verbatim
//! from before their table-driven rewrites so property tests can pin
//! the production kernels to the same decisions and the same fuel.
//!
//! Nothing here is reachable outside `#[cfg(test)]`: these are
//! oracles, not alternative code paths.

use super::SolveBudget;
use crate::baselines::ChaitinBriggs;
use crate::cluster::LayeredHeuristic;
use crate::problem::{Allocation, Allocator, Instance};
use lra_graph::{cliques::CliqueTree, BitSet, Cost};
use std::collections::HashMap;
use std::time::Instant;

const BB_DEADLINE_STRIDE: u64 = 4096;
const DP_DEADLINE_STRIDE: u64 = 65536;

struct Search<'a> {
    instance: &'a Instance,
    order: Vec<usize>,
    r: u32,
    assigned: Vec<BitSet>,
    best_spill: Cost,
    best_set: BitSet,
    nodes: u64,
    node_limit: u64,
    deadline: Option<Instant>,
}

impl Search<'_> {
    fn run(&mut self, i: usize, spill: Cost, used_colors: u32, allocated: &mut BitSet) -> bool {
        self.nodes += 1;
        if self.nodes > self.node_limit {
            return false;
        }
        if self.nodes.is_multiple_of(BB_DEADLINE_STRIDE) {
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    return false;
                }
            }
        }
        if spill >= self.best_spill {
            return true;
        }
        if i == self.order.len() {
            self.best_spill = spill;
            self.best_set = allocated.clone();
            return true;
        }
        let v = self.order[i];
        let row = self.instance.graph().neighbor_row(v);
        let limit = (used_colors + 1).min(self.r);
        for c in 0..limit {
            if !row.is_disjoint(&self.assigned[c as usize]) {
                continue;
            }
            self.assigned[c as usize].insert(v);
            allocated.insert(v);
            let ok = self.run(i + 1, spill, used_colors.max(c + 1), allocated);
            allocated.remove(v);
            self.assigned[c as usize].remove(v);
            if !ok {
                return false;
            }
        }
        let w = self.instance.weighted_graph().weight(v);
        self.run(i + 1, spill + w, used_colors, allocated)
    }
}

/// The pre-rewrite `branch_bound::solve_budgeted`, reporting the nodes
/// it counted through `spent`.
pub fn branch_bound(
    instance: &Instance,
    r: u32,
    budget: &SolveBudget,
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
    let seed_a = LayeredHeuristic::new().allocate(instance, r);
    let seed_b = ChaitinBriggs::new().allocate(instance, r);
    let (incumbent_spill, incumbent_set) = if seed_a.spill_cost <= seed_b.spill_cost {
        (seed_a.spill_cost, seed_a.allocated)
    } else {
        (seed_b.spill_cost, seed_b.allocated)
    };
    let wg = instance.weighted_graph();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse((wg.weight(v), instance.graph().degree(v))));
    let mut search = Search {
        instance,
        order,
        r,
        assigned: vec![BitSet::new(n); (r as usize).min(n)],
        best_spill: incumbent_spill + 1,
        best_set: incumbent_set.clone(),
        nodes: 0,
        node_limit: budget.node_limit,
        deadline: budget.deadline,
    };
    let completed = search.run(0, 0, 0, &mut BitSet::new(n));
    *spent = search.nodes;
    if !completed {
        return None;
    }
    let best = if search.best_spill <= incumbent_spill {
        search.best_set
    } else {
        incumbent_set
    };
    Some(instance.allocation_from_set(best))
}

/// The pre-rewrite `chordal_dp::solve_metered` (position searches and
/// hashed separator tables).
pub fn chordal_dp(
    instance: &Instance,
    r: u32,
    budget: &SolveBudget,
    spent: &mut u64,
) -> Option<Allocation> {
    *spent = 0;
    if budget.expired() {
        return None;
    }
    let order = instance
        .peo()
        .expect("chordal DP requires a chordal instance");
    let g = instance.graph();
    let wg = instance.weighted_graph();
    let n = g.vertex_count();
    let tree = CliqueTree::build(g, order);
    if tree.max_bag_size() > super::chordal_dp::MAX_BAG {
        return None;
    }
    let fuel_spent = spent;
    if r as usize >= tree.max_bag_size() {
        return Some(instance.allocation_from_set(BitSet::full(n)));
    }
    let k = tree.bag_count();
    let mut table: Vec<HashMap<u32, (Cost, u32)>> = vec![HashMap::new(); k];
    let bag_vs: Vec<Vec<usize>> = tree
        .bags
        .iter()
        .map(|bag| bag.iter().map(|v| v.index()).collect())
        .collect();
    let sep_list: Vec<Vec<usize>> = (0..k).map(|b| tree.separator(b).iter().collect()).collect();
    let project = |mask: u32, vs: &[usize], targets: &[usize]| -> u32 {
        let mut key = 0u32;
        for (i, &t) in targets.iter().enumerate() {
            let pos = vs.iter().position(|&v| v == t).expect("target in bag");
            if mask & (1 << pos) != 0 {
                key |= 1 << i;
            }
        }
        key
    };
    for &b in tree.topo.iter().rev() {
        let vs = &bag_vs[b];
        let sep = &sep_list[b];
        let kb = vs.len();
        let in_sep: Vec<bool> = vs.iter().map(|v| sep.contains(v)).collect();
        let children = &tree.children[b];
        let child_seps: Vec<&Vec<usize>> = children.iter().map(|&c| &sep_list[c]).collect();
        let mut best: HashMap<u32, (Cost, u32)> = HashMap::new();
        for mask in 0u32..(1 << kb) {
            *fuel_spent += 1;
            if *fuel_spent > budget.node_limit
                || (fuel_spent.is_multiple_of(DP_DEADLINE_STRIDE) && budget.expired())
            {
                return None;
            }
            if (mask.count_ones()) > r {
                continue;
            }
            let mut value: Cost = 0;
            for (i, &v) in vs.iter().enumerate() {
                if mask & (1 << i) != 0 && !in_sep[i] {
                    value += wg.weight(v);
                }
            }
            let mut feasible = true;
            for (ci, &c) in children.iter().enumerate() {
                let key = project(mask, vs, child_seps[ci]);
                match table[c].get(&key) {
                    Some(&(val, _)) => value += val,
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            let parent_key = project(mask, vs, sep);
            match best.entry(parent_key) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((value, mask));
                }
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    if value > e.get().0 {
                        e.insert((value, mask));
                    }
                }
            }
        }
        table[b] = best;
    }
    let mut allocated = BitSet::new(n);
    let mut stack: Vec<(usize, u32)> = tree
        .topo
        .iter()
        .filter(|&&b| tree.parent[b].is_none())
        .map(|&b| (b, 0u32))
        .collect();
    while let Some((b, key)) = stack.pop() {
        let &(_, mask) = table[b]
            .get(&key)
            .expect("every separator subset with ≤ R kept is realisable");
        let vs = &bag_vs[b];
        for (i, &v) in vs.iter().enumerate() {
            if mask & (1 << i) != 0 {
                allocated.insert(v);
            }
        }
        for &c in &tree.children[b] {
            let key_c = project(mask, vs, &sep_list[c]);
            stack.push((c, key_c));
        }
    }
    Some(instance.allocation_from_set(allocated))
}

/// The pre-rewrite `Optimal::try_allocate`: the chordal DP, then
/// branch-and-bound on the leftover fuel, reporting the total spent.
pub fn try_allocate(
    instance: &Instance,
    r: u32,
    budget: &SolveBudget,
    spent: &mut u64,
) -> Option<Allocation> {
    *spent = 0;
    if budget.expired() {
        return None;
    }
    if instance.intervals().is_some() {
        return Some(super::flow::solve(instance, r));
    }
    if instance.is_chordal() {
        let mut dp_spent = 0;
        if let Some(a) = chordal_dp(instance, r, budget, &mut dp_spent) {
            *spent = dp_spent;
            return Some(a);
        }
        *spent = dp_spent;
        let remaining = budget.node_limit.saturating_sub(dp_spent);
        if remaining == 0 {
            return None;
        }
        let fallback = SolveBudget {
            node_limit: remaining,
            deadline: budget.deadline,
        };
        let mut bb_spent = 0;
        let out = branch_bound(instance, r, &fallback, &mut bb_spent);
        *spent += bb_spent;
        return out;
    }
    branch_bound(instance, r, budget, spent)
}

/// Decision identity: the production kernels against the reference
/// bodies above, over random instances and node limits drawn across
/// the full-search node count — same allocation, same fuel, same
/// exhaustion point.
#[cfg(test)]
mod identity {
    use super::*;
    use crate::optimal::{branch_bound as bb, chordal_dp as dp, Optimal};
    use lra_graph::{generate, interval, Graph, WeightedGraph};
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn general(seed: u64, n: usize, edge_percent: u32) -> Instance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::random_general(&mut rng, n, edge_percent);
        let w = generate::random_weights(&mut rng, n, 2);
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    /// A chordal instance without intervals (so `try_allocate` takes
    /// the DP path). Long intervals give bags wide enough to span
    /// several byte chunks.
    fn chordal(seed: u64, n: usize, mean_len: u32) -> Instance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g: Graph = if rng.gen_range(0..2) == 0 {
            generate::random_chordal(&mut rng, n, n + n / 2, 4)
        } else {
            let profile = generate::IntervalProfile {
                n,
                points: n as u32 * 2,
                mean_len,
                long_lived_percent: 10,
            };
            interval::interval_graph(&generate::random_interval_set(&mut rng, &profile))
        };
        let w = generate::random_weights(&mut rng, n, 2);
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    fn same(a: &Option<Allocation>, b: &Option<Allocation>) -> bool {
        match (a, b) {
            (None, None) => true,
            (Some(a), Some(b)) => {
                a.allocated == b.allocated
                    && a.spill_cost == b.spill_cost
                    && a.allocated_weight == b.allocated_weight
            }
            _ => false,
        }
    }

    type Kernel = fn(&Instance, u32, &SolveBudget, &mut u64) -> Option<Allocation>;

    /// Runs both kernels at `cap` to learn the full-search count, then
    /// at limits spread over it (both edges of exhaustion included).
    fn agree(
        inst: &Instance,
        r: u32,
        cap: u64,
        seed: u64,
        new: Kernel,
        old: Kernel,
    ) -> Result<(), TestCaseError> {
        let mut full = 0;
        let _ = old(inst, r, &SolveBudget::nodes(cap), &mut full);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut limits = vec![0, 1, full.saturating_sub(1), full, full + 1, cap];
        limits.extend((0..4).map(|_| rng.gen_range(0..=full + 1)));
        for limit in limits {
            let budget = SolveBudget::nodes(limit);
            let (mut s_new, mut s_old) = (0, 0);
            let a = new(inst, r, &budget, &mut s_new);
            let b = old(inst, r, &budget, &mut s_old);
            prop_assert!(same(&a, &b), "limit {limit}: allocations differ");
            prop_assert_eq!(s_new, s_old, "limit {limit}: fuel spent differs");
            if let Some(a) = &a {
                prop_assert!(crate::verify::check(inst, a, r).is_feasible());
            }
        }
        Ok(())
    }

    fn new_bb(inst: &Instance, r: u32, b: &SolveBudget, s: &mut u64) -> Option<Allocation> {
        bb::solve_metered(inst, r, b, None, s)
    }

    fn new_try(inst: &Instance, r: u32, b: &SolveBudget, s: &mut u64) -> Option<Allocation> {
        Optimal::new().try_allocate_metered(inst, r, b, None, s)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        #[test]
        fn branch_bound_matches_reference(
            seed in 0u64..1_000_000,
            n in 1usize..36,
            density in 10u32..70,
            r in 0u32..=6,
        ) {
            let inst = general(seed, n, density);
            agree(&inst, r, 300_000, seed, new_bb, branch_bound)?;
        }

        #[test]
        fn branch_bound_matches_reference_on_wide_rows(
            seed in 0u64..1_000_000,
            n in 60usize..300,
            r in 0u32..=6,
        ) {
            // 1 to 5 words per row: every fixed width and the heap one.
            let inst = general(seed, n, 4);
            agree(&inst, r, 20_000, seed, new_bb, branch_bound)?;
        }

        #[test]
        fn chordal_dp_matches_reference(
            seed in 0u64..1_000_000,
            n in 1usize..40,
            mean_len in 2u32..24,
            r in 0u32..=6,
        ) {
            let inst = chordal(seed, n, mean_len);
            agree(&inst, r, 5_000_000, seed, dp::solve_metered, chordal_dp)?;
        }

        #[test]
        fn try_allocate_matches_reference(
            seed in 0u64..1_000_000,
            n in 1usize..30,
            r in 0u32..=6,
        ) {
            let inst = if seed % 2 == 0 { general(seed, n, 40) } else { chordal(seed, n, 8) };
            agree(&inst, r, 300_000, seed, new_try, try_allocate)?;
        }

        #[test]
        fn lh_seed_changes_nothing(
            seed in 0u64..1_000_000,
            n in 1usize..30,
            limit in 0u64..20_000,
            r in 0u32..=6,
        ) {
            let inst = if seed % 2 == 0 { general(seed, n, 40) } else { chordal(seed, n, 8) };
            let lh = LayeredHeuristic::new().allocate(&inst, r);
            let budget = SolveBudget::nodes(limit);
            let (mut s_seeded, mut s_plain) = (0, 0);
            let seeded = Optimal::new().try_allocate_metered(&inst, r, &budget, Some(&lh), &mut s_seeded);
            let plain = Optimal::new().try_allocate_metered(&inst, r, &budget, None, &mut s_plain);
            prop_assert_eq!(seeded, plain);
            prop_assert_eq!(s_seeded, s_plain);
        }
    }
}
