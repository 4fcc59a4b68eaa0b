//! Exact allocation on chordal graphs by clique-tree dynamic programming.
//!
//! A subset `S` of a chordal graph's vertices induces an `R`-colourable
//! subgraph iff every **maximal clique** contains at most `R` members of
//! `S` (induced subgraphs of chordal graphs are chordal, and chordal
//! graphs are perfect). The clique tree is a tree decomposition whose
//! bags are the maximal cliques, so the maximum-weight such `S` is
//! computable by the standard tree-decomposition DP: for each bag,
//! enumerate the kept subsets (popcount ≤ R) and combine children
//! through their separators.
//!
//! The DP is exponential only in the largest clique (= MaxLive), which
//! is exactly the pseudo-polynomial structure the paper exploits. Bags
//! beyond [`MAX_BAG`] make the table too large; [`solve`] then returns
//! `None` and the caller falls back to branch-and-bound.

use super::SolveBudget;
use crate::problem::{Allocation, Instance};
use lra_graph::{cliques::CliqueTree, BitSet, Cost};

/// Largest bag size the DP will attempt (2^24 masks ≈ 16M per bag).
pub const MAX_BAG: usize = 22;

/// How many DP masks pass between cooperative deadline checks.
const DEADLINE_STRIDE: u64 = 65536;

/// Solves a chordal instance exactly, or returns `None` when a maximal
/// clique exceeds [`MAX_BAG`] vertices.
///
/// # Panics
///
/// Panics if the instance is not chordal.
pub fn solve(instance: &Instance, r: u32) -> Option<Allocation> {
    solve_budgeted(instance, r, &SolveBudget::unlimited())
}

/// [`solve`] under a [`SolveBudget`]: every enumerated bag mask costs
/// one unit of node fuel, and the wall-clock deadline is checked every
/// few tens of thousands of masks. Returns `None` on an oversized bag *or*
/// an exhausted budget — either way no certified optimum exists within
/// the caps and the caller decides what to fall back to.
///
/// # Panics
///
/// Panics if the instance is not chordal.
pub fn solve_budgeted(instance: &Instance, r: u32, budget: &SolveBudget) -> Option<Allocation> {
    let mut spent = 0;
    solve_metered(instance, r, budget, &mut spent)
}

/// [`solve_budgeted`] that also reports the node fuel consumed through
/// `spent` (valid on success *and* on abort), so a caller chaining a
/// fallback solver can charge both against one budget instead of
/// paying the cap twice — [`super::Optimal::try_allocate`] hands
/// branch-and-bound only the remainder.
///
/// Each bag charges its full `2^kb` masks before it is enumerated; a
/// bag that would overrun the fuel aborts with
/// `*spent == node_limit + 1`, exactly where a mask-by-mask count
/// would have tripped.
///
/// # Panics
///
/// Panics if the instance is not chordal.
pub fn solve_metered(
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
    if tree.max_bag_size() > MAX_BAG {
        return None;
    }

    // Shortcut: R ≥ MaxLive means everything fits.
    if r as usize >= tree.max_bag_size() {
        return Some(instance.allocation_from_set(BitSet::full(n)));
    }

    let k = tree.bag_count();
    let bag_vs: Vec<Vec<usize>> = tree
        .bags
        .iter()
        .map(|bag| bag.iter().map(|v| v.index()).collect())
        .collect();
    // Bag-local position of each vertex of the bag being processed.
    let mut pos = vec![0u8; n];
    // positions(b, targets): where `targets` (a sorted subset of bag
    // `b`) sit in `b`'s mask bits — ascending, since bags are sorted.
    let mut positions = |b: usize, targets: &[usize]| -> Vec<u8> {
        for (i, &v) in bag_vs[b].iter().enumerate() {
            pos[v] = i as u8;
        }
        targets.iter().map(|&v| pos[v]).collect()
    };
    // Separator of each bag (its intersection with the parent bag), as
    // an ascending vertex list: the key bits of the bag's table.
    let seps: Vec<Vec<usize>> = (0..k)
        .map(|b| match tree.parent[b] {
            Some(p) => bag_vs[b]
                .iter()
                .copied()
                .filter(|&v| tree.bag_sets[p].contains(v))
                .collect(),
            None => Vec::new(),
        })
        .collect();
    let ranks = Ranks::new(r);

    // values[b][rank of a separator key]: the best weight bag `b`'s
    // subtree keeps under that key; masks[b][..]: the bag mask that
    // achieves it, for the top-down reconstruction.
    let mut values: Vec<Vec<Cost>> = vec![Vec::new(); k];
    let mut masks: Vec<Vec<u32>> = vec![Vec::new(); k];
    for &b in tree.topo.iter().rev() {
        let kb = bag_vs[b].len();
        let base = *spent;
        let total = 1u64 << kb;
        if base.saturating_add(total) > budget.node_limit {
            *spent = budget.node_limit.saturating_add(1);
            return None;
        }
        *spent = base + total;

        let sep_pos = positions(b, &seps[b]);
        let parent = ranks.projection(&sep_pos, kb);
        let owned = OwnedWeights::new(kb, r, |i| {
            if sep_pos.contains(&(i as u8)) {
                0
            } else {
                wg.weight(bag_vs[b][i])
            }
        });
        let children: Vec<(Projection, &[Cost])> = tree.children[b]
            .iter()
            .map(|&c| {
                let p = ranks.projection(&positions(b, &seps[c]), kb);
                (p, values[c].as_slice())
            })
            .collect();

        // Filled with value + 1, so 0 marks a key no mask reached yet.
        let len = ranks.table_len(seps[b].len());
        let mut best_v: Vec<Cost> = vec![0; len];
        let mut best_m: Vec<u32> = vec![0; len];
        let mut next_poll = (base / DEADLINE_STRIDE + 1) * DEADLINE_STRIDE;
        // Masks in increasing order, as high part × low byte: the high
        // part's share of every lookup is computed once per block of
        // low masks.
        let low_width = kb.min(LOW);
        let mut child_rows: Vec<(usize, &[u32], &[Cost])> = Vec::with_capacity(children.len());
        for high in 0u32..1 << (kb - low_width) {
            let block = high << low_width;
            if base + u64::from(block) + (1 << low_width) >= next_poll {
                if budget.expired() {
                    *spent = next_poll;
                    return None;
                }
                next_poll += DEADLINE_STRIDE;
            }
            let kept_high = high.count_ones();
            if kept_high > r {
                continue;
            }
            let room = r - kept_high;
            child_rows.clear();
            child_rows.extend(children.iter().map(|(proj, vals)| {
                let (rank, row) = proj.high(block);
                (rank, row, *vals)
            }));
            let (parent_rank, parent_row) = parent.high(block);
            let owned_high = owned.high(block) + 1;
            for low in kept_at_most(low_width, room) {
                // Weight of kept vertices owned by this bag (not shared
                // with the parent — those are counted higher up), plus
                // each child's best through its separator; stored + 1.
                let mut value = owned_high + owned.low[low as usize];
                for &(rank, row, vals) in &child_rows {
                    value += vals[rank + row[low as usize] as usize];
                }
                let key = parent_rank + parent_row[low as usize] as usize;
                if value > best_v[key] {
                    best_v[key] = value;
                    best_m[key] = block | low;
                }
            }
        }
        drop(child_rows);
        drop(children);
        // Store real values; the children's tables are no longer
        // needed once their parent has read them.
        for v in &mut best_v {
            *v -= 1;
        }
        for &c in &tree.children[b] {
            values[c] = Vec::new();
        }
        values[b] = best_v;
        masks[b] = best_m;
    }

    // Reconstruct top-down.
    let mut allocated = BitSet::new(n);
    let mut stack: Vec<(usize, usize)> = tree
        .topo
        .iter()
        .filter(|&&b| tree.parent[b].is_none())
        .map(|&b| (b, 0))
        .collect();
    while let Some((b, key)) = stack.pop() {
        let mask = masks[b][key];
        for (i, &v) in bag_vs[b].iter().enumerate() {
            if mask & (1 << i) != 0 {
                allocated.insert(v);
            }
        }
        for &c in &tree.children[b] {
            let sep_pos = positions(b, &seps[c]);
            let sub = sep_pos
                .iter()
                .enumerate()
                .filter(|&(_, &p)| mask & (1 << p) != 0)
                .fold(0u32, |key, (j, _)| key | 1 << j);
            stack.push((c, ranks.rank_of_key(sub, seps[c].len())));
        }
    }

    Some(instance.allocation_from_set(allocated))
}

/// Bits of a bag mask enumerated by the inner loop: the low byte.
const LOW: usize = 8;

/// The values below `1 << width` that keep at most `r` bits, in
/// increasing order. From a value keeping more, adding its lowest set
/// bit skips only values that keep all of its bits plus some below
/// that bit — all of which keep more than `r` too.
fn kept_at_most(width: usize, r: u32) -> impl Iterator<Item = u32> {
    let end = 1u32 << width;
    let mut next = 0u32;
    std::iter::from_fn(move || {
        while next < end && next.count_ones() > r {
            next += next & next.wrapping_neg();
        }
        let value = next;
        next += 1;
        (value < end).then_some(value)
    })
}

/// Binomial coefficients `C(n, k)` for `n, k ≤ MAX_BAG`.
const BINOMIAL: [[u32; MAX_BAG + 1]; MAX_BAG + 1] = {
    let mut c = [[0u32; MAX_BAG + 1]; MAX_BAG + 1];
    let mut n = 0;
    while n <= MAX_BAG {
        c[n][0] = 1;
        let mut k = 1;
        while k <= n {
            c[n][k] = c[n - 1][k - 1] + if k < n { c[n - 1][k] } else { 0 };
            k += 1;
        }
        n += 1;
    }
    c
};

/// `C(n, k)`, zero for `k > n`.
fn binomial(n: usize, k: usize) -> u32 {
    if k > n {
        0
    } else {
        BINOMIAL[n][k]
    }
}

/// The dense index of separator keys: a key of `s` bits keeping at
/// most `R` of them maps to its rank among all such keys — by size,
/// then by the colexicographic order of the bit-reversed key — so a
/// bag's table holds exactly the keys a mask can produce,
/// `Σ_{i≤R} C(s, i)` slots, and no more. Counting set bits from the
/// top makes a low bit's share of the rank depend only on how many
/// key bits lie above it, which is what lets [`Projection`] fold the
/// high part of a mask in once per block of low bytes.
struct Ranks {
    r: usize,
}

impl Ranks {
    fn new(r: u32) -> Self {
        Ranks { r: r as usize }
    }

    /// Slots in the table of a bag whose separator has `s` vertices.
    fn table_len(&self, s: usize) -> usize {
        self.offset(s, self.r.min(s) + 1)
    }

    /// Keys of `s` bits keeping fewer than `p` of them.
    fn offset(&self, s: usize, p: usize) -> usize {
        (0..p).map(|i| BINOMIAL[s][i] as usize).sum()
    }

    /// The rank of `key` (at most `R` bits set) among `s`-bit keys:
    /// the `t`-th set bit from the top, at key bit `j`, contributes
    /// `C(s - 1 - j, t)`.
    fn rank_of_key(&self, key: u32, s: usize) -> usize {
        let (mut t, mut rank) = (0, 0);
        for j in (0..s).rev() {
            if key & (1 << j) != 0 {
                t += 1;
                rank += binomial(s - 1 - j, t) as usize;
            }
        }
        self.offset(s, t) + rank
    }

    /// The projection of `kb`-bit bag masks onto the bag positions
    /// `targets` (ascending; key bit `j` is `targets[j]`).
    fn projection(&self, targets: &[u8], kb: usize) -> Projection {
        let s = targets.len();
        let low_width = kb.min(LOW);
        let mut low_key = [None; LOW];
        let mut high = Vec::new();
        for (j, &p) in targets.iter().enumerate().rev() {
            match (p as usize).checked_sub(low_width) {
                None => low_key[p as usize] = Some(j),
                Some(_) => high.push((p, (s - 1 - j) as u8)),
            }
        }
        // Row `t` (key bits set by the high part) of the low table:
        // each low byte's offset-included share of the rank. Built
        // from the byte without its lowest set bit, which is the last
        // key bit from the top and so the only one whose share moves.
        // Only bytes keeping at most R bits are ever looked up.
        let rows = self.r.min(high.len()) + 1;
        let size = 1usize << low_width;
        let mut low = vec![0; rows * size];
        let (mut count, mut share) = ([0usize; 1 << LOW], [0u32; 1 << LOW]);
        for t in 0..rows {
            for byte in kept_at_most(low_width, self.r as u32).map(|b| b as usize) {
                if byte > 0 {
                    let rest = byte & (byte - 1);
                    count[byte] = count[rest];
                    share[byte] = share[rest];
                    if let Some(j) = low_key[byte.trailing_zeros() as usize] {
                        count[byte] += 1;
                        share[byte] += binomial(s - 1 - j, t + count[byte]);
                    }
                }
                let kept = t + count[byte];
                if kept <= self.r.min(s) {
                    low[t * size + byte] = self.offset(s, kept) as u32 + share[byte];
                }
            }
        }
        Projection {
            high,
            low_width: low_width as u32,
            low,
        }
    }
}

/// A table-driven separator projection (see [`Ranks::projection`]).
struct Projection {
    /// Key bits in the high part of the mask, highest first: (mask
    /// bit, `s - 1 - j`).
    high: Vec<(u8, u8)>,
    low_width: u32,
    /// Rows of low-byte shares, one per count of high key bits.
    low: Vec<u32>,
}

impl Projection {
    /// The high part's share of the rank and the low-table row that
    /// completes it, for every mask of the block `block`.
    fn high(&self, block: u32) -> (usize, &[u32]) {
        let (mut t, mut rank) = (0, 0);
        for &(bit, row) in &self.high {
            if block & (1 << bit) != 0 {
                t += 1;
                rank += binomial(row as usize, t) as usize;
            }
        }
        let size = 1 << self.low_width;
        (rank, &self.low[t * size..(t + 1) * size])
    }
}

/// The owned weight a bag mask keeps: a low-byte table plus the
/// weights of the high positions.
struct OwnedWeights {
    low: Vec<Cost>,
    high: Vec<(u8, Cost)>,
}

impl OwnedWeights {
    fn new(kb: usize, r: u32, weight: impl Fn(usize) -> Cost) -> Self {
        let low_width = kb.min(LOW);
        let mut low: Vec<Cost> = vec![0; 1 << low_width];
        for byte in kept_at_most(low_width, r).skip(1).map(|b| b as usize) {
            low[byte] = low[byte & (byte - 1)] + weight(byte.trailing_zeros() as usize);
        }
        let high = (low_width..kb).map(|i| (i as u8, weight(i))).collect();
        OwnedWeights { low, high }
    }

    fn high(&self, block: u32) -> Cost {
        self.high
            .iter()
            .filter(|&&(bit, _)| block & (1 << bit) != 0)
            .map(|&(_, w)| w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{generate, Graph, GraphBuilder, WeightedGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(g: Graph, w: Vec<Cost>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    #[test]
    fn clique_keeps_r_heaviest() {
        let mut b = GraphBuilder::new(5);
        b.add_clique(&[0, 1, 2, 3, 4]);
        let inst = instance(b.build(), vec![5, 9, 2, 7, 4]);
        let a = solve(&inst, 2).unwrap();
        // Keep 9 and 7; spill 5+2+4 = 11.
        assert_eq!(a.spill_cost, 11);
        assert!(a.allocated.contains(1) && a.allocated.contains(3));
        assert!(verify::check(&inst, &a, 2).is_feasible());
    }

    #[test]
    fn r_one_equals_max_weight_stable_set() {
        use lra_graph::stable;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..10 {
            let g = generate::random_chordal(&mut rng, 18, 24, 4);
            let w = generate::random_weights(&mut rng, 18, 2);
            let inst = instance(g, w);
            let a = solve(&inst, 1).unwrap();
            let brute = stable::max_weight_stable_set_brute(inst.weighted_graph(), None);
            assert_eq!(a.allocated_weight, brute.weight);
            assert!(verify::check(&inst, &a, 1).is_feasible());
        }
    }

    #[test]
    fn r_at_maxlive_allocates_everything() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generate::random_chordal(&mut rng, 25, 30, 5);
        let inst = instance(g, vec![3; 25]);
        let ml = inst.max_live() as u32;
        let a = solve(&inst, ml).unwrap();
        assert_eq!(a.spill_cost, 0);
    }

    #[test]
    fn disconnected_components_solved_independently() {
        // Two triangles; R=2 spills the cheapest vertex of each.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let inst = instance(g, vec![5, 1, 4, 2, 6, 3]);
        let a = solve(&inst, 2).unwrap();
        assert_eq!(a.spill_cost, 1 + 2);
        assert!(!a.allocated.contains(1));
        assert!(!a.allocated.contains(3));
    }

    #[test]
    fn matches_brute_force_over_rs() {
        // Exhaustive reference: enumerate all subsets, keep the feasible
        // maximum.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for trial in 0..6 {
            let g = generate::random_chordal(&mut rng, 12, 16, 4);
            let w = generate::random_weights(&mut rng, 12, 2);
            let inst = instance(g.clone(), w.clone());
            for r in 1..=4u32 {
                let a = solve(&inst, r).unwrap();
                let best = brute_force(&inst, r);
                assert_eq!(
                    a.allocated_weight, best,
                    "trial {trial}, R={r}: DP {} vs brute {best}",
                    a.allocated_weight
                );
                assert!(verify::check(&inst, &a, r).is_feasible());
            }
        }
    }

    /// Exhaustive max-weight R-colourable subset for tiny graphs.
    fn brute_force(inst: &Instance, r: u32) -> Cost {
        let n = inst.vertex_count();
        assert!(n <= 20);
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let set = BitSet::from_iter_with_capacity(n, (0..n).filter(|&v| mask & (1 << v) != 0));
            // Feasibility on chordal graphs: every maximal clique ≤ r.
            let ok = inst
                .maximal_cliques()
                .unwrap()
                .iter()
                .all(|c| c.iter().filter(|v| set.contains(v.index())).count() <= r as usize);
            if ok {
                best = best.max(inst.weighted_graph().weight_of_set(&set));
            }
        }
        best
    }

    #[test]
    fn exhausted_fuel_returns_none() {
        let mut b = GraphBuilder::new(6);
        b.add_clique(&[0, 1, 2, 3, 4, 5]);
        let inst = instance(b.build(), vec![1; 6]);
        assert!(solve_budgeted(&inst, 2, &SolveBudget::nodes(3)).is_none());
        assert!(solve_budgeted(&inst, 2, &SolveBudget::unlimited()).is_some());
    }

    #[test]
    fn expired_deadline_returns_none() {
        let mut b = GraphBuilder::new(5);
        b.add_clique(&[0, 1, 2, 3, 4]);
        let inst = instance(b.build(), vec![2; 5]);
        let budget = SolveBudget::unlimited().with_time(Some(std::time::Duration::ZERO));
        assert!(solve_budgeted(&inst, 2, &budget).is_none());
    }

    #[test]
    fn separator_ranks_are_dense_and_projections_agree() {
        for r in 1..=6u32 {
            let ranks = Ranks::new(r);
            for s in 0..=12usize {
                // Every key keeping at most R bits has a distinct rank
                // inside the table.
                let mut seen = vec![false; ranks.table_len(s)];
                for key in (0u32..1 << s).filter(|k| k.count_ones() <= r) {
                    let rank = ranks.rank_of_key(key, s);
                    assert!(!seen[rank], "s={s} R={r}: rank {rank} twice");
                    seen[rank] = true;
                }
                assert!(seen.iter().all(|&b| b), "s={s} R={r}: table not dense");
            }
            // A projection's table lookups equal the rank of the
            // projected key, across one, two and three mask chunks.
            for kb in [5usize, 13, 20] {
                let targets: Vec<u8> = (0..kb as u8).filter(|p| p % 3 != 1).collect();
                let proj = ranks.projection(&targets, kb);
                for mask in (0u32..1 << kb).step_by(7).filter(|m| m.count_ones() <= r) {
                    let key = targets
                        .iter()
                        .enumerate()
                        .filter(|&(_, &p)| mask & (1 << p) != 0)
                        .fold(0u32, |k, (j, _)| k | 1 << j);
                    let block = mask & !((1 << kb.min(LOW)) - 1);
                    let (high, row) = proj.high(block);
                    let low = (mask & ((1 << kb.min(LOW)) - 1)) as usize;
                    assert_eq!(
                        high + row[low] as usize,
                        ranks.rank_of_key(key, targets.len())
                    );
                }
            }
        }
    }

    #[test]
    fn oversized_bags_return_none() {
        let mut b = GraphBuilder::new(MAX_BAG + 2);
        let all: Vec<usize> = (0..MAX_BAG + 2).collect();
        b.add_clique(&all);
        let inst = instance(b.build(), vec![1; MAX_BAG + 2]);
        assert!(solve(&inst, 2).is_none());
    }
}
