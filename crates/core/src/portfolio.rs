//! The portfolio allocation policy: cheap first, exact under budget.
//!
//! Small JIT methods are worth solving exactly — the paper's §6.2
//! keeps SPEC JVM98 methods under ~35 temporaries precisely so its
//! `Optimal` baseline stays tractable. A larger corpus (hundreds of
//! temporaries, non-chordal graphs) breaks that bargain: the exact
//! branch-and-bound search is unbounded in the worst case, while the
//! polynomial heuristics are always fast but leave spill cost on the
//! table for the methods that happen to be easy.
//!
//! [`Portfolio`] resolves the tension with a two-tier policy:
//!
//! 1. run a **cheap** allocator (any [`AllocatorRegistry`] name;
//!    `LH` by default since it accepts any graph);
//! 2. if the cheap result still spills *and* the configured budget
//!    permits, escalate to [`Optimal::try_allocate`] under a
//!    [`SolveBudget`] — a deterministic node-fuel cap plus an optional
//!    wall-clock deadline threaded cooperatively through the exact
//!    solvers;
//! 3. keep whichever allocation costs less. An exhausted budget, an
//!    expired deadline, or a zero budget all degrade to the cheap
//!    result — the policy never errors and never runs unbounded.
//!
//! # Determinism
//!
//! With [`PortfolioConfig::time_budget`] unset (the default), every
//! decision is a function of the instance and the node fuel alone, so
//! batch reports are byte-identical at any worker count — the same
//! contract the [`crate::batch`] driver ships under. A wall-clock
//! budget adds a hard latency guard but makes the escalation outcome
//! machine-dependent; use it in latency-sensitive deployments, not in
//! reproducibility checks.
//!
//! # Example
//!
//! ```
//! use lra_core::portfolio::{Portfolio, PortfolioConfig};
//! use lra_core::problem::{Allocator, Instance};
//! use lra_graph::{Graph, WeightedGraph};
//!
//! // C5 is 3-chromatic: with 2 registers someone must spill.
//! let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
//! let inst = Instance::from_weighted_graph(WeightedGraph::new(c5, vec![5, 4, 3, 2, 1]));
//! let policy = Portfolio::new(PortfolioConfig::default()).unwrap();
//! let a = policy.allocate(&inst, 2);
//! assert_eq!(a.spill_cost, 1); // the exact tier certifies the optimum
//! ```

use crate::cache::{InstanceKey, ResultCache};
use crate::cluster::LayeredHeuristic;
use crate::driver::PipelineError;
use crate::optimal::{scaled_node_fuel, Optimal, SolveBudget};
use crate::problem::{Allocation, Allocator, Instance};
use crate::registry::{AllocatorRegistry, AllocatorSpec};
use std::sync::OnceLock;
use std::time::Duration;

/// Configuration for the [`Portfolio`] policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Registry name of the cheap first-tier allocator. Defaults to
    /// `LH`, which accepts any interference graph. If the named
    /// allocator cannot run on a given instance (it needs intervals or
    /// chordality the instance lacks), the policy substitutes `LH` for
    /// that instance instead of failing.
    pub cheap: String,
    /// Deterministic node fuel for the exact escalation, per
    /// [`SolveBudget::node_limit`]. `0` disables escalation entirely.
    /// Ignored while [`PortfolioConfig::adaptive`] is set — the fuel
    /// is then [`scaled_node_fuel`]`(n_temps)` instead.
    pub node_budget: u64,
    /// Size-adaptive fuel (the default): each escalation runs under
    /// [`SolveBudget::scaled_for`] the instance's vertex count, so
    /// small methods certify while huge ones keep a hard latency lid.
    /// Setting an explicit [`PortfolioConfig::node_budget`] turns
    /// this off. Fuel stays a pure function of the instance, so
    /// adaptive budgets keep the thread-count byte-identity contract.
    pub adaptive: bool,
    /// Optional wall-clock budget for the exact escalation. `None`
    /// (the default) keeps the policy fully deterministic;
    /// `Some(Duration::ZERO)` — an already-expired budget — degrades
    /// every decision to the cheap tier.
    pub time_budget: Option<Duration>,
    /// Memoize decisions in the process-wide [`portfolio_cache`]
    /// (default `true`): a batch re-submitting an identical method —
    /// or a spill loop reproducing an identical instance — skips both
    /// tiers entirely. Exact-keyed, so results are byte-identical with
    /// the cache on or off; disable only to measure raw solver time.
    /// Queries carrying a wall-clock [`PortfolioConfig::time_budget`]
    /// are never memoized — their outcomes are timing-dependent, and
    /// caching one would freeze a machine-speed artefact.
    pub cache: bool,
    /// Lets the pipeline escalate a stalled spill loop into the
    /// split + rematerialization tier
    /// ([`crate::driver::AllocationPipeline::escalation`]); default
    /// `true`. The knob lives here so a portfolio-driven batch carries
    /// one self-describing configuration, and it is part of the
    /// [`InstanceKey`] so cached decisions never leak across
    /// configurations that rewrite functions differently. Overridden
    /// by the `LRA_NO_SPLIT` environment escape hatch
    /// ([`crate::driver::escalation_forced_off`]).
    pub split_remat: bool,
}

/// Default node fuel for **non-adaptive** configurations: enough for
/// the exact solver to finish on JVM98-sized methods (tens of
/// temporaries) and to improve a useful fraction of larger ones,
/// while keeping the worst case at a few milliseconds per function.
pub const DEFAULT_NODE_BUDGET: u64 = 100_000;

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            cheap: "LH".to_string(),
            node_budget: DEFAULT_NODE_BUDGET,
            adaptive: true,
            time_budget: None,
            cache: true,
            split_remat: true,
        }
    }
}

impl PortfolioConfig {
    /// Selects the cheap first-tier allocator by registry name.
    pub fn cheap(mut self, name: impl Into<String>) -> Self {
        self.cheap = name.into();
        self
    }

    /// Sets an explicit deterministic node fuel for the exact
    /// escalation, turning size-adaptive scaling **off** (an explicit
    /// fuel is a reproducibility pin; silently rescaling it would
    /// defeat the point).
    pub fn node_budget(mut self, nodes: u64) -> Self {
        self.node_budget = nodes;
        self.adaptive = false;
        self
    }

    /// Enables or disables size-adaptive fuel
    /// ([`PortfolioConfig::adaptive`]).
    pub fn adaptive_budget(mut self, enabled: bool) -> Self {
        self.adaptive = enabled;
        self
    }

    /// The fuel one escalation over an `n_temps`-vertex instance runs
    /// under: [`scaled_node_fuel`] when adaptive, the configured
    /// [`PortfolioConfig::node_budget`] otherwise.
    pub fn effective_node_budget(&self, n_temps: usize) -> u64 {
        if self.adaptive {
            scaled_node_fuel(n_temps)
        } else {
            self.node_budget
        }
    }

    /// Sets (or clears) the wall-clock budget for the exact
    /// escalation.
    pub fn time_budget(mut self, d: Option<Duration>) -> Self {
        self.time_budget = d;
        self
    }

    /// Enables or disables the process-wide result cache
    /// ([`portfolio_cache`]).
    pub fn cache(mut self, enabled: bool) -> Self {
        self.cache = enabled;
        self
    }

    /// Enables or disables the pipeline's split + rematerialization
    /// escalation tier ([`PortfolioConfig::split_remat`]).
    pub fn split_remat(mut self, enabled: bool) -> Self {
        self.split_remat = enabled;
        self
    }
}

/// Entries the process-wide portfolio cache holds before clearing
/// wholesale. Sized for a large batch's worth of distinct methods ×
/// spill rounds; at ~200-temporary instances one entry is a few KiB.
pub const PORTFOLIO_CACHE_CAPACITY: usize = 1024;

/// The process-wide memo table behind [`PortfolioConfig::cache`]:
/// shared by every [`Portfolio`] in the process (the batch driver
/// builds one pipeline — and thus one policy — per function, so a
/// per-policy cache would never see the cross-function repeats the
/// ROADMAP's result-cache item targets). Exact-keyed on the full
/// instance plus every decision-relevant config knob, so sharing never
/// changes an output byte.
pub fn portfolio_cache() -> &'static ResultCache<PortfolioOutcome> {
    static CACHE: OnceLock<ResultCache<PortfolioOutcome>> = OnceLock::new();
    CACHE.get_or_init(|| ResultCache::new(PORTFOLIO_CACHE_CAPACITY))
}

/// Where a [`PortfolioOutcome`]'s final allocation came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortfolioSource {
    /// The cheap tier's result was kept (no escalation, an exhausted
    /// budget, or an exact result that was no better).
    Cheap,
    /// The exact tier found a strictly cheaper allocation.
    Exact,
}

/// The full decision record of one [`Portfolio::decide`] call — what
/// the cheap tier cost, whether the policy escalated, and whether the
/// exact solver finished inside the budget.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The allocation the policy settled on.
    pub allocation: Allocation,
    /// Spill cost of the cheap tier's allocation.
    pub cheap_cost: lra_graph::Cost,
    /// `true` if the exact tier was attempted.
    pub escalated: bool,
    /// `true` if the exact tier ran to completion within the budget —
    /// the final allocation is then a certified optimum (whether or
    /// not it beat the cheap one).
    pub certified: bool,
    /// Which tier produced [`PortfolioOutcome::allocation`].
    pub source: PortfolioSource,
}

/// The two-tier budget-bounded allocator. See the [module docs](self).
pub struct Portfolio {
    cfg: PortfolioConfig,
    cheap_spec: &'static AllocatorSpec,
    cheap: Box<dyn Allocator>,
    fallback: LayeredHeuristic,
    exact: Optimal,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field("cfg", &self.cfg)
            .field("cheap", &self.cheap_spec.name)
            .finish()
    }
}

impl Portfolio {
    /// Builds the policy, resolving the cheap tier from the registry.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::UnknownAllocator`] if
    /// [`PortfolioConfig::cheap`] names no registered allocator.
    pub fn new(cfg: PortfolioConfig) -> Result<Self, PipelineError> {
        let cheap_spec = AllocatorRegistry::spec(&cfg.cheap)
            .ok_or_else(|| PipelineError::UnknownAllocator(cfg.cheap.clone()))?;
        Ok(Portfolio {
            cheap: cheap_spec.build(),
            cheap_spec,
            fallback: LayeredHeuristic::new(),
            exact: Optimal::new(),
            cfg,
        })
    }

    /// The policy's configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.cfg
    }

    /// The cheap tier for `instance`: the configured allocator when
    /// its structural requirements hold, `LH` otherwise.
    fn cheap_for(&self, instance: &Instance) -> &dyn Allocator {
        if self.cheap_falls_back(instance) {
            &self.fallback
        } else {
            self.cheap.as_ref()
        }
    }

    /// `true` when the configured cheap tier cannot run on `instance`
    /// and [`Portfolio::cheap_for`] substitutes `LH`.
    fn cheap_falls_back(&self, instance: &Instance) -> bool {
        (self.cheap_spec.needs_chordal && !instance.is_chordal())
            || (self.cheap_spec.needs_intervals && instance.intervals().is_none())
    }

    /// Runs the full policy and returns the decision record; see the
    /// [module docs](self) for the escalation rule. With
    /// [`PortfolioConfig::cache`] set, an instance already decided
    /// anywhere in the process under the same configuration returns
    /// its memoized (bit-identical) outcome without running either
    /// tier.
    pub fn decide(&self, instance: &Instance, r: u32) -> PortfolioOutcome {
        // A wall-clock budget makes the decision timing-dependent;
        // memoizing it would freeze one machine-speed-dependent
        // outcome for the whole process, so those queries always
        // re-solve (they are already outside the determinism
        // contract, but the cache must never *change* behaviour).
        if !self.cfg.cache || self.cfg.time_budget.is_some() {
            return self.decide_uncached(instance, r);
        }
        // The key must carry the fuel the escalation would actually
        // run under: with adaptive budgets that is the size-scaled
        // fuel, which differs per instance (and from the unused
        // `node_budget` field).
        let key = InstanceKey::new(
            instance,
            r,
            self.cheap_spec.name,
            self.cfg.effective_node_budget(instance.vertex_count()),
            self.cfg.time_budget,
            self.cfg.split_remat,
        );
        if let Some(hit) = portfolio_cache().get(&key) {
            return hit;
        }
        let outcome = self.decide_uncached(instance, r);
        portfolio_cache().insert(key, outcome.clone());
        outcome
    }

    fn decide_uncached(&self, instance: &Instance, r: u32) -> PortfolioOutcome {
        let cheap = self.cheap_for(instance).allocate(instance, r);
        let cheap_cost = cheap.spill_cost;
        let fuel = self.cfg.effective_node_budget(instance.vertex_count());
        let escalate = cheap_cost > 0 && fuel > 0 && self.cfg.time_budget != Some(Duration::ZERO);
        if !escalate {
            return PortfolioOutcome {
                allocation: cheap,
                cheap_cost,
                escalated: false,
                certified: false,
                source: PortfolioSource::Cheap,
            };
        }
        // An LH cheap tier already computed the exact tier's LH
        // incumbent; hand it over instead of recomputing it.
        let lh_seed =
            (self.cheap_spec.name == "LH" || self.cheap_falls_back(instance)).then_some(&cheap);
        let budget = SolveBudget::nodes(fuel).with_time(self.cfg.time_budget);
        let mut spent = 0;
        let exact = self
            .exact
            .try_allocate_metered(instance, r, &budget, lh_seed, &mut spent);
        // The fuel *consumed*: an exhausted search used its whole grant.
        crate::trace::add_fuel(spent.min(fuel));
        match exact {
            Some(exact) if exact.spill_cost < cheap_cost => PortfolioOutcome {
                allocation: exact,
                cheap_cost,
                escalated: true,
                certified: true,
                source: PortfolioSource::Exact,
            },
            Some(_) => PortfolioOutcome {
                // The exact solver certified that the cheap result is
                // already optimal (or tied); keep the cheap allocation
                // so the outcome is independent of solver tie-breaks.
                allocation: cheap,
                cheap_cost,
                escalated: true,
                certified: true,
                source: PortfolioSource::Cheap,
            },
            None => PortfolioOutcome {
                allocation: cheap,
                cheap_cost,
                escalated: true,
                certified: false,
                source: PortfolioSource::Cheap,
            },
        }
    }
}

impl Allocator for Portfolio {
    fn name(&self) -> &'static str {
        "Portfolio"
    }

    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        self.decide(instance, r).allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::{Graph, WeightedGraph};

    fn c5() -> Instance {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        Instance::from_weighted_graph(WeightedGraph::new(g, vec![5, 4, 3, 2, 1]))
    }

    #[test]
    fn unknown_cheap_allocator_is_an_error() {
        let err = Portfolio::new(PortfolioConfig::default().cheap("XXL")).unwrap_err();
        assert!(matches!(err, PipelineError::UnknownAllocator(_)));
    }

    #[test]
    fn escalation_certifies_the_optimum_within_budget() {
        let p = Portfolio::new(PortfolioConfig::default()).unwrap();
        let out = p.decide(&c5(), 2);
        assert!(out.escalated);
        assert!(out.certified);
        assert_eq!(out.allocation.spill_cost, 1);
        assert!(out.allocation.spill_cost <= out.cheap_cost);
    }

    #[test]
    fn zero_node_budget_degrades_to_the_cheap_tier() {
        let cheap_only = Portfolio::new(PortfolioConfig::default().node_budget(0)).unwrap();
        let out = cheap_only.decide(&c5(), 2);
        assert!(!out.escalated);
        assert_eq!(out.source, PortfolioSource::Cheap);
        // Byte-equal to running the cheap allocator directly.
        let direct = LayeredHeuristic::new().allocate(&c5(), 2);
        assert_eq!(out.allocation, direct);
    }

    #[test]
    fn expired_time_budget_degrades_to_the_cheap_tier() {
        let p =
            Portfolio::new(PortfolioConfig::default().time_budget(Some(Duration::ZERO))).unwrap();
        let out = p.decide(&c5(), 2);
        assert!(!out.escalated);
        let direct = LayeredHeuristic::new().allocate(&c5(), 2);
        assert_eq!(out.allocation, direct);
    }

    #[test]
    fn tiny_fuel_keeps_the_cheap_result_without_erroring() {
        let p = Portfolio::new(PortfolioConfig::default().node_budget(1)).unwrap();
        let out = p.decide(&c5(), 2);
        assert!(out.escalated);
        assert!(!out.certified);
        assert_eq!(out.source, PortfolioSource::Cheap);
    }

    #[test]
    fn zero_spill_cheap_result_never_escalates() {
        // Edgeless graph: the cheap tier allocates everything.
        let inst = Instance::from_weighted_graph(WeightedGraph::new(Graph::empty(4), vec![1; 4]));
        let p = Portfolio::new(PortfolioConfig::default()).unwrap();
        let out = p.decide(&inst, 1);
        assert!(!out.escalated);
        assert_eq!(out.allocation.spill_cost, 0);
    }

    #[test]
    fn chordal_only_cheap_tier_falls_back_on_general_graphs() {
        // BFPL needs a PEO; on the non-chordal C5 the policy must
        // substitute LH rather than panic.
        let p = Portfolio::new(PortfolioConfig::default().cheap("BFPL")).unwrap();
        let out = p.decide(&c5(), 2);
        assert!(out.allocation.spill_cost <= out.cheap_cost);
    }

    #[test]
    fn exact_tier_wins_when_the_cheap_tier_is_suboptimal() {
        use lra_graph::generate;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        // Deterministic scan of small random general graphs for ones
        // where LH leaves cost on the table (the paper's Figure 14
        // guarantees they exist); the exact tier must take those.
        let p = Portfolio::new(PortfolioConfig::default().node_budget(1_000_000)).unwrap();
        let mut wins = 0;
        for seed in 0..100u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generate::random_general(&mut rng, 12, 30);
            let w = generate::random_weights(&mut rng, 12, 2);
            let inst = Instance::from_weighted_graph(lra_graph::WeightedGraph::new(g, w));
            let out = p.decide(&inst, 2);
            assert!(out.allocation.spill_cost <= out.cheap_cost);
            if out.source == PortfolioSource::Exact {
                assert!(out.certified);
                assert!(out.allocation.spill_cost < out.cheap_cost);
                wins += 1;
            }
        }
        assert!(
            wins > 0,
            "no instance where the exact tier beat LH in 100 draws"
        );
    }

    fn outcomes_equal(a: &PortfolioOutcome, b: &PortfolioOutcome) -> bool {
        a.allocation == b.allocation
            && a.cheap_cost == b.cheap_cost
            && a.escalated == b.escalated
            && a.certified == b.certified
            && a.source == b.source
    }

    #[test]
    fn cached_decisions_are_byte_identical_to_fresh_ones() {
        // Unusual weights so no other test shares this cache entry.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst =
            Instance::from_weighted_graph(WeightedGraph::new(g, vec![7001, 7002, 7003, 7004, 1]));
        let cached = Portfolio::new(PortfolioConfig::default()).unwrap();
        let uncached = Portfolio::new(PortfolioConfig::default().cache(false)).unwrap();
        let first = cached.decide(&inst, 2);
        let second = cached.decide(&inst, 2); // memo hit
        let reference = uncached.decide(&inst, 2); // never touches the cache
        assert!(outcomes_equal(&first, &second));
        assert!(outcomes_equal(&first, &reference));
        assert!(!portfolio_cache().is_empty());
    }

    #[test]
    fn cache_hits_skip_resolving_repeated_instances() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mk = || Instance::from_weighted_graph(WeightedGraph::new(g.clone(), vec![9901; 4]));
        let p = Portfolio::new(PortfolioConfig::default()).unwrap();
        let _ = p.decide(&mk(), 1);
        let h0 = portfolio_cache().stats().hits;
        // Two independently built but identical instances: both must
        // hit the entry the first decide created.
        let _ = p.decide(&mk(), 1);
        let _ = p.decide(&mk(), 1);
        let h1 = portfolio_cache().stats().hits;
        assert!(h1 >= h0 + 2, "expected 2 more hits ({h0} -> {h1})");
    }

    #[test]
    fn time_budgeted_decisions_are_never_memoized() {
        use crate::cache::InstanceKey;
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst =
            Instance::from_weighted_graph(WeightedGraph::new(g, vec![6601, 6602, 6603, 6604, 1]));
        let cfg = PortfolioConfig::default().time_budget(Some(Duration::from_secs(1000)));
        let p = Portfolio::new(cfg.clone()).unwrap();
        let out = p.decide(&inst, 2);
        assert!(out.escalated);
        let key = InstanceKey::new(
            &inst,
            2,
            "LH",
            cfg.effective_node_budget(inst.vertex_count()),
            cfg.time_budget,
            cfg.split_remat,
        );
        assert!(
            portfolio_cache().get(&key).is_none(),
            "timing-dependent outcome must not be cached"
        );
    }

    #[test]
    fn different_budgets_never_share_cache_entries() {
        // Same instance, tiny vs default fuel: the tiny-fuel decision
        // (uncertified) must not be served to the default-fuel policy.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mk = || {
            Instance::from_weighted_graph(WeightedGraph::new(
                g.clone(),
                vec![8101, 8102, 8103, 8104, 1],
            ))
        };
        let tiny = Portfolio::new(PortfolioConfig::default().node_budget(1)).unwrap();
        let full = Portfolio::new(PortfolioConfig::default()).unwrap();
        let t = tiny.decide(&mk(), 2);
        let f = full.decide(&mk(), 2);
        assert!(!t.certified);
        assert!(f.certified);
        assert_eq!(f.allocation.spill_cost, 1);
    }

    #[test]
    fn default_config_is_adaptive_and_explicit_fuel_is_not() {
        let adaptive = PortfolioConfig::default();
        assert!(adaptive.adaptive);
        assert_eq!(adaptive.effective_node_budget(5), scaled_node_fuel(5));
        assert_eq!(adaptive.effective_node_budget(300), scaled_node_fuel(300));
        let pinned = PortfolioConfig::default().node_budget(12_345);
        assert!(!pinned.adaptive, "an explicit fuel pins the budget");
        assert_eq!(pinned.effective_node_budget(5), 12_345);
        assert_eq!(pinned.effective_node_budget(300), 12_345);
        let back_on = pinned.adaptive_budget(true);
        assert_eq!(back_on.effective_node_budget(300), scaled_node_fuel(300));
    }

    #[test]
    fn adaptive_decisions_match_the_equivalent_explicit_fuel() {
        // Adaptive fuel is just scaled_node_fuel(n) — a decision under
        // the default adaptive config must be bit-identical to one
        // under that fuel pinned explicitly (caches off so both solve).
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst =
            Instance::from_weighted_graph(WeightedGraph::new(g, vec![4301, 4302, 4303, 4304, 1]));
        let adaptive = Portfolio::new(PortfolioConfig::default().cache(false)).unwrap();
        let pinned = Portfolio::new(
            PortfolioConfig::default()
                .node_budget(scaled_node_fuel(inst.vertex_count()))
                .cache(false),
        )
        .unwrap();
        let a = adaptive.decide(&inst, 2);
        let b = pinned.decide(&inst, 2);
        assert!(outcomes_equal(&a, &b));
        assert!(a.escalated && a.certified);
    }

    #[test]
    fn traced_fuel_is_what_the_exact_tier_consumed() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst =
            Instance::from_weighted_graph(WeightedGraph::new(g, vec![5101, 5102, 5103, 5104, 1]));
        let mut spent = 0;
        let lh = LayeredHeuristic::new().allocate(&inst, 2);
        let grant = SolveBudget::nodes(100_000);
        Optimal::new().try_allocate_metered(&inst, 2, &grant, Some(&lh), &mut spent);
        assert!(
            spent > 0 && spent < 100_000,
            "C5 certifies well inside the grant"
        );

        let _on = crate::trace::arm();
        for (fuel, expect) in [(100_000, spent), (3, 3)] {
            let p =
                Portfolio::new(PortfolioConfig::default().node_budget(fuel).cache(false)).unwrap();
            crate::trace::begin(false);
            let out = p.decide(&inst, 2);
            let trace = crate::trace::take().expect("collection was active");
            assert!(out.escalated);
            // An exhausted search is charged its whole grant, not the
            // node that tripped it.
            assert_eq!(trace.fuel, expect, "fuel {fuel}");
        }
    }

    #[test]
    fn portfolio_is_registered() {
        assert!(AllocatorRegistry::get("Portfolio").is_some());
        assert!(AllocatorRegistry::get("portfolio").is_some());
    }
}
