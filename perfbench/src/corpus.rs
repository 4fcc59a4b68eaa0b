//! The inputs of each workload and the pipelines they run under.
//!
//! The function corpora are the repository's evaluation corpora at
//! their standard generator seed ([`CORPUS_SEED`], the seed every
//! `BENCH_*.json` baseline is recorded at). The run seed decides the
//! order in which functions are submitted and, for `service-mixed`,
//! where in the stream the hot repeats fall. Spill cost is a
//! deterministic property of a corpus and varies by orders of
//! magnitude between generator seeds (jit-huge's total spans about
//! 14M to 14.7G over seeds 1-8), so regenerating the corpus per run
//! would swamp every bound; permuting a fixed corpus keeps the
//! quality metrics exact and the timing metrics comparable.

use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::InstanceKind;
use lra_core::portfolio::PortfolioConfig;
use lra_ir::Function;
use lra_targets::{Target, TargetKind};

/// Generator seed of the corpora (the `lra-bench` CLI default).
pub const CORPUS_SEED: u64 = 2013;

/// Functions of the service stream drawn as hot repeats.
pub const HOT_FUNCTIONS: usize = 24;

/// Times each hot function repeats in one pass of the service stream,
/// on top of its one appearance among the pool. With the 531-function
/// pool this makes 80% of the stream hot, so the median request falls
/// well inside the cache-hit mode.
pub const HOT_REPEATS: usize = 88;

/// How a configuration allocates each round.
#[derive(Clone)]
pub enum Policy {
    /// One registry allocator, by name.
    Direct(&'static str),
    /// The cheap-then-exact portfolio.
    Portfolio(PortfolioConfig),
}

/// One pipeline configuration, spelled out so the traced run can
/// replay its base loop call by call.
#[derive(Clone)]
pub struct Config {
    pub label: &'static str,
    pub target: Target,
    pub kind: InstanceKind,
    pub registers: u32,
    pub max_rounds: u32,
    pub policy: Policy,
}

impl Config {
    /// The pipeline this configuration describes. Every corpus opts
    /// into the split + remat escalation tier, as the standard batch
    /// experiments do.
    pub fn pipeline(&self) -> AllocationPipeline {
        let base = AllocationPipeline::new(self.target)
            .instance_kind(self.kind)
            .registers(self.registers)
            .max_rounds(self.max_rounds)
            .escalation(true);
        match &self.policy {
            Policy::Direct(name) => base.allocator(*name),
            Policy::Portfolio(cfg) => base.portfolio(cfg.clone()),
        }
    }

    /// `jit-huge/Portfolio/R6`: ARM, precise graphs, 3 rounds.
    pub fn jit_huge() -> Config {
        Config {
            label: "jit-huge/Portfolio/R6",
            target: Target::new(TargetKind::ArmCortexA8),
            kind: InstanceKind::PreciseGraph,
            registers: 6,
            max_rounds: 3,
            policy: Policy::Portfolio(lra_bench::batchrun::standard_portfolio_config()),
        }
    }

    /// The pipeline `lra-bench serve` hosts
    /// (`lra_bench::batchrun::jit_large_pipeline`): as
    /// [`Config::jit_huge`] with 4 rounds.
    pub fn jit_large() -> Config {
        Config {
            label: "jit-large/Portfolio/R6",
            max_rounds: 4,
            ..Config::jit_huge()
        }
    }

    /// `lao-kernels/BFPL/R4`: ARM, interval view, 8 rounds.
    pub fn lao_bfpl() -> Config {
        Config {
            label: "lao-kernels/BFPL/R4",
            target: Target::new(TargetKind::ArmCortexA8),
            kind: InstanceKind::LinearIntervals,
            registers: 4,
            max_rounds: 8,
            policy: Policy::Direct("BFPL"),
        }
    }

    /// `specjvm98/LH/R6`: ARM, precise non-chordal graphs, 8 rounds.
    pub fn jvm98_lh() -> Config {
        Config {
            label: "specjvm98/LH/R6",
            target: Target::new(TargetKind::ArmCortexA8),
            kind: InstanceKind::PreciseGraph,
            registers: 6,
            max_rounds: 8,
            policy: Policy::Direct("LH"),
        }
    }
}

/// One function of a batch corpus, with the index of the
/// configuration it runs under.
pub struct Job {
    pub config: usize,
    pub function: Function,
}

/// A batch workload's inputs: its configurations, their pipelines and
/// the functions in submission order.
pub struct BatchInputs {
    pub configs: Vec<Config>,
    pub pipelines: Vec<AllocationPipeline>,
    pub jobs: Vec<Job>,
}

impl BatchInputs {
    /// Generates the corpus of `workload` and orders it by `seed`.
    pub fn generate(workload: &str, seed: u64) -> BatchInputs {
        let (configs, corpora) = match workload {
            "batch-jit-huge" => (
                vec![Config::jit_huge()],
                vec![lra_bench::suites::jit_huge_functions(CORPUS_SEED)],
            ),
            "batch-heuristic" => (
                vec![Config::lao_bfpl(), Config::jvm98_lh()],
                vec![
                    lra_bench::suites::lao_kernel_functions(CORPUS_SEED),
                    lra_bench::suites::specjvm98_functions(CORPUS_SEED),
                ],
            ),
            other => panic!("{other} is not a batch workload"),
        };
        let mut jobs: Vec<Job> = corpora
            .into_iter()
            .enumerate()
            .flat_map(|(config, fs)| fs.into_iter().map(move |function| Job { config, function }))
            .collect();
        shuffle(&mut jobs, seed);
        BatchInputs {
            pipelines: configs.iter().map(Config::pipeline).collect(),
            configs,
            jobs,
        }
    }
}

/// The service workload's inputs: a pool of distinct functions and a
/// stream of pool indices, one per request.
pub struct ServiceInputs {
    pub config: Config,
    pub pool: Vec<Function>,
    pub stream: Vec<usize>,
}

impl ServiceInputs {
    /// The jit-large and jit-huge methods, each once, plus
    /// [`HOT_REPEATS`] repeats of [`HOT_FUNCTIONS`] functions spread
    /// evenly over the pool, in an order drawn from `seed`.
    pub fn generate(seed: u64) -> ServiceInputs {
        let mut pool = lra_bench::suites::jit_large_functions(CORPUS_SEED);
        pool.extend(lra_bench::suites::jit_huge_functions(CORPUS_SEED));
        let hot = (0..HOT_FUNCTIONS).map(|i| i * pool.len() / HOT_FUNCTIONS);
        let mut stream: Vec<usize> = (0..pool.len()).collect();
        for h in hot {
            stream.extend(std::iter::repeat_n(h, HOT_REPEATS));
        }
        shuffle(&mut stream, seed);
        ServiceInputs {
            config: Config::jit_large(),
            pool,
            stream,
        }
    }
}

/// Fisher-Yates shuffle driven by a SplitMix64 stream from `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        // The modulo bias is negligible for lengths far below 2^64.
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_order() {
        let a = ServiceInputs::generate(7);
        let b = ServiceInputs::generate(7);
        let c = ServiceInputs::generate(8);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
        let mut sa = a.stream.clone();
        let mut sc = c.stream.clone();
        sa.sort_unstable();
        sc.sort_unstable();
        assert_eq!(sa, sc, "seeds only reorder the stream");
    }

    #[test]
    fn the_stream_is_mostly_hot_repeats() {
        let s = ServiceInputs::generate(1);
        assert_eq!(s.pool.len(), 531);
        let hot = HOT_FUNCTIONS * HOT_REPEATS;
        assert_eq!(s.stream.len(), s.pool.len() + hot);
        let share = hot as f64 / s.stream.len() as f64;
        assert!((0.75..0.85).contains(&share), "{share}");
    }

    #[test]
    fn batch_corpora_have_their_standard_sizes() {
        assert_eq!(BatchInputs::generate("batch-jit-huge", 1).jobs.len(), 504);
        assert_eq!(BatchInputs::generate("batch-heuristic", 1).jobs.len(), 78);
    }

    #[test]
    fn configurations_match_the_repository_pipelines() {
        assert_eq!(
            format!("{:?}", Config::jit_large().pipeline()),
            format!("{:?}", lra_bench::batchrun::jit_large_pipeline())
        );
        let standard = lra_bench::batchrun::standard_experiments(CORPUS_SEED);
        let ours = [Config::lao_bfpl(), Config::jvm98_lh(), Config::jit_huge()];
        for (exp, cfg) in [(0, &ours[0]), (1, &ours[1]), (3, &ours[2])] {
            assert_eq!(standard[exp].name, cfg.label);
            assert_eq!(
                format!("{:?}", standard[exp].pipeline),
                format!("{:?}", cfg.pipeline())
            );
        }
    }
}
