//! The traced run: per-layer metrics timed from outside the program.
//!
//! For every function the traced pass calls `allocate_item_with` once,
//! then replays the driver's base loop through public calls, timing
//! each: `FunctionAnalysis::compute_in`, `spill_cost::spill_costs`,
//! `build_instance_from_costs_in`, the allocator (or
//! `Portfolio::decide` with the cache off, after timing its cheap tier
//! alone on the same instance), `verify::check`,
//! `rewrite_spill_code_in` and `after_spill_in`. The replay's
//! first-round spill cost must equal the pipeline's
//! `first_round_spill_cost()`. Untraced passes over the same functions
//! alternate with the traced ones, which gives the tracing overhead.
//!
//! `service-mixed` also replays its request stream three ways, each
//! with the same closed-loop callers: direct `allocate_item_with`
//! calls, `AllocationService::submit` then `Ticket::wait`, and the TCP
//! server.

use crate::batch::{item_problem, mismatch};
use crate::corpus::{BatchInputs, Config, Policy};
use crate::report::Outcome;
use crate::service::{self, closed_loop, Ready, CALLERS, WORKERS};
use crate::stats;
use lra_core::batch::{allocate_item_with, ReportRow, WorkerScratch};
use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::build_instance_from_costs_in;
use lra_core::portfolio::{portfolio_cache, Portfolio, PortfolioSource};
use lra_core::registry::AllocatorRegistry;
use lra_core::verify::{self, Feasibility};
use lra_core::Allocator;
use lra_graph::BitSet;
use lra_ir::{spill_code, spill_cost, textio, AnalysisScratch, Function, FunctionAnalysis};
use lra_service::{AllocationService, ServiceConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Busy time and call count of one public entry point.
#[derive(Clone, Copy, Default)]
struct Timer {
    ns: u128,
    calls: u64,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let value = f();
        self.add(t0.elapsed());
        value
    }

    fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos();
        self.calls += 1;
    }

    fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// Everything one traced pass measures.
#[derive(Clone, Copy, Default)]
struct Layers {
    pipeline: Timer,
    analysis: Timer,
    spill_costs: Timer,
    instance: Timer,
    cheap: Timer,
    decide: Timer,
    /// `Portfolio::decide` minus the cheap tier on the same instance.
    exact_ns: i128,
    verify: Timer,
    /// Verdicts the verifier could not decide.
    verify_unknown: u64,
    rewrite: Timer,
    reanalyse: Timer,
    vertices: u64,
    edges: u64,
    escalations: u64,
    certified: u64,
    exact_wins: u64,
    rounds: u64,
    spilled: u64,
    cache_hits: u64,
    cache_lookups: u64,
}

impl Layers {
    /// The work counts, which every pass over the same functions must
    /// repeat exactly.
    fn counts(&self) -> [u64; 18] {
        [
            self.pipeline.calls,
            self.analysis.calls,
            self.spill_costs.calls,
            self.instance.calls,
            self.cheap.calls,
            self.decide.calls,
            self.verify.calls,
            self.verify_unknown,
            self.rewrite.calls,
            self.reanalyse.calls,
            self.vertices,
            self.edges,
            self.escalations,
            self.certified,
            self.exact_wins,
            self.rounds,
            self.spilled,
            self.cache_lookups,
        ]
    }

    fn exact_ms(&self) -> f64 {
        self.exact_ns as f64 / 1e6
    }

    /// Replay time attributed to a layer; `cheap + exact` is the whole
    /// decision under the portfolio.
    fn covered_ms(&self) -> f64 {
        [
            self.analysis,
            self.spill_costs,
            self.instance,
            self.cheap,
            self.verify,
            self.rewrite,
            self.reanalyse,
        ]
        .iter()
        .map(Timer::ms)
        .sum::<f64>()
            + self.exact_ms()
    }
}

/// The allocation step of the replay.
enum Allocate {
    Direct(Box<dyn Allocator>),
    Portfolio {
        cheap: Box<dyn Allocator>,
        policy: Portfolio,
    },
}

impl Allocate {
    fn new(cfg: &Config) -> Allocate {
        match &cfg.policy {
            Policy::Direct(name) => {
                Allocate::Direct(AllocatorRegistry::get(name).expect("registered allocator"))
            }
            Policy::Portfolio(pc) => Allocate::Portfolio {
                cheap: AllocatorRegistry::get(&pc.cheap).expect("registered cheap tier"),
                policy: Portfolio::new(pc.clone().cache(false)).expect("valid portfolio"),
            },
        }
    }
}

/// Replays the driver's base loop on `f`, adding each call's time to
/// `layers`, and returns the first round's spill cost.
fn replay(
    cfg: &Config,
    alloc: &Allocate,
    f: &Function,
    scratch: &mut AnalysisScratch,
    layers: &mut Layers,
) -> Result<u64, String> {
    let r = cfg.registers;
    let mut analysis = layers
        .analysis
        .time(|| FunctionAnalysis::compute_in(f, scratch));
    let mut prev_max_live = analysis.liveness.max_live;
    let mut func = f.clone();
    let mut first_round_cost = None;
    for round in 1.. {
        let costs = layers.spill_costs.time(|| {
            spill_cost::spill_costs(&func, &analysis.liveness, &analysis.loops, &cfg.target)
        });
        let inst = layers
            .instance
            .time(|| build_instance_from_costs_in(&func, &analysis, cfg.kind, scratch, costs));
        layers.vertices += inst.vertex_count() as u64;
        layers.edges += inst.graph().edge_count() as u64;
        let allocation = match alloc {
            Allocate::Direct(a) => layers.cheap.time(|| a.allocate(&inst, r)),
            Allocate::Portfolio { cheap, policy } => {
                let t0 = Instant::now();
                black_box(cheap.allocate(&inst, r));
                let cheap_time = t0.elapsed();
                let t1 = Instant::now();
                let outcome = policy.decide(&inst, r);
                let decide_time = t1.elapsed();
                layers.cheap.add(cheap_time);
                layers.decide.add(decide_time);
                layers.exact_ns += decide_time.as_nanos() as i128 - cheap_time.as_nanos() as i128;
                layers.escalations += outcome.escalated as u64;
                layers.certified += outcome.certified as u64;
                layers.exact_wins += (outcome.source == PortfolioSource::Exact) as u64;
                outcome.allocation
            }
        };
        match layers.verify.time(|| verify::check(&inst, &allocation, r)) {
            Feasibility::Infeasible(why) => {
                return Err(format!("{}: round {round} infeasible: {why}", f.name))
            }
            Feasibility::Unknown => layers.verify_unknown += 1,
            Feasibility::Feasible(_) => {}
        }
        first_round_cost.get_or_insert(allocation.spill_cost);
        let spilled = BitSet::from_iter_with_capacity(
            func.value_count as usize,
            allocation.spilled_set(&inst).iter(),
        );
        if spilled.is_empty() {
            break;
        }
        let rewrite = layers
            .rewrite
            .time(|| spill_code::rewrite_spill_code_in(&func, &spilled, scratch));
        analysis = layers
            .reanalyse
            .time(|| analysis.after_spill_in(&rewrite.function, &rewrite.delta, scratch));
        func = rewrite.function;
        // The driver's exits: out of rounds, or spilling stopped
        // lowering MaxLive.
        let max_live = analysis.liveness.max_live;
        let stuck = max_live >= prev_max_live;
        prev_max_live = max_live;
        if round >= cfg.max_rounds || stuck {
            break;
        }
    }
    Ok(first_round_cost.expect("at least one round"))
}

/// The functions a traced pass covers, each with its configuration.
struct Corpus<'a> {
    configs: &'a [Config],
    pipelines: &'a [AllocationPipeline],
    jobs: Vec<(usize, &'a Function)>,
}

/// One untraced pass: `allocate_item_with` on every function, cache
/// cleared first. Returns the summed call time in ms.
fn untraced_pass(corpus: &Corpus, scratch: &mut WorkerScratch) -> f64 {
    portfolio_cache().clear();
    let mut timer = Timer::default();
    for &(c, f) in &corpus.jobs {
        black_box(timer.time(|| allocate_item_with(&corpus.pipelines[c], f, scratch)));
    }
    timer.ms()
}

/// One traced pass over `corpus`, cache cleared first.
fn traced_pass(
    corpus: &Corpus,
    allocs: &[Allocate],
    scratch: &mut WorkerScratch,
    out: &mut Outcome,
) -> Layers {
    portfolio_cache().clear();
    let before = portfolio_cache().stats();
    let mut layers = Layers::default();
    for &(c, f) in &corpus.jobs {
        let item = layers
            .pipeline
            .time(|| allocate_item_with(&corpus.pipelines[c], f, scratch));
        let problem = match (item_problem(&item), item.report()) {
            (None, Some(report)) => {
                layers.rounds += report.rounds as u64;
                layers.spilled += report.spilled_count() as u64;
                match replay(
                    &corpus.configs[c],
                    &allocs[c],
                    f,
                    &mut scratch.analysis,
                    &mut layers,
                ) {
                    Err(e) => Some(e),
                    Ok(cost) if cost != report.first_round_spill_cost() => Some(format!(
                        "{}: replayed first-round spill cost {cost}, pipeline {}",
                        f.name,
                        report.first_round_spill_cost()
                    )),
                    Ok(_) => None,
                }
            }
            (problem, _) => problem,
        };
        out.check(problem);
    }
    let delta = portfolio_cache().stats().since(&before);
    layers.cache_hits = delta.hits;
    layers.cache_lookups = delta.hits + delta.misses;
    layers
}

/// Alternates untraced and traced passes until `budget` is spent (at
/// least one of each), then sets every `core.*` metric except the
/// cache's, every `ir.*` metric except textio's and the `trace.*`
/// metrics from the medians. Returns the first traced pass.
fn layer_passes(corpus: &Corpus, budget: Duration, started: Instant, out: &mut Outcome) -> Layers {
    let allocs: Vec<Allocate> = corpus.configs.iter().map(Allocate::new).collect();
    let mut scratch = WorkerScratch::new();
    let mut untraced = Vec::new();
    let mut passes: Vec<Layers> = Vec::new();
    while passes.is_empty() || started.elapsed() < budget {
        untraced.push(untraced_pass(corpus, &mut scratch));
        let layers = traced_pass(corpus, &allocs, &mut scratch, out);
        if let Some(first) = passes.first() {
            if first.counts() != layers.counts() {
                out.error(format!(
                    "traced pass {} did different work than the first",
                    passes.len() + 1
                ));
            }
        }
        passes.push(layers);
    }
    let med = |f: &dyn Fn(&Layers) -> f64| stats::median(&passes.iter().map(f).collect::<Vec<_>>());
    let l = passes[0];
    let pipeline_ms = med(&|p| p.pipeline.ms());
    let untraced_ms = stats::median(&untraced);
    out.note(format!(
        "{} functions per traced pass, {} traced and {} untraced passes; layer times are medians over passes",
        corpus.jobs.len(),
        passes.len(),
        untraced.len()
    ));
    out.note(format!(
        "tracing overhead: traced core.pipeline_ms {pipeline_ms:.3} against untraced {untraced_ms:.3} for the same functions ({:+.2}%)",
        (pipeline_ms / untraced_ms - 1.0) * 100.0
    ));
    out.set("core.pipeline_ms", pipeline_ms);
    out.set("core.pipeline_calls", l.pipeline.calls as f64);
    out.set(
        "core.unattributed_share",
        med(&|p| 1.0 - p.covered_ms() / p.pipeline.ms()),
    );
    out.set("core.instance_ms", med(&|p| p.instance.ms()));
    out.set("core.instance_calls", l.instance.calls as f64);
    out.set("core.instance_vertices", l.vertices as f64);
    out.set("core.instance_edges", l.edges as f64);
    out.set("core.cheap_ms", med(&|p| p.cheap.ms()));
    out.set("core.cheap_calls", l.cheap.calls as f64);
    out.set("core.exact_ms", med(&|p| p.exact_ms()));
    out.set("core.exact_calls", l.decide.calls as f64);
    out.set("core.escalations", l.escalations as f64);
    out.set("core.certified", l.certified as f64);
    out.set("core.exact_wins", l.exact_wins as f64);
    out.set("core.exact_win_ratio", ratio(l.exact_wins, l.escalations));
    out.set("core.verify_ms", med(&|p| p.verify.ms()));
    out.set("core.verify_calls", l.verify.calls as f64);
    out.set("core.verify_unknown", l.verify_unknown as f64);
    out.set("core.rounds", l.rounds as f64);
    out.set("core.spilled_values", l.spilled as f64);
    out.set("ir.analysis_ms", med(&|p| p.analysis.ms()));
    out.set("ir.analysis_calls", l.analysis.calls as f64);
    out.set("ir.reanalyse_ms", med(&|p| p.reanalyse.ms()));
    out.set("ir.reanalyse_calls", l.reanalyse.calls as f64);
    out.set("ir.spill_costs_ms", med(&|p| p.spill_costs.ms()));
    out.set("ir.spill_costs_calls", l.spill_costs.calls as f64);
    out.set("ir.rewrite_ms", med(&|p| p.rewrite.ms()));
    out.set("ir.rewrite_calls", l.rewrite.calls as f64);
    out.set("trace.untraced_pipeline_ms", untraced_ms);
    out.set("trace.overhead_share", pipeline_ms / untraced_ms - 1.0);
    l
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Sets the service metrics a workload without a service reports as 0.
fn no_service(out: &mut Outcome) {
    for name in [
        "ir.textio_print_ms",
        "ir.textio_print_calls",
        "ir.textio_parse_ms",
        "ir.textio_parse_calls",
        "service.direct_p50_ms",
        "service.inproc_p50_ms",
        "service.tcp_p50_ms",
        "service.replay_requests",
        "service.queue_overhead_ms",
        "service.wire_overhead_ms",
        "service.proto_ms",
        "service.proto_calls",
        "service.queue_high_water",
    ] {
        out.set(name, 0.0);
    }
}

pub fn run_batch(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = BatchInputs::generate(workload, seed);
    let started = Instant::now();
    let corpus = Corpus {
        configs: &inputs.configs,
        pipelines: &inputs.pipelines,
        jobs: inputs
            .jobs
            .iter()
            .map(|j| (j.config, &j.function))
            .collect(),
    };
    let first = layer_passes(&corpus, Duration::from_secs(seconds), started, &mut out);
    out.set(
        "core.cache_hit_ratio",
        ratio(first.cache_hits, first.cache_lookups),
    );
    out.set("core.cache_lookups", first.cache_lookups as f64);
    no_service(&mut out);
    out
}

pub fn run_service(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let mut ready = match Ready::start(seed) {
        Ok(ready) => ready,
        Err(e) => {
            out.error(format!("service set-up failed: {e}"));
            return out;
        }
    };
    let len = ready.inputs.stream.len();

    // textio: print every pool function once, parse every request's
    // text, as the set-up and the server do.
    let mut print = Timer::default();
    for (f, text) in ready.inputs.pool.iter().zip(&ready.texts) {
        if print.time(|| textio::print(f)) != *text {
            out.error(format!("{}: printing is not deterministic", f.name));
        }
    }
    let mut parse = Timer::default();
    for &i in &ready.inputs.stream {
        let problem = match parse.time(|| textio::parse(&ready.texts[i])) {
            Err(e) => Some(format!(
                "{}: text does not parse: {e:?}",
                ready.inputs.pool[i].name
            )),
            Ok(f) if textio::print(&f) != ready.texts[i] => Some(format!(
                "{}: text does not round-trip",
                ready.inputs.pool[i].name
            )),
            Ok(_) => None,
        };
        out.check(problem);
    }
    out.set("ir.textio_print_ms", print.ms());
    out.set("ir.textio_print_calls", print.calls as f64);
    out.set("ir.textio_parse_ms", parse.ms());
    out.set("ir.textio_parse_calls", parse.calls as f64);

    let reference = service::reference_rows(&ready.inputs, &mut out);
    let (pool, stream) = (&ready.inputs.pool, &ready.inputs.stream);
    let pipeline = ready.inputs.config.pipeline();
    let p50 = |samples: Vec<f64>| stats::percentile(&stats::sorted(samples), 5000);

    // 1. Direct calls.
    let mut scratches: Vec<WorkerScratch> = (0..CALLERS).map(|_| WorkerScratch::new()).collect();
    portfolio_cache().clear();
    let direct = closed_loop(&mut scratches, len, |scratch, i| {
        let t0 = Instant::now();
        let item = allocate_item_with(&pipeline, &pool[stream[i]], scratch);
        (t0.elapsed(), item.row())
    });

    // 2. In-process service: submit, then wait on the ticket.
    let svc = AllocationService::start(ServiceConfig::new(pipeline.clone()).workers(WORKERS));
    portfolio_cache().clear();
    let inproc = closed_loop(&mut [(); CALLERS], len, |_, i| {
        let f = pool[stream[i]].clone();
        let t0 = Instant::now();
        let row = match svc.submit(f) {
            Ok(ticket) => ticket.wait().row(),
            Err(_) => ReportRow {
                function: pool[stream[i]].name.clone(),
                outcome: Err("rejected".into()),
            },
        };
        (t0.elapsed(), row)
    });
    let inproc_metrics = svc.shutdown();
    for ((_, row), &i) in direct.iter().chain(&inproc).zip(stream.iter().cycle()) {
        out.check(mismatch(row, &reference[i]));
    }

    // 3. The TCP server, as in the untraced run.
    let before = portfolio_cache().stats();
    let (_, answers) = service::stream_pass(&mut ready, 0);
    let cache = portfolio_cache().stats().since(&before);
    let mut proto_time = Timer::default();
    for (i, answer) in answers.iter().enumerate() {
        proto_time.add(answer.proto);
        out.check(service::answer_problem(
            i as u64,
            answer,
            &reference[ready.inputs.stream[i]],
        ));
    }
    let tcp_metrics = ready.server.metrics();

    let direct_p50 = p50(direct.iter().map(|(d, _)| stats::ms(*d)).collect());
    let inproc_p50 = p50(inproc.iter().map(|(d, _)| stats::ms(*d)).collect());
    let tcp_p50 = p50(answers.iter().map(|a| stats::ms(a.elapsed)).collect());
    out.note(format!(
        "stream replays: {len} requests each over {CALLERS} callers; p50 direct {direct_p50:.4} ms, in-process {inproc_p50:.4} ms, tcp {tcp_p50:.4} ms"
    ));
    out.set("service.direct_p50_ms", direct_p50);
    out.set("service.inproc_p50_ms", inproc_p50);
    out.set("service.tcp_p50_ms", tcp_p50);
    out.set("service.replay_requests", len as f64);
    out.set("service.queue_overhead_ms", inproc_p50 - direct_p50);
    out.set("service.wire_overhead_ms", tcp_p50 - inproc_p50);
    out.set("service.proto_ms", proto_time.ms());
    out.set("service.proto_calls", proto_time.calls as f64);
    out.set(
        "service.queue_high_water",
        inproc_metrics
            .queue_high_water
            .max(tcp_metrics.queue_high_water) as f64,
    );
    out.set(
        "core.cache_hit_ratio",
        ratio(cache.hits, cache.hits + cache.misses),
    );
    out.set("core.cache_lookups", (cache.hits + cache.misses) as f64);

    // Layers, over the distinct functions of the stream.
    let configs = [ready.inputs.config.clone()];
    let pipelines = [pipeline];
    let corpus = Corpus {
        configs: &configs,
        pipelines: &pipelines,
        jobs: ready.inputs.pool.iter().map(|f| (0, f)).collect(),
    };
    layer_passes(&corpus, Duration::from_secs(seconds), started, &mut out);
    out
}
