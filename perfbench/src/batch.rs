//! The batch workloads, untraced: one worker calls
//! `allocate_item_with` on every function of the corpus, recycling one
//! `WorkerScratch`, pass after pass.
//!
//! What counts as a wrong output, here and in the other runs: a
//! pipeline error, an allocation the verifier proves infeasible, or a
//! row that differs from the reference row of the same function. A
//! row whose verdict is `Unknown` (the verifier could not decide, so
//! the pipeline returned no register assignment) is not wrong, but it
//! is not verified either: it lowers `ok_share` and is named in the
//! output.

use crate::corpus::BatchInputs;
use crate::report::Outcome;
use crate::stats::{self, Setups, Timing};
use lra_core::batch::{allocate_item_with, BatchItem, ReportRow, WorkerScratch};
use lra_core::portfolio::portfolio_cache;
use lra_core::verify::Feasibility;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 21;

/// Why `item` is a wrong output, if it is: a pipeline error or an
/// allocation proven infeasible.
pub fn item_problem(item: &BatchItem) -> Option<String> {
    match &item.outcome {
        Err(e) => Some(format!("{}: {e}", item.function)),
        Ok(report) => match &report.verdict {
            Feasibility::Infeasible(why) => Some(format!("{}: infeasible: {why}", item.function)),
            _ => None,
        },
    }
}

/// Why `row` is not the reference row of its function, if it is not.
pub fn mismatch(row: &ReportRow, reference: &ReportRow) -> Option<String> {
    (row != reference).then(|| format!("{}: row {row:?} differs from {reference:?}", row.function))
}

/// Whether `row` is Ok and verified.
pub fn verified(row: &ReportRow) -> bool {
    matches!(&row.outcome, Ok(stats) if stats.verified)
}

/// Names of the Ok rows the verifier could not decide.
pub fn unverified_note(rows: &[ReportRow]) -> String {
    let names: Vec<&str> = rows
        .iter()
        .filter(|r| r.outcome.is_ok() && !verified(r))
        .map(|r| r.function.as_str())
        .collect();
    format!(
        "{} of {} functions Ok but unverified (verdict Unknown, no register assignment): {}",
        names.len(),
        rows.len(),
        if names.is_empty() {
            "none".to_string()
        } else {
            names.join(", ")
        }
    )
}

/// Total spill cost and converged count of a pass's rows.
pub fn totals<'a>(rows: impl IntoIterator<Item = &'a ReportRow>) -> (u64, u64) {
    rows.into_iter()
        .filter_map(|r| r.outcome.as_ref().ok())
        .fold((0, 0), |(cost, conv), s| {
            (cost + s.spill_cost, conv + s.converged as u64)
        })
}

pub fn run(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let inputs = setups.time(|| BatchInputs::generate(workload, seed));
    let n = inputs.jobs.len();
    let mut scratch = WorkerScratch::new();
    // One pass, cache cleared first: its wall time and each function's
    // row with the reason it is wrong, if it is.
    let mut pass = |samples: &mut Vec<f64>| -> (Duration, Vec<(ReportRow, Option<String>)>) {
        portfolio_cache().clear();
        let started = Instant::now();
        let rows = inputs
            .jobs
            .iter()
            .map(|job| {
                let t0 = Instant::now();
                let item =
                    allocate_item_with(&inputs.pipelines[job.config], &job.function, &mut scratch);
                samples.push(stats::ms(t0.elapsed()));
                (item.row(), item_problem(&item))
            })
            .collect();
        (started.elapsed(), rows)
    };

    // The warm-up pass is untimed; its rows are the reference every
    // timed pass must reproduce exactly.
    let (_, warm_up) = pass(&mut Vec::new());
    let mut reference = Vec::with_capacity(n);
    for (row, problem) in warm_up {
        if let Some(problem) = problem {
            out.error(format!("warm-up: {problem}"));
        }
        reference.push(row);
    }
    let (total_cost, converged) = totals(&reference);

    let mut samples = Vec::new();
    let mut rates = Vec::new();
    let mut ok = 0u64;
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    while started.elapsed() < budget || samples.len() < stats::MIN_SAMPLES_FOR_P99 {
        let (wall, rows) = pass(&mut samples);
        rates.push(n as f64 / wall.as_secs_f64());
        for ((row, problem), want) in rows.iter().zip(&reference) {
            out.check(problem.clone().or_else(|| mismatch(row, want)));
            ok += verified(row) as u64;
        }
        let (cost, conv) = totals(rows.iter().map(|(row, _)| row));
        if (cost, conv) != (total_cost, converged) {
            out.error(format!(
                "pass {}: spill cost {cost} and {conv} converged, first pass {total_cost} and {converged}",
                rates.len()
            ));
        }
        let done = started.elapsed().as_secs_f64() / budget.as_secs_f64();
        setups.catch_up(done, SETUPS, || BatchInputs::generate(workload, seed));
    }
    setups.catch_up(1.0, SETUPS, || BatchInputs::generate(workload, seed));

    let timing = Timing::of(samples);
    let labels: Vec<&str> = inputs.configs.iter().map(|c| c.label).collect();
    out.note(format!(
        "workload {workload} ({}): {n} functions per pass, {} timed passes",
        labels.join(", "),
        rates.len()
    ));
    out.note(timing.note());
    out.note(stats::spread_note("pass rates (1/s)", &rates));
    out.note(unverified_note(&reference));
    out.note(format!(
        "setup_s is the median of {} set-ups spread over the run",
        setups.count()
    ));
    out.set("setup_s", setups.median());
    out.set("functions_per_s", stats::median(&rates));
    out.set("fn_time_p50_ms", timing.p50_ms);
    out.set("fn_time_p99_ms", timing.p99_ms);
    out.set("total_spill_cost", total_cost as f64);
    out.set("converged_share", converged as f64 / n as f64);
    out.set("ok_share", ok as f64 / out.attempted.max(1) as f64);
    out.set("peak_rss_mib", stats::peak_rss_mib());
    out
}
