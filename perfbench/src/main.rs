//! The benchmark of the layered register allocation workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch-jit-huge|batch-heuristic|service-mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --spec
//! ```
//!
//! A run prints the host facts, one `name = value unit` line per
//! metric and, as its last line, a JSON object with `correct`,
//! `attempted`, `failed` and the metrics. `--trace 0` measures the
//! end-to-end metrics; `--trace 1` replays the same inputs layer by
//! layer for the per-layer metrics. A wrong output makes the run exit
//! with status 1; bad arguments exit with status 2. `--workload all`
//! runs every workload, each in its own process. `--spec` prints
//! `BENCHMARK.json`.

mod batch;
mod corpus;
mod host;
mod replay;
mod report;
mod service;
mod spec;
mod stats;

use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: lra-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> | --spec";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && spec::workload(&workload).is_none() {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(spec::RUN_SECONDS);
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Runs every workload in a child process of its own, passing its
/// output through.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in spec::WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            failed.push(w.name);
        }
    }
    if failed.is_empty() {
        println!("# all workloads correct");
        ExitCode::SUCCESS
    } else {
        println!("# failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--spec"] {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    // Corpus generation runs on this thread only, so set-up time does
    // not depend on how busy the other core is.
    lra_core::batch::set_default_threads(1);
    println!("# host: {}", host::facts_json());
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let (w, seed, secs) = (args.workload.as_str(), args.seed, args.seconds);
    let outcome = match (w, args.trace) {
        ("service-mixed", false) => service::run(seed, secs),
        ("service-mixed", true) => replay::run_service(seed, secs),
        (_, false) => batch::run(w, seed, secs),
        (_, true) => replay::run_batch(w, seed, secs),
    };
    outcome.print(&spec::reported(args.trace));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn the_run_arguments_parse() {
        let a = args("--workload service-mixed --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("service-mixed", 7, 3, true)
        );
        assert!(args("--workload all --seed 1").is_ok());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload batch-jit-huge").is_err());
        assert!(args("--workload batch-jit-huge --seed x").is_err());
        assert!(args("--workload batch-jit-huge --seed 1 --trace 2").is_err());
        assert!(args("--workload batch-jit-huge --seed 1 --seconds 0").is_err());
        assert!(args("--workload batch-jit-huge --seed").is_err());
    }
}
