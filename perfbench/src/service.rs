//! The `service-mixed` workload, untraced: an in-process
//! `lra_service::serve` on loopback driven by closed-loop callers,
//! each with one request outstanding on its own connection.

use crate::batch::{item_problem, totals, unverified_note, verified, SETUPS};
use crate::corpus::ServiceInputs;
use crate::report::Outcome;
use crate::stats::{self, Setups, Timing};
use lra_core::batch::{allocate_item_with, ReportRow, WorkerScratch};
use lra_core::portfolio::portfolio_cache;
use lra_ir::textio;
use lra_service::proto::{self, Response};
use lra_service::{serve, Server, ServiceConfig};
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Server worker threads.
pub const WORKERS: usize = 2;

/// Closed-loop callers, each on its own connection.
pub const CALLERS: usize = 2;

/// One client connection speaking the JSON-lines protocol.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    /// Sends one newline-terminated request line and returns the
    /// response line without its newline.
    pub fn round_trip(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end_matches('\n'))
    }
}

/// The `alloc` request line for request `id`, newline included.
pub fn request_line(id: u64, text: &str) -> String {
    let mut line = proto::alloc_request(id, text);
    line.push('\n');
    line
}

/// Runs `call(state, i)` for every `i` in `0..len`, one closed-loop
/// caller thread per state, the callers taking indices from one shared
/// cursor. Results come back in index order.
pub fn closed_loop<S: Send, R: Send>(
    states: &mut [S],
    len: usize,
    call: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = (0..len).map(|_| None).collect();
    let per_caller: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = states
            .iter_mut()
            .map(|state| {
                let (cursor, call) = (&cursor, &call);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break done;
                        }
                        done.push((i, call(state, i)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect()
    });
    for (i, r) in per_caller.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index served"))
        .collect()
}

/// The direct `allocate_item_with` row of every pool function: the
/// reference each service response must match byte for byte. Wrong
/// direct results are recorded in `out`.
pub fn reference_rows(inputs: &ServiceInputs, out: &mut Outcome) -> Vec<ReportRow> {
    let pipeline = inputs.config.pipeline();
    let mut scratch = WorkerScratch::new();
    inputs
        .pool
        .iter()
        .map(|f| {
            let item = allocate_item_with(&pipeline, f, &mut scratch);
            if let Some(problem) = item_problem(&item) {
                out.error(format!("direct reference: {problem}"));
            }
            item.row()
        })
        .collect()
}

/// Why an answer is wrong, if it is: the request failed, was
/// rejected, or its response line is not byte-identical to the line
/// the server prints for the direct row `want`.
pub fn answer_problem(id: u64, answer: &Answer, want: &ReportRow) -> Option<String> {
    let (line, parsed) = match &answer.result {
        Err(e) => return Some(e.clone()),
        Ok(ok) => ok,
    };
    let expected = proto::alloc_response(id, want);
    if *line == expected {
        return None;
    }
    Some(match parsed {
        Response::Rejected { reason, .. } => format!("request {id} rejected: {}", reason.as_str()),
        _ => format!("request {id}: got {line} want {expected}"),
    })
}

/// A ready service: the inputs, their printed texts, a bound server
/// and connected callers.
pub struct Ready {
    // Connections close before the server drains.
    pub conns: Vec<Conn>,
    pub server: Server,
    pub texts: Vec<String>,
    pub inputs: ServiceInputs,
}

impl Ready {
    pub fn start(seed: u64) -> io::Result<Ready> {
        let inputs = ServiceInputs::generate(seed);
        let texts = inputs.pool.iter().map(textio::print).collect();
        let cfg = ServiceConfig::new(inputs.config.pipeline()).workers(WORKERS);
        let server = serve("127.0.0.1:0", cfg)?;
        let conns = (0..CALLERS)
            .map(|_| Conn::connect(server.local_addr()))
            .collect::<io::Result<_>>()?;
        Ok(Ready {
            conns,
            server,
            texts,
            inputs,
        })
    }
}

/// One response as a caller saw it.
pub struct Answer {
    /// From building the request to parsing the response.
    pub elapsed: Duration,
    /// The part of `elapsed` spent building the request line and
    /// parsing the response line.
    pub proto: Duration,
    pub result: Result<(String, Response), String>,
}

/// Clears the portfolio cache, then sends every request of the stream
/// once over the ready connections, request `i` carrying id
/// `first_id + i`, timing each from building the request to parsing
/// the response.
pub fn stream_pass(ready: &mut Ready, first_id: u64) -> (Duration, Vec<Answer>) {
    let (stream, texts) = (&ready.inputs.stream, &ready.texts);
    portfolio_cache().clear();
    let started = Instant::now();
    let answers = closed_loop(&mut ready.conns, stream.len(), |conn, i| {
        let id = first_id + i as u64;
        let t0 = Instant::now();
        let request = request_line(id, &texts[stream[i]]);
        let mut proto = t0.elapsed();
        let result = conn
            .round_trip(&request)
            .map_err(|e| format!("request {id}: {e}"))
            .and_then(|line| {
                let t1 = Instant::now();
                let parsed = proto::parse_response(line);
                proto += t1.elapsed();
                Ok((line.to_string(), parsed?))
            });
        Answer {
            elapsed: t0.elapsed(),
            proto,
            result,
        }
    });
    (started.elapsed(), answers)
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let mut ready = match setups.time(|| Ready::start(seed)) {
        Ok(ready) => ready,
        Err(e) => {
            out.error(format!("service set-up failed: {e}"));
            return out;
        }
    };
    let reference = reference_rows(&ready.inputs, &mut out);
    let want: Vec<&ReportRow> = ready.inputs.stream.iter().map(|&i| &reference[i]).collect();
    let (total_cost, converged) = totals(want.iter().copied());
    let len = want.len();

    // Checks a pass's answers; returns its totals and verified rows.
    let check = |out: &mut Outcome, first_id: u64, answers: &[Answer], record: bool| {
        let mut rows = Vec::with_capacity(len);
        for (i, (answer, want)) in answers.iter().zip(&want).enumerate() {
            if let Ok((_, Response::Row { row, .. })) = &answer.result {
                rows.push(row.clone());
            }
            let problem = answer_problem(first_id + i as u64, answer, want);
            if record {
                out.check(problem);
            } else if let Some(problem) = problem {
                out.error(format!("warm-up: {problem}"));
            }
        }
        let ok = rows.iter().filter(|r| verified(r)).count() as u64;
        (totals(&rows), ok)
    };

    // Warm-up pass, untimed and unrecorded except for its errors.
    let mut next_id = 0u64;
    let (_, answers) = stream_pass(&mut ready, next_id);
    check(&mut out, next_id, &answers, false);
    next_id += len as u64;

    let mut samples = Vec::new();
    let mut rates = Vec::new();
    let mut ok = 0;
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    while started.elapsed() < budget || samples.len() < stats::MIN_SAMPLES_FOR_P99 {
        let (wall, answers) = stream_pass(&mut ready, next_id);
        rates.push(len as f64 / wall.as_secs_f64());
        samples.extend(answers.iter().map(|a| stats::ms(a.elapsed)));
        let ((cost, conv), verified_rows) = check(&mut out, next_id, &answers, true);
        ok += verified_rows;
        if (cost, conv) != (total_cost, converged) {
            out.error(format!(
                "pass {}: spill cost {cost} and {conv} converged, direct rows give {total_cost} and {converged}",
                rates.len()
            ));
        }
        next_id += len as u64;
        let done = started.elapsed().as_secs_f64() / budget.as_secs_f64();
        setups.catch_up(done, SETUPS, || Ready::start(seed));
    }
    setups.catch_up(1.0, SETUPS, || Ready::start(seed));
    let served = ready.server.metrics();

    let timing = Timing::of(samples);
    out.note(format!(
        "workload service-mixed ({}): {len} requests per pass over {CALLERS} connections to {WORKERS} workers, {} timed passes",
        ready.inputs.config.label,
        rates.len()
    ));
    out.note(timing.note());
    out.note(stats::spread_note("pass rates (1/s)", &rates));
    out.note(format!(
        "server: {} served, {} rejected, queue high water {}",
        served.served, served.rejected, served.queue_high_water
    ));
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
    out.set("converged_share", converged as f64 / len as f64);
    out.set("ok_share", ok as f64 / out.attempted.max(1) as f64);
    out.set("peak_rss_mib", stats::peak_rss_mib());
    out
}
