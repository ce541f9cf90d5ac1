//! loadgen — seeded synthetic traffic against a graphner-serve
//! endpoint, open-loop, with a `BENCH_serve.json` latency trajectory.
//!
//! ```text
//! loadgen [--addr host:port]      # external server; else in-process
//!         [--rps 500] [--requests 1000] [--clients 8]
//!         [--scale 0.02] [--seed 42] [--sentences 1]
//!         [--deadline-ms 2000] [--min-success-rate 0.9]
//!         [--bench-out BENCH_serve.json] [--check BENCH_serve.json]
//! ```
//!
//! Open-loop means request `i` is *scheduled* at `i/rps` seconds after
//! start regardless of how fast responses come back, so server-side
//! queueing shows up as client-observed latency instead of silently
//! slowing the offered load. Request bodies come from the same seeded
//! `corpusgen` profile as the benchmarks — identical seeds, identical
//! traffic, run to run.
//!
//! Exit is nonzero when any request goes *unanswered* (transport
//! failure after one retry), when the 200-rate drops below
//! `--min-success-rate`, when p99 of successful requests reaches
//! `--deadline-ms`, or when `--check` finds a regression against the
//! committed baseline.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use graphner_bench::perf::{self, BenchReport, StageResult, DEFAULT_TOLERANCE, SCHEMA_VERSION};
use graphner_bench::RunOptions;
use graphner_core::{GraphNer, GraphNerConfig, TestSession};
use graphner_corpusgen::{generate, generate_unlabelled, CorpusProfile};
use graphner_obs::Stopwatch;
use graphner_serve::ServerHandle;

struct Args {
    addr: Option<String>,
    rps: f64,
    requests: usize,
    clients: usize,
    scale: f64,
    seed: u64,
    sentences: usize,
    deadline_ms: u64,
    min_success_rate: f64,
    bench_out: Option<String>,
    check: Option<String>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: None,
        rps: 500.0,
        requests: 1000,
        clients: 8,
        scale: 0.02,
        seed: 42,
        sentences: 1,
        deadline_ms: 2000,
        min_success_rate: 0.9,
        bench_out: None,
        check: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                parsed.addr = Some(args.get(i).expect("--addr needs host:port").clone());
            }
            "--rps" => {
                i += 1;
                parsed.rps = args[i].parse().expect("--rps needs a rate");
            }
            "--requests" => {
                i += 1;
                parsed.requests = args[i].parse().expect("--requests needs a count");
            }
            "--clients" => {
                i += 1;
                parsed.clients = args[i].parse().expect("--clients needs a count");
            }
            "--scale" => {
                i += 1;
                parsed.scale = args[i].parse().expect("--scale needs a number");
            }
            "--seed" => {
                i += 1;
                parsed.seed = args[i].parse().expect("--seed needs an integer");
            }
            "--sentences" => {
                i += 1;
                parsed.sentences = args[i].parse().expect("--sentences needs a count");
            }
            "--deadline-ms" => {
                i += 1;
                parsed.deadline_ms = args[i].parse().expect("--deadline-ms needs milliseconds");
            }
            "--min-success-rate" => {
                i += 1;
                parsed.min_success_rate =
                    args[i].parse().expect("--min-success-rate needs a fraction");
            }
            "--bench-out" => {
                i += 1;
                parsed.bench_out = Some(args.get(i).expect("--bench-out needs a path").clone());
            }
            "--check" => {
                i += 1;
                parsed.check = Some(args.get(i).expect("--check needs a path").clone());
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    assert!(parsed.rps > 0.0, "--rps must be positive");
    assert!(parsed.requests > 0, "--requests must be positive");
    assert!(parsed.clients > 0, "--clients must be positive");
    assert!(parsed.sentences > 0, "--sentences must be positive");
    parsed
}

/// One request's outcome.
#[derive(Clone, Copy)]
struct Outcome {
    status: u16,
    latency_seconds: f64,
    answered: bool,
}

/// Read one HTTP response (status + content-length body), returning
/// the status code.
fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<u16> {
    let bad = |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(bad("connection closed before status line"));
    }
    let status: u16 = line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status line"))?;
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            return Err(bad("connection closed mid-headers"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length =
                    value.trim().parse().map_err(|_| bad("unparseable content-length"))?;
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(status)
}

/// POST one body over an existing connection.
fn post_tag(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    body: &str,
) -> std::io::Result<u16> {
    let request = format!(
        "POST /v1/tag HTTP/1.1\r\nHost: loadgen\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    read_response(reader)
}

fn connect(addr: &str) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let reader = BufReader::new(stream.try_clone()?);
    Ok((stream, reader))
}

/// Drive the indices `client, client + clients, …` of the schedule.
fn run_client(
    addr: &str,
    bodies: Arc<Vec<String>>,
    client: usize,
    clients: usize,
    rps: f64,
    clock: Stopwatch,
) -> Vec<(usize, Outcome)> {
    let mut outcomes = Vec::new();
    let mut conn = connect(addr).ok();
    for i in (client..bodies.len()).step_by(clients) {
        // open-loop arrival: request i is due at i/rps seconds
        let due = i as f64 / rps;
        let now = clock.elapsed_seconds();
        if due > now {
            std::thread::sleep(Duration::from_secs_f64(due - now));
        }
        let request_clock = Stopwatch::start();
        let attempt = |conn: &mut Option<(TcpStream, BufReader<TcpStream>)>| {
            if conn.is_none() {
                *conn = connect(addr).ok();
            }
            let (stream, reader) = conn.as_mut()?;
            match post_tag(stream, reader, &bodies[i]) {
                Ok(status) => Some(status),
                Err(_) => {
                    *conn = None;
                    None
                }
            }
        };
        // one retry on a fresh connection before declaring it unanswered
        let status = attempt(&mut conn).or_else(|| attempt(&mut conn));
        let latency_seconds = request_clock.elapsed_seconds();
        outcomes.push((
            i,
            match status {
                Some(status) => Outcome { status, latency_seconds, answered: true },
                None => Outcome { status: 0, latency_seconds, answered: false },
            },
        ));
    }
    outcomes
}

/// Exact quantile of a sorted latency vector.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn latency_stage(name: &str, seconds: f64) -> StageResult {
    StageResult {
        name: name.to_string(),
        median_seconds: seconds,
        peak_alloc_bytes: 0,
        peak_rss_bytes: 0,
        pool_threads: 0,
        pool_jobs: 0,
        pool_chunks: 0,
        pool_chunks_on_workers: 0,
    }
}

/// Train the smoke model and start an in-process server on an
/// ephemeral port.
fn start_in_process(scale: f64, deadline_ms: u64) -> ServerHandle {
    eprintln!("loadgen: no --addr, starting in-process server (scale {scale})");
    let mut cfg = GraphNerConfig::default();
    cfg.serve.deadline_ms = deadline_ms;
    cfg.validate().expect("default serve config with CLI deadline");
    let profile = CorpusProfile::bc2gm().scaled(scale);
    let corpus = generate(&profile);
    let opts = RunOptions { scale, ..RunOptions::default() };
    let (gner, _) = GraphNer::train(&corpus.train, &opts.ner_config(), None, cfg.clone());
    let test = corpus.test.without_tags();
    let mut session = TestSession::new(&gner, &test);
    let tagger = session.tagger(gner.config());
    graphner_serve::start(tagger, cfg.serve, "127.0.0.1:0").expect("bind in-process server")
}

fn main() {
    let args = parse_args();

    let server = match &args.addr {
        Some(_) => None,
        None => Some(start_in_process(args.scale, args.deadline_ms)),
    };
    let addr = match (&args.addr, &server) {
        (Some(addr), _) => addr.clone(),
        (None, Some(handle)) => handle.addr().to_string(),
        (None, None) => unreachable!("in-process server started above"),
    };

    // seeded request bodies: the profile's unlabelled generator, one
    // body per request, tokens joined back into a line per sentence
    let profile = CorpusProfile::bc2gm().scaled(args.scale);
    let pool = generate_unlabelled(&profile, args.requests * args.sentences, args.seed);
    let bodies: Vec<String> = pool
        .sentences
        .chunks(args.sentences)
        .take(args.requests)
        .map(|chunk| {
            let mut body = String::new();
            for sentence in chunk {
                body.push_str(&sentence.tokens.join(" "));
                body.push('\n');
            }
            body
        })
        .collect();
    let bodies = Arc::new(bodies);
    eprintln!(
        "loadgen: {} requests x {} sentence(s) at {} rps over {} client(s) against {addr}",
        args.requests, args.sentences, args.rps, args.clients
    );

    let run_clock = Stopwatch::start();
    let mut threads = Vec::new();
    for client in 0..args.clients {
        let bodies = Arc::clone(&bodies);
        let addr = addr.clone();
        let (clients, rps) = (args.clients, args.rps);
        threads.push(std::thread::spawn(move || {
            run_client(&addr, bodies, client, clients, rps, run_clock)
        }));
    }
    let mut outcomes: Vec<(usize, Outcome)> = Vec::with_capacity(args.requests);
    for thread in threads {
        outcomes.extend(thread.join().expect("client thread"));
    }
    let wall_seconds = run_clock.elapsed_seconds();
    if let Some(handle) = server {
        handle.shutdown();
    }

    let answered = outcomes.iter().filter(|(_, o)| o.answered).count();
    let unanswered = args.requests - answered;
    let mut by_status: Vec<(u16, usize)> = Vec::new();
    for (_, o) in outcomes.iter().filter(|(_, o)| o.answered) {
        match by_status.iter_mut().find(|(s, _)| *s == o.status) {
            Some((_, n)) => *n += 1,
            None => by_status.push((o.status, 1)),
        }
    }
    by_status.sort_unstable();
    let mut ok_latencies: Vec<f64> = outcomes
        .iter()
        .filter(|(_, o)| o.answered && o.status == 200)
        .map(|(_, o)| o.latency_seconds)
        .collect();
    ok_latencies.sort_by(f64::total_cmp);
    let successes = ok_latencies.len();
    let (p50, p95, p99) = (
        quantile(&ok_latencies, 0.50),
        quantile(&ok_latencies, 0.95),
        quantile(&ok_latencies, 0.99),
    );
    let achieved_rps = answered as f64 / wall_seconds;

    println!(
        "loadgen: {answered}/{} answered ({unanswered} unanswered) in {wall_seconds:.2}s \
         = {achieved_rps:.0} rps",
        args.requests
    );
    for (status, n) in &by_status {
        println!("loadgen:   status {status}: {n}");
    }
    println!(
        "loadgen: latency over {successes} successes: p50 {:.2} ms, p95 {:.2} ms, p99 {:.2} ms",
        p50 * 1e3,
        p95 * 1e3,
        p99 * 1e3
    );

    if let Some(path) = &args.bench_out {
        let report = BenchReport {
            schema_version: SCHEMA_VERSION,
            scale: args.scale,
            iters: args.requests as u64,
            stages: vec![
                latency_stage("serve.latency_p50", p50),
                latency_stage("serve.latency_p95", p95),
                latency_stage("serve.latency_p99", p99),
                latency_stage("serve.secs_per_request", wall_seconds / args.requests as f64),
            ],
        };
        std::fs::write(path, report.to_json()).expect("write --bench-out report");
        eprintln!("loadgen: report written to {path}");
    }

    let mut failed = false;
    if unanswered > 0 {
        eprintln!("loadgen: FAIL — {unanswered} request(s) went unanswered");
        failed = true;
    }
    let success_rate = successes as f64 / args.requests as f64;
    if success_rate < args.min_success_rate {
        eprintln!("loadgen: FAIL — success rate {success_rate:.3} below {}", args.min_success_rate);
        failed = true;
    }
    let deadline_seconds = args.deadline_ms as f64 / 1e3;
    if successes > 0 && p99 >= deadline_seconds {
        eprintln!(
            "loadgen: FAIL — p99 {:.1} ms reached the {} ms deadline",
            p99 * 1e3,
            args.deadline_ms
        );
        failed = true;
    }

    if let Some(path) = &args.check {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("loadgen: cannot read baseline {path}: {e}");
            std::process::exit(2);
        });
        let baseline = BenchReport::parse(&text).unwrap_or_else(|e| {
            eprintln!("loadgen: baseline {path} unreadable: {e}");
            std::process::exit(2);
        });
        let fresh = BenchReport {
            schema_version: SCHEMA_VERSION,
            scale: args.scale,
            iters: args.requests as u64,
            stages: vec![
                latency_stage("serve.latency_p50", p50),
                latency_stage("serve.latency_p95", p95),
                latency_stage("serve.latency_p99", p99),
                latency_stage("serve.secs_per_request", wall_seconds / args.requests as f64),
            ],
        };
        let regressions = perf::compare(&baseline, &fresh, DEFAULT_TOLERANCE);
        if regressions.is_empty() {
            eprintln!(
                "loadgen: no regression against {path} ({} stages within {:.0}%)",
                baseline.stages.len(),
                DEFAULT_TOLERANCE * 100.0
            );
        } else {
            eprintln!("loadgen: {} regression(s) against {path}:", regressions.len());
            for r in &regressions {
                eprintln!(
                    "  {}: {:.4}s -> {:.4}s ({:.0}% over baseline)",
                    r.stage,
                    r.baseline_seconds,
                    r.fresh_seconds,
                    (r.ratio() - 1.0) * 100.0
                );
            }
            failed = true;
        }
    }

    if failed {
        std::process::exit(1);
    }
}
