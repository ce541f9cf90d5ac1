//! graphner-serve — train (or rather: grow from the seeded synthetic
//! profile) a smoke-scale GraphNER model and serve it over HTTP.
//!
//! ```text
//! graphner-serve [--addr 127.0.0.1:8080] [--scale 0.02] [--seed 42]
//!                [--queue-capacity N] [--max-batch N] [--deadline-ms N]
//! ```
//!
//! Endpoints: `POST /v1/tag` (newline-delimited sentences in,
//! `token\tTAG` lines out), `GET /healthz`, `GET /metrics`. The serving
//! knobs go through `GraphNerConfig::validate`, so invalid values
//! (zero, over the caps) die with a typed error at startup rather than
//! misbehaving under load.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "command-line tool: bad arguments stop the run with a message, and output is its job"
)]

use graphner_bench::RunOptions;
use graphner_core::{GraphNer, GraphNerConfig, TestSession};
use graphner_corpusgen::{generate, CorpusProfile};
use graphner_serve::start;

struct Args {
    addr: String,
    scale: f64,
    queue_capacity: Option<usize>,
    max_batch: Option<usize>,
    deadline_ms: Option<u64>,
}

fn parse_args() -> Args {
    let mut parsed = Args {
        addr: "127.0.0.1:8080".to_string(),
        scale: 0.02,
        queue_capacity: None,
        max_batch: None,
        deadline_ms: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                parsed.addr = args.get(i).expect("--addr needs host:port").clone();
            }
            "--scale" => {
                i += 1;
                parsed.scale = args[i].parse().expect("--scale needs a number");
            }
            "--queue-capacity" => {
                i += 1;
                parsed.queue_capacity =
                    Some(args[i].parse().expect("--queue-capacity needs a count"));
            }
            "--max-batch" => {
                i += 1;
                parsed.max_batch = Some(args[i].parse().expect("--max-batch needs a count"));
            }
            "--deadline-ms" => {
                i += 1;
                parsed.deadline_ms =
                    Some(args[i].parse().expect("--deadline-ms needs milliseconds"));
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    parsed
}

fn main() {
    let args = parse_args();
    let mut cfg = GraphNerConfig::default();
    let serve = &mut cfg.serve;
    serve.queue_capacity = args.queue_capacity.unwrap_or(serve.queue_capacity);
    serve.max_batch = args.max_batch.unwrap_or(serve.max_batch);
    serve.deadline_ms = args.deadline_ms.unwrap_or(serve.deadline_ms);
    if let Err(e) = cfg.validate() {
        eprintln!("graphner-serve: invalid configuration: {e}");
        std::process::exit(2);
    }

    eprintln!("graphner-serve: training smoke model at scale {}", args.scale);
    let profile = CorpusProfile::bc2gm().scaled(args.scale);
    let corpus = generate(&profile);
    let opts = RunOptions { scale: args.scale, ..RunOptions::default() };
    let (gner, _) = GraphNer::train(&corpus.train, &opts.ner_config(), None, cfg.clone());
    let test = corpus.test.without_tags();
    let mut session = TestSession::new(&gner, &test);
    let tagger = session.tagger(gner.config());

    let handle = start(tagger, cfg.serve, &args.addr).unwrap_or_else(|e| {
        eprintln!("graphner-serve: cannot bind {}: {e}", args.addr);
        std::process::exit(1);
    });
    println!("graphner-serve: listening on http://{}", handle.addr());
    println!(
        "graphner-serve: queue {} / batch {} / deadline {} ms",
        cfg.serve.queue_capacity, cfg.serve.max_batch, cfg.serve.deadline_ms
    );
    // serve until killed
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
