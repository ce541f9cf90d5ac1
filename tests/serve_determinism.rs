//! Serving determinism: batching must be invisible.
//!
//! The batcher coalesces concurrent requests into single
//! `try_tag_batch` calls, so the contract to verify is that a response
//! from the server is **byte-identical** to one offline call over
//! the same parsed sentences — at any `max_batch`, any linger window,
//! and any worker pool size. The child half trains one smoke model,
//! serves it at `max_batch` 1, 7, and the default 64, drives
//! concurrent clients against each, and checks every response against
//! the offline rendering; the parent re-runs the whole thing under
//! `GRAPHNER_THREADS=1` and `4` and compares the canonical dumps
//! byte-for-byte.

#![allow(
    clippy::expect_used,
    reason = "test setup outside #[test] functions fails the test by panicking"
)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

use graphner::banner::NerConfig;
use graphner::core::{GraphNer, GraphNerConfig, TestSession};
use graphner::corpusgen::{generate, CorpusProfile};
use graphner::crf::TrainConfig;
use graphner::serve::{render_tags, start};
use graphner::text::{tokenize, Sentence, Tagger};

fn quick_cfg() -> NerConfig {
    NerConfig {
        train: TrainConfig { max_iterations: 60, ..Default::default() },
        ..Default::default()
    }
}

/// POST one body to `/v1/tag` on a fresh connection; returns
/// `(status, response body)`.
fn post_tag(addr: SocketAddr, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to in-process server");
    stream.set_nodelay(true).expect("set nodelay");
    let request = format!(
        "POST /v1/tag HTTP/1.1\r\nHost: det\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(request.as_bytes()).expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 =
        raw.split_ascii_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let (_, response_body) = raw.split_once("\r\n\r\n").expect("header/body separator");
    (status, response_body.to_string())
}

/// The child workload: train once, then for each batch size serve the
/// model, fire concurrent single-line requests, and append every
/// response (in request order) to the canonical dump after checking it
/// against the offline `try_tag_batch` rendering.
fn serve_dump() -> String {
    let corpus = generate(&CorpusProfile::bc2gm().scaled(0.02));
    let (model, _) = GraphNer::train(&corpus.train, &quick_cfg(), None, GraphNerConfig::default());
    let unlabelled = corpus.test.without_tags();
    let mut session = TestSession::new(&model, &unlabelled);

    // request bodies: one corpus sentence per request, re-joined the
    // way a client would send it
    let lines: Vec<String> = unlabelled
        .sentences
        .iter()
        .filter(|s| !s.tokens.is_empty())
        .take(12)
        .map(|s| s.tokens.join(" "))
        .collect();
    assert!(lines.len() >= 8, "smoke corpus too small to exercise batching");

    // the offline reference re-parses each line exactly as the server
    // does (tokenize), then tags the whole set in one offline call
    let offline: Vec<Sentence> = lines
        .iter()
        .enumerate()
        .map(|(i, line)| Sentence::unlabelled(format!("q{i}"), tokenize(line)))
        .collect();
    let offline_tags =
        session.tagger(model.config()).try_tag_batch(&offline).expect("clean offline batch");
    let expected: Vec<String> = offline
        .iter()
        .zip(&offline_tags)
        .map(|(s, t)| render_tags(std::slice::from_ref(s), std::slice::from_ref(t)))
        .collect();

    let mut dump = String::new();
    for max_batch in [1usize, 7, GraphNerConfig::default().serve.max_batch] {
        let mut cfg = GraphNerConfig::default();
        cfg.serve.max_batch = max_batch;
        cfg.validate().expect("valid config");
        let tagger = session.tagger(&cfg);
        let handle = start(tagger, cfg.serve, "127.0.0.1:0").expect("start in-process server");
        let addr = handle.addr();

        // 4 concurrent clients × 3 requests each so the linger window
        // actually coalesces requests at max_batch > 1
        let responses: Vec<(usize, String)> = std::thread::scope(|scope| {
            let mut workers = Vec::new();
            for client in 0..4usize {
                let lines = &lines;
                workers.push(scope.spawn(move || {
                    let mut own = Vec::new();
                    for (i, line) in lines.iter().enumerate().skip(client).step_by(4) {
                        let (status, body) = post_tag(addr, line);
                        assert_eq!(status, 200, "request {i} failed at max_batch={max_batch}");
                        own.push((i, body));
                    }
                    own
                }));
            }
            let mut all: Vec<(usize, String)> =
                workers.into_iter().flat_map(|w| w.join().expect("client thread")).collect();
            all.sort_by_key(|(i, _)| *i);
            all
        });
        handle.shutdown();

        dump.push_str(&format!("max_batch={max_batch}\n"));
        for (i, body) in &responses {
            assert_eq!(
                body, &expected[*i],
                "server response {i} diverged from offline try_tag_batch at max_batch={max_batch}"
            );
            dump.push_str(body);
        }
    }
    dump
}

/// Child half: run under the `GRAPHNER_THREADS` the parent set and
/// write the canonical serve dump to `GRAPHNER_DUMP_PATH`.
#[test]
#[ignore = "spawned as a subprocess by serve_thread_and_batch_invariance"]
fn dump_serve_responses() {
    let path = std::env::var("GRAPHNER_DUMP_PATH")
        .expect("GRAPHNER_DUMP_PATH must be set when running the dump half");
    std::fs::write(&path, serve_dump()).expect("write serve dump");
}

/// The pool reads `GRAPHNER_THREADS` once at first use, so two pool
/// sizes need two processes. Each child already asserts
/// server == offline `try_tag_batch` at batch sizes {1, 7, 64}; comparing
/// the two dumps additionally pins the whole train + serve pipeline to
/// be byte-identical across pool sizes.
#[test]
fn serve_thread_and_batch_invariance_byte_identical() {
    let exe = std::env::current_exe().expect("test executable path");
    let mut dumps = Vec::new();
    for threads in ["1", "4"] {
        let path = std::env::temp_dir()
            .join(format!("graphner-serve-det-{}-t{threads}.txt", std::process::id()));
        let status = std::process::Command::new(&exe)
            .args(["dump_serve_responses", "--exact", "--ignored", "--test-threads", "1"])
            .env("GRAPHNER_THREADS", threads)
            .env("GRAPHNER_DUMP_PATH", &path)
            .status()
            .expect("spawn serve dump subprocess");
        assert!(status.success(), "serve dump subprocess failed for GRAPHNER_THREADS={threads}");
        let dump = std::fs::read_to_string(&path).expect("read serve dump");
        let _ = std::fs::remove_file(&path);
        assert!(
            dump.contains("max_batch=1\n") && dump.contains("max_batch=7\n"),
            "dump for GRAPHNER_THREADS={threads} is missing batch-size sections"
        );
        dumps.push(dump);
    }
    assert_eq!(dumps[0], dumps[1], "serve responses must be byte-identical at 1 and 4 threads");
}
