//! `serve_open`: the online tagging service under an open loop.
//!
//! Setup generates the BC2GM profile at scale 0.1, trains GraphNER,
//! freezes its `GraphTagger` and starts `graphner_serve` in-process on
//! an ephemeral port. Two client threads, each with one keep-alive
//! connection, send requests on a fixed 200 rps schedule: request `i`
//! is due `i / 200` s after the window opens and is timed from its due
//! time to its complete response, so a stall shows in every request
//! behind it. Bodies hold a seeded mix of 1–4 novel sentences from
//! `generate_unlabelled`. Every 200 body must equal `render_tags` of
//! `try_tag_batch` on a clone of the served tagger, computed before the
//! window opens.
//!
//! The traced run sends the same schedule twice, half the window each:
//! untraced first, then with `/metrics` scraped around it and the
//! program's `serve.*` spans drained after it.

use crate::procfs::ProcSample;
use crate::report::Report;
use crate::stats::{
    derive_seed, due_seconds, generator_fell_behind, lateness_seconds, median, quantile, SplitMix,
};
use crate::Args;
use graphner_bench::eval_predictions;
use graphner_core::{GraphNer, GraphNerConfig, GraphTagger, TestSession, TrainOutput};
use graphner_corpusgen::{generate, generate_unlabelled, CorpusProfile};
use graphner_obs::{counter, with_capture, AttrValue, SpanRecord, Stopwatch};
use graphner_serve::{parse_tag_body, render_tags, ServerHandle};
use graphner_text::Tagger;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const SCALE: f64 = 0.1;
const SMOKE_SCALE: f64 = 0.02;
const RATE: f64 = 200.0;
const CLIENTS: usize = 2;
/// Distinct request bodies; request `i` sends body `i % BODIES`.
const BODIES: usize = 500;
const WARMUP_REQUESTS: usize = 40;
/// Labelled corpora from other seeds that `f1` pools.
const NOVEL_CORPORA: u64 = 3;
/// Full setups timed for `setup_s` (median reported).
const SETUP_REPEATS: usize = 3;
/// The window opens this long after the clients start, so every
/// client is connected and waiting when request 0 falls due.
const LEAD_SECONDS: f64 = 0.05;
/// Sleep until this close to a due time, then yield-spin, so the send
/// is not late by a scheduler tick.
const SPIN_SECONDS: f64 = 0.000_3;

/// One trained, served model.
struct Served {
    server: ServerHandle,
    /// Clone of the served tagger, for the expected responses.
    tagger: GraphTagger,
    profile: CorpusProfile,
    train: TrainOutput,
    /// Spans the set-up recorded on this thread (the pipeline stages).
    spans: Vec<SpanRecord>,
    /// `knn.candidate_pairs` advance over the set-up.
    candidate_pairs: u64,
}

/// Generation, training, tagger freeze and bind; the clone kept for
/// checking is made outside the timed part. Returns the seconds.
fn setup_once(args: &Args, cfg: &GraphNerConfig) -> (Served, f64) {
    let scale = if args.smoke { SMOKE_SCALE } else { SCALE };
    let profile =
        CorpusProfile { seed: derive_seed(args.seed, 1), ..CorpusProfile::bc2gm().scaled(scale) };
    graphner_obs::span::drain();
    let pairs_before = counter("knn.candidate_pairs").get();
    let clock = Stopwatch::start();
    let ((train, tagger), spans) = with_capture(|| {
        let corpus = generate(&profile);
        let ner = crate::transductive::ner_config(scale);
        let (model, train) = GraphNer::train(&corpus.train, &ner, None, cfg.clone());
        let test = corpus.test.without_tags();
        (train, TestSession::new(&model, &test).tagger(model.config()))
    });
    let frozen = clock.elapsed_seconds();
    let kept = tagger.clone();
    let clock = Stopwatch::start();
    let server = graphner_serve::start(tagger, cfg.serve, "127.0.0.1:0").expect("bind 127.0.0.1:0");
    let seconds = frozen + clock.elapsed_seconds();
    let candidate_pairs = counter("knn.candidate_pairs").get() - pairs_before;
    (Served { server, tagger: kept, profile, train, spans, candidate_pairs }, seconds)
}

/// Newline-delimited request bodies: a seeded 1–4 sentences each.
fn request_bodies(args: &Args, profile: &CorpusProfile) -> Vec<String> {
    let mut mix = SplitMix::new(derive_seed(args.seed, 4));
    let sizes: Vec<usize> = (0..BODIES).map(|_| mix.between(1, 4)).collect();
    let pool = generate_unlabelled(profile, sizes.iter().sum(), derive_seed(args.seed, 5));
    let mut sentences = pool.sentences.iter();
    sizes
        .iter()
        .map(|&k| {
            let mut body = String::new();
            for sentence in sentences.by_ref().take(k) {
                body.push_str(&sentence.tokens.join(" "));
                body.push('\n');
            }
            body
        })
        .collect()
}

/// The response body the server must send for `body`.
fn expected_response(tagger: &GraphTagger, body: &str) -> String {
    let sentences = parse_tag_body(body.as_bytes()).expect("generated bodies parse");
    let tags = tagger.try_tag_batch(&sentences).expect("generated sentences tag");
    render_tags(&sentences, &tags)
}

/// A keep-alive client connection.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader })
    }

    /// Send one request and read the whole response: status and body.
    fn call(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(bad("connection closed before the status line"));
        }
        let status: u16 = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("unparseable status line"))?;
        let mut length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(bad("connection closed mid-headers"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(|_| bad("unparseable content-length"))?;
                }
            }
        }
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body)?;
        String::from_utf8(body).map(|b| (status, b)).map_err(|_| bad("response is not UTF-8"))
    }
}

/// One request of the open loop, in seconds from the window's clock.
#[derive(Clone, Copy)]
struct Sample {
    due: f64,
    /// When the connection's previous response arrived.
    free: f64,
    sent: f64,
    done: f64,
    /// 200, byte-equal to the expected body, and within the deadline.
    ok: bool,
    answered: bool,
}

fn wait_until(clock: &Stopwatch, due: f64) {
    let ahead = due - clock.elapsed_seconds();
    if ahead > SPIN_SECONDS {
        std::thread::sleep(Duration::from_secs_f64(ahead - SPIN_SECONDS));
    }
    while clock.elapsed_seconds() < due {
        std::thread::yield_now();
    }
}

/// Drive requests `client, client + CLIENTS, …` of the schedule over
/// one keep-alive connection (reopened once after a transport error).
fn run_client(
    addr: &str,
    client: usize,
    requests: usize,
    bodies: &[String],
    expected: &[String],
    deadline: f64,
    clock: Stopwatch,
) -> Vec<Sample> {
    let mut conn = Conn::open(addr).ok();
    let mut samples = Vec::with_capacity(requests / CLIENTS + 1);
    let mut free = 0.0;
    for i in (client..requests).step_by(CLIENTS) {
        let due = LEAD_SECONDS + due_seconds(i, RATE);
        wait_until(&clock, due);
        let sent = clock.elapsed_seconds();
        let b = i % bodies.len();
        let mut response = None;
        for _ in 0..2 {
            if conn.is_none() {
                conn = Conn::open(addr).ok();
            }
            match conn.as_mut().map(|c| c.call("POST", "/v1/tag", &bodies[b])) {
                Some(Ok(r)) => {
                    response = Some(r);
                    break;
                }
                _ => conn = None,
            }
        }
        let done = clock.elapsed_seconds();
        let ok =
            response.as_ref().is_some_and(|(status, body)| *status == 200 && *body == expected[b])
                && done - due <= deadline;
        samples.push(Sample { due, free, sent, done, ok, answered: response.is_some() });
        free = done;
    }
    samples
}

/// Run the open loop for `requests` requests; samples in request order.
fn open_loop(
    addr: &str,
    requests: usize,
    bodies: &[String],
    expected: &[String],
    deadline: f64,
) -> Vec<Sample> {
    let clock = Stopwatch::start();
    let mut samples: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope
                    .spawn(move || run_client(addr, c, requests, bodies, expected, deadline, clock))
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .flat_map(|(c, h)| {
                let samples = h.join().expect("client thread");
                samples.into_iter().enumerate().map(move |(k, s)| (c + k * CLIENTS, s))
            })
            .collect()
    });
    samples.sort_by_key(|(i, _)| *i);
    samples.into_iter().map(|(_, s)| s).collect()
}

/// What one window measured.
struct Window {
    samples: Vec<Sample>,
    latencies_ms: Vec<f64>,
    late_ms: Vec<f64>,
    fallbacks: u64,
    tokens: u64,
    cpu_ms: f64,
    faults: f64,
}

fn run_window(
    addr: &str,
    requests: usize,
    bodies: &[String],
    expected: &[String],
    deadline: f64,
) -> Window {
    let (fallback, tokens) = (counter("serve.fallback"), counter("serve.tokens"));
    let (fallback_before, tokens_before) = (fallback.get(), tokens.get());
    let proc = ProcSample::now();
    let samples = open_loop(addr, requests, bodies, expected, deadline);
    let (faults, cpu_ms) = proc.since();
    let answered = samples.iter().filter(|s| s.answered);
    Window {
        latencies_ms: answered.map(|s| (s.done - s.due) * 1e3).collect(),
        late_ms: samples.iter().map(|s| lateness_seconds(s.due, s.free, s.sent) * 1e3).collect(),
        fallbacks: fallback.get() - fallback_before,
        tokens: tokens.get() - tokens_before,
        cpu_ms,
        faults,
        samples,
    }
}

/// Counter values from a `GET /metrics` scrape (JSONL, one metric per
/// line); absent counters read 0.
fn scrape(addr: &str, names: &[&str]) -> Vec<u64> {
    let (status, body) =
        Conn::open(addr).and_then(|mut c| c.call("GET", "/metrics", "")).expect("GET /metrics");
    assert_eq!(status, 200, "GET /metrics status");
    names
        .iter()
        .map(|name| {
            let key = format!("\"type\":\"counter\",\"name\":\"{name}\",\"value\":");
            body.lines()
                .find_map(|line| line.split_once(&key))
                .and_then(|(_, rest)| rest.trim_end_matches('}').parse().ok())
                .unwrap_or(0)
        })
        .collect()
}

fn span_ms(spans: &[SpanRecord], name: &str, filter: impl Fn(&SpanRecord) -> bool) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name && filter(s)).map(|s| s.seconds * 1e3).collect()
}

fn attr_u64(span: &SpanRecord, key: &str) -> Option<u64> {
    match span.attr(key) {
        Some(AttrValue::U64(v)) => Some(*v),
        _ => None,
    }
}

/// Median milliseconds of `f(i)` over `i` in `0..n`.
fn time_each<T>(n: usize, mut f: impl FnMut(usize) -> T) -> f64 {
    let ms: Vec<f64> = (0..n)
        .map(|i| {
            let clock = Stopwatch::start();
            std::hint::black_box(f(i));
            clock.elapsed_seconds() * 1e3
        })
        .collect();
    median(&ms)
}

pub fn run(args: &Args, report: &mut Report) {
    let cfg = GraphNerConfig::table_iv("BC2GM", false);
    let deadline = cfg.serve.deadline_ms as f64 / 1e3;

    // repeated full setups for a steady setup_s; the last one serves,
    // and its spans and counters give the setup-side layer rows
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut served: Option<Served> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = served.take() {
            previous.server.shutdown();
        }
        let (next, seconds) = setup_once(args, &cfg);
        setup_times.push(seconds);
        served = Some(next);
    }
    let served = served.expect("at least one setup repeat");
    let addr = served.server.addr().to_string();

    let bodies = request_bodies(args, &served.profile);
    let expected: Vec<String> =
        bodies.iter().map(|b| expected_response(&served.tagger, b)).collect();
    let requests = (RATE * args.seconds).round().max(1.0) as usize;
    report.note(format!(
        "inputs: BC2GM profile scale {}, {} distinct bodies of 1-4 novel sentences; open loop at \
         {RATE} rps over {CLIENTS} keep-alive connections, {requests} requests per window",
        if args.smoke { SMOKE_SCALE } else { SCALE },
        bodies.len()
    ));

    // untimed warm-up, closed loop on one connection; its responses
    // are checked like every other
    let mut warm = Conn::open(&addr).expect("connect to the server");
    let mut first_ms = 0.0;
    for i in 0..WARMUP_REQUESTS {
        let clock = Stopwatch::start();
        let response = warm.call("POST", "/v1/tag", &bodies[i % bodies.len()]);
        if i == 0 {
            first_ms = clock.elapsed_seconds() * 1e3;
        }
        report.check(
            response
                .is_ok_and(|(status, body)| status == 200 && body == expected[i % bodies.len()]),
        );
    }
    drop(warm);

    if !args.trace {
        let window = run_window(&addr, requests, &bodies, &expected, deadline);
        for s in &window.samples {
            report.check(s.ok);
        }
        let ok = window.samples.iter().filter(|s| s.ok).count();
        let wall = window.samples.iter().map(|s| s.done).fold(0.0, f64::max) - LEAD_SECONDS;
        let late_p99 = quantile(&window.late_ms, 0.99);
        flag_generator(report, late_p99);
        report.set("setup_s", median(&setup_times));
        report.set("op_median_ms", median(&window.latencies_ms));
        report.set("rate_per_s", ok as f64 / wall);
        report.set("f1", novel_f1(args, &served));
        let blocked = window.samples.iter().filter(|s| s.free > s.due).count();
        report.note(format!(
            "latency p99 {:.3} ms over {} samples (reported, not gated); generator late p99 \
             {late_p99:.3} ms; {blocked} requests waited for their connection's previous response",
            quantile(&window.latencies_ms, 0.99),
            window.latencies_ms.len()
        ));
        served.server.shutdown();
        return;
    }

    // traced run: the same schedule, untraced half then traced half
    let half = (requests / 2).max(1);
    let untraced = run_window(&addr, half, &bodies, &expected, deadline);
    graphner_obs::span::drain();
    const SCRAPED: [&str; 4] =
        ["serve.rejected", "serve.expired", "serve.fallback", "serve.tokens"];
    let before = scrape(&addr, &SCRAPED);
    let pool_before = rayon::pool_stats();
    let traced = run_window(&addr, half, &bodies, &expected, deadline);
    let pool = rayon::pool_stats().delta(&pool_before);
    let after = scrape(&addr, &SCRAPED);
    let spans = graphner_obs::span::drain();
    let delta: Vec<u64> = after.iter().zip(&before).map(|(a, b)| a - b).collect();
    let [rejected, expired, fallbacks, tokens] = delta[..] else {
        unreachable!("four scraped counters")
    };

    for s in untraced.samples.iter().chain(&traced.samples) {
        report.check(s.ok);
    }
    // exact counters repeat: same schedule, same fallbacks and tokens,
    // whether read in-process or scraped from /metrics
    report.check(untraced.fallbacks == fallbacks && untraced.tokens == tokens);
    report.check(traced.fallbacks == fallbacks && traced.tokens == tokens);

    let server_ms =
        median(&span_ms(&spans, "serve.request", |s| attr_u64(s, "http.status") == Some(200)));
    let tag_ms = median(&span_ms(&spans, "serve.tag_batch", |_| true));
    let batch_sizes: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "serve.batch")
        .filter_map(|s| attr_u64(s, "batch.requests"))
        .map(|v| v as f64)
        .collect();
    // the bodies the traced window sent, timed call by call
    let sent = |i: usize| bodies[i % bodies.len()].as_bytes();
    let parsed: Vec<_> =
        (0..half).map(|i| parse_tag_body(sent(i)).expect("bodies parse")).collect();
    let tags: Vec<_> =
        parsed.iter().map(|s| served.tagger.try_tag_batch(s).expect("tags")).collect();
    let parse_ms = time_each(half, |i| parse_tag_body(sent(i)));
    let tag_direct_ms = time_each(half, |i| served.tagger.try_tag_batch(&parsed[i]));
    let render_ms = time_each(half, |i| render_tags(&parsed[i], &tags[i]));
    let client_ms = median(&traced.latencies_ms);
    let late_p99 = quantile(&traced.late_ms, 0.99);
    flag_generator(report, late_p99);

    let setup_span = |name: &str| span_ms(&served.spans, name, |_| true).iter().sum::<f64>();
    let graph_attr = |key: &str| {
        served
            .spans
            .iter()
            .find(|s| s.name == "test.graph")
            .and_then(|s| attr_u64(s, key))
            .unwrap_or(0) as f64
    };
    report.set("crf.train_ms", served.train.crf_seconds * 1e3);
    report.set("crf.lbfgs_iterations", served.train.report.iterations as f64);
    report.set("core.posteriors_ms", setup_span("test.posteriors"));
    report.set("graph.pmi_ms", setup_span("test.graph") - setup_span("graph.knn"));
    report.set("graph.knn_ms", setup_span("graph.knn"));
    report.set("graph.knn_candidate_pairs", served.candidate_pairs as f64);
    report.set("graph.vertices", graph_attr("graph.vertices"));
    report.set("graph.edges", graph_attr("graph.edges"));
    report.set("core.average_ms", setup_span("test.average"));
    report.set("serve.server_ms", server_ms);
    report.set("serve.transport_ms", client_ms - server_ms);
    report.set("serve.parse_ms", parse_ms);
    report.set("serve.tag_ms", tag_ms);
    report.set("serve.tag_direct_ms", tag_direct_ms);
    report.set("serve.render_ms", render_ms);
    report.set("serve.wait_ms", server_ms - parse_ms - tag_ms - render_ms);
    report.set(
        "serve.batch_requests_mean",
        batch_sizes.iter().sum::<f64>() / batch_sizes.len().max(1) as f64,
    );
    report.set("serve.fallback_ratio", fallbacks as f64 / tokens.max(1) as f64);
    report.set("serve.rejected", rejected as f64);
    report.set("serve.expired", expired as f64);
    report.set("serve.latency_p99_ms", quantile(&traced.latencies_ms, 0.99));
    report.set("serve.latency_samples", traced.latencies_ms.len() as f64);
    report.set("gen.late_p99_ms", late_p99);
    report.set("gen.fell_behind", f64::from(u8::from(generator_fell_behind(late_p99 / 1e3, RATE))));
    report.set(
        "pool.worker_chunk_share",
        pool.chunks_on_workers as f64 / pool.chunks_executed.max(1) as f64,
    );
    report.set("proc.minor_faults", traced.faults / half as f64);
    report.set("proc.first_op_ms", first_ms);
    report.set("proc.cpu_ms", traced.cpu_ms / half as f64);
    report.set("proc.trace_overhead_ms", client_ms - median(&untraced.latencies_ms));
    report.zero_rows(&["graph.", "core."]);
    report.note(format!(
        "{half} untraced + {half} traced requests; setup rows (crf, core, graph) come from the \
         serving setup's spans; serve.parse/tag_direct/render time the calls directly on the sent bodies"
    ));
    served.server.shutdown();
}

/// Flag a run whose generator, not the server, fell behind schedule.
fn flag_generator(report: &mut Report, late_p99_ms: f64) {
    if generator_fell_behind(late_p99_ms / 1e3, RATE) {
        report.note(format!(
            "FLAG: generator late p99 {late_p99_ms:.3} ms exceeds half the {:.1} ms interval; \
             latency figures reflect the generator",
            1e3 / RATE
        ));
    }
}

/// Exact-match F of the served tagger, pooled over the test splits of
/// [`NOVEL_CORPORA`] labelled corpora generated from other seeds (novel
/// genes and sentences), via the same `try_tag_batch` the server runs.
/// Pooling several lexicons keeps one easy or hard lexicon from
/// setting the figure.
fn novel_f1(args: &Args, served: &Served) -> f64 {
    let (mut tp, mut detections, mut gold) = (0, 0, 0);
    for k in 0..NOVEL_CORPORA {
        let seed = derive_seed(args.seed, 6 + k);
        let novel = generate(&CorpusProfile { seed, ..served.profile.clone() });
        let sentences = novel.test.without_tags().sentences;
        let predictions = served.tagger.try_tag_batch(&sentences).expect("generated sentences tag");
        let totals = eval_predictions(&novel.test, &novel.test_gold, &predictions).0.totals;
        tp += totals.tp;
        detections += totals.detections;
        gold += totals.gold;
    }
    2.0 * tp as f64 / (detections + gold).max(1) as f64
}
