//! The server proper: a `TcpListener` accept loop, per-connection
//! handler threads, the batcher thread, and the three endpoints.
//!
//! * `POST /v1/tag` — newline-delimited sentences in, tab-separated
//!   `token\tTAG` lines out (sentences separated by a blank line).
//! * `GET /healthz` — liveness.
//! * `GET /metrics` — the global [`graphner_obs`] registry as JSONL:
//!   latency quantiles, throughput, queue depth, the batch-size
//!   histogram, and the novel-trigram fallback rate.
//!
//! Backpressure end to end: handlers shape-validate and `try_push`
//! into the bounded queue — a full queue answers 429 + `Retry-After`
//! immediately, an expired deadline answers 503 — so every accepted
//! request is *answered*, never silently dropped.

use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use graphner_core::ServeConfig;
use graphner_obs::{attr, span, Counter, Gauge, Histogram, Registry, SpanName, Stopwatch};
use graphner_text::{tokenize, validate_sentences, BioTag, Sentence, TagError, Tagger};

use crate::batcher::{run_batcher, Deadline, ResponseSlot, TagRequest, TagResponse};
use crate::http::{read_request, write_response, HttpError, Request};
use crate::queue::{BoundedQueue, PushError};

/// How long a connection read blocks before the handler re-checks the
/// shutdown flag — bounds both shutdown latency and how long an idle
/// keep-alive connection pins its thread. A request that has begun and
/// then stalls this long gets 408 and a closed connection.
const CONNECTION_POLL: Duration = Duration::from_millis(500);

/// Cached handles to every serve-path metric, so the hot path never
/// takes the registry's name-lookup lock.
pub struct ServeMetrics {
    /// `serve.requests`: tag requests accepted into the queue.
    pub requests: Arc<Counter>,
    /// `serve.rejected`: requests answered 429 (queue full).
    pub rejected: Arc<Counter>,
    /// `serve.expired`: requests answered 503 (deadline passed).
    pub expired: Arc<Counter>,
    /// `serve.bad_requests`: requests answered 400.
    pub bad_requests: Arc<Counter>,
    /// `serve.tokens`: tokens carried by accepted requests — the
    /// denominator of the fallback rate.
    pub tokens: Arc<Counter>,
    /// `serve.latency_seconds`: accept-to-response time of 200s.
    pub latency: Arc<Histogram>,
    /// `serve.queue_depth`: depth observed at each successful push.
    pub queue_depth: Arc<Gauge>,
}

impl ServeMetrics {
    /// Resolve every handle against the global registry.
    pub fn new() -> ServeMetrics {
        let registry = Registry::global();
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            rejected: registry.counter("serve.rejected"),
            expired: registry.counter("serve.expired"),
            bad_requests: registry.counter("serve.bad_requests"),
            tokens: registry.counter("serve.tokens"),
            latency: registry.histogram("serve.latency_seconds"),
            queue_depth: registry.gauge("serve.queue_depth"),
        }
    }
}

impl Default for ServeMetrics {
    fn default() -> ServeMetrics {
        ServeMetrics::new()
    }
}

/// Render one request's tags in the wire format: `token\tTAG` per
/// token, a blank line after each sentence. Shared by the server and
/// the determinism suite, so "server output equals offline
/// `try_tag_batch`" is a comparison of identical renderings.
pub fn render_tags(sentences: &[Sentence], tags: &[Vec<BioTag>]) -> String {
    let mut out = String::new();
    for (sentence, sentence_tags) in sentences.iter().zip(tags) {
        for (token, tag) in sentence.tokens.iter().zip(sentence_tags) {
            out.push_str(token);
            out.push('\t');
            out.push_str(tag.as_str());
            out.push('\n');
        }
        out.push('\n');
    }
    out
}

/// Parse a `POST /v1/tag` body into sentences: UTF-8, one sentence per
/// line, tokenized with the workspace tokenizer. One trailing newline
/// is the line terminator of the last sentence, not an empty request.
pub fn parse_tag_body(body: &[u8]) -> Result<Vec<Sentence>, &'static str> {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return Err("body is not valid UTF-8"),
    };
    let text = text.strip_suffix('\n').unwrap_or(text);
    if text.is_empty() {
        return Err("empty body: expected newline-delimited sentences");
    }
    Ok(text
        .split('\n')
        .enumerate()
        .map(|(i, line)| {
            Sentence::unlabelled(format!("q{i}"), tokenize(line.trim_end_matches('\r')))
        })
        .collect())
}

/// Everything a connection handler needs, shared across threads.
struct Ctx {
    queue: BoundedQueue<TagRequest>,
    cfg: ServeConfig,
    metrics: ServeMetrics,
    shutdown: AtomicBool,
    uptime: Stopwatch,
}

/// A running server. Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    ctx: Arc<Ctx>,
    acceptor: Option<JoinHandle<()>>,
    batcher: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, drain the queue, and join every thread: the
    /// acceptor returns once every handler has exited, and the batcher
    /// is joined last, so in-flight requests are answered.
    pub fn shutdown(mut self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.ctx.queue.close();
        // wake the acceptor with a throwaway connection; if connecting
        // fails the accept loop is already gone
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        if let Some(batcher) = self.batcher.take() {
            let _ = batcher.join();
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving `tagger` under
/// the validated serving knobs in `cfg`.
pub fn start<T: Tagger + Send + Sync + 'static>(
    tagger: T,
    cfg: ServeConfig,
    addr: &str,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let ctx = Arc::new(Ctx {
        queue: BoundedQueue::new(cfg.queue_capacity),
        cfg,
        metrics: ServeMetrics::new(),
        shutdown: AtomicBool::new(false),
        uptime: Stopwatch::start(),
    });

    let batcher_ctx = Arc::clone(&ctx);
    let batcher = std::thread::spawn(move || {
        run_batcher(&batcher_ctx.queue, &tagger, &batcher_ctx.cfg);
    });

    let acceptor_ctx = Arc::clone(&ctx);
    let acceptor = std::thread::spawn(move || {
        let ctx = &*acceptor_ctx;
        // handlers are scoped to the acceptor: it returns only once
        // every one of them has exited
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                if ctx.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(stream) = stream else { continue };
                scope.spawn(move || handle_connection(stream, ctx));
            }
        });
    });

    Ok(ServerHandle { addr: local_addr, ctx, acceptor: Some(acceptor), batcher: Some(batcher) })
}

/// Serve one connection until the peer closes, an error, or shutdown.
fn handle_connection(stream: TcpStream, ctx: &Ctx) {
    if stream.set_read_timeout(Some(CONNECTION_POLL)).is_err() {
        return;
    }
    // single-write responses + no Nagle: without this, the
    // request/response ping-pong stalls on 40 ms delayed-ACK timers
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return,
    });
    let mut writer = stream;
    loop {
        if ctx.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Wait for the next request's first byte before parsing: the
        // parser consumes what it reads, so only a timeout with nothing
        // buffered can be retried.
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if timed_out(&e) || e.kind() == std::io::ErrorKind::Interrupted => {
                // idle keep-alive poll: re-check the shutdown flag
                continue;
            }
            Err(_) => return,
        }
        match read_request(&mut reader) {
            Ok(request) => {
                let close = request.wants_close();
                if respond(&mut writer, &request, ctx).is_err() || close {
                    return;
                }
            }
            Err(HttpError::Eof) => return,
            Err(HttpError::Io(e)) if timed_out(&e) => {
                // the request stalled part-way and its bytes so far are
                // consumed, so the stream cannot be resynchronised:
                // answer and close
                let _ = write_response(
                    &mut writer,
                    408,
                    &[("Connection", "close")],
                    b"request stalled before it was complete\n",
                );
                return;
            }
            Err(HttpError::Io(_)) => return,
            Err(HttpError::BodyTooLarge(_)) => {
                // the body is unread, so the stream cannot be
                // resynchronised: answer and close
                let _ = write_response(
                    &mut writer,
                    413,
                    &[("Connection", "close")],
                    b"request body too large\n",
                );
                return;
            }
            Err(HttpError::TransferEncoding) => {
                // the body's framing is unknown, so the stream cannot
                // be resynchronised: answer and close
                let _ = write_response(
                    &mut writer,
                    501,
                    &[("Connection", "close")],
                    b"transfer-encoding not supported; send content-length\n",
                );
                return;
            }
            Err(HttpError::HeaderTooLarge(what)) => {
                // the rest of the head is unread, so the stream cannot
                // be resynchronised: answer and close
                let _ = write_response(
                    &mut writer,
                    431,
                    &[("Connection", "close")],
                    format!("request head too large: {what}\n").as_bytes(),
                );
                return;
            }
            Err(HttpError::Malformed(what)) => {
                // where the next request starts is unknown, so the
                // stream cannot be resynchronised: answer and close
                let _ = write_response(
                    &mut writer,
                    400,
                    &[("Connection", "close")],
                    format!("malformed request: {what}\n").as_bytes(),
                );
                return;
            }
        }
    }
}

/// Whether a read failed only because the socket's read timeout fired.
fn timed_out(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// Route one parsed request and write the response.
fn respond(writer: &mut TcpStream, request: &Request, ctx: &Ctx) -> std::io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/v1/tag") => respond_tag(writer, &request.body, ctx),
        ("GET", "/healthz") => write_response(writer, 200, &[], b"ok\n"),
        ("GET", "/metrics") => {
            refresh_derived_gauges(ctx);
            write_response(writer, 200, &[], Registry::global().export_jsonl().as_bytes())
        }
        ("POST" | "GET", _) => write_response(writer, 404, &[], b"no such route\n"),
        _ => write_response(writer, 405, &[], b"method not allowed\n"),
    }
}

/// The `POST /v1/tag` path: parse, validate, enqueue, await, render.
fn respond_tag(writer: &mut TcpStream, body: &[u8], ctx: &Ctx) -> std::io::Result<()> {
    let clock = Stopwatch::start();
    let _s = span(SpanName::ServeRequest);
    let sentences = match parse_tag_body(body) {
        Ok(sentences) => sentences,
        Err(what) => {
            ctx.metrics.bad_requests.incr();
            attr("http.status", 400u64);
            return write_response(writer, 400, &[], format!("{what}\n").as_bytes());
        }
    };
    if let Err(e) = validate_sentences(&sentences) {
        ctx.metrics.bad_requests.incr();
        attr("http.status", 400u64);
        return write_response(writer, 400, &[], format!("{e}\n").as_bytes());
    }
    attr("request.sentences", sentences.len());

    let tokens: usize = sentences.iter().map(|s| s.len()).sum();
    let deadline = Deadline::new(Duration::from_millis(ctx.cfg.deadline_ms));
    let slot = ResponseSlot::new();
    let tag_request =
        TagRequest { sentences: sentences.clone(), deadline, slot: Arc::clone(&slot) };
    match ctx.queue.try_push(tag_request) {
        Ok(depth) => {
            ctx.metrics.queue_depth.set(depth as f64);
        }
        Err(PushError::Full(_)) => {
            ctx.metrics.rejected.incr();
            attr("http.status", 429u64);
            return write_response(
                writer,
                429,
                &[("Retry-After", "1")],
                b"queue full, retry shortly\n",
            );
        }
        Err(PushError::Closed(_)) => {
            attr("http.status", 503u64);
            return write_response(writer, 503, &[], b"server shutting down\n");
        }
    }
    ctx.metrics.requests.incr();
    ctx.metrics.tokens.add(tokens as u64);

    match slot.wait(&deadline) {
        TagResponse::Tags(tags) => {
            let rendered = render_tags(&sentences, &tags);
            ctx.metrics.latency.record(clock.elapsed_seconds());
            attr("http.status", 200u64);
            write_response(writer, 200, &[], rendered.as_bytes())
        }
        TagResponse::Error(e @ TagError::NonFinitePosterior { .. }) => {
            attr("http.status", 500u64);
            write_response(writer, 500, &[], format!("{e}\n").as_bytes())
        }
        TagResponse::Error(e) => {
            // shape errors on this path mean the batch re-validated
            // something the handler let through — still the client's
            // payload, still a 400
            ctx.metrics.bad_requests.incr();
            attr("http.status", 400u64);
            write_response(writer, 400, &[], format!("{e}\n").as_bytes())
        }
        TagResponse::Expired => {
            ctx.metrics.expired.incr();
            attr("http.status", 503u64);
            write_response(
                writer,
                503,
                &[("Retry-After", "1")],
                b"deadline exceeded before tagging\n",
            )
        }
    }
}

/// Recompute the gauges derived from counters — called per `/metrics`
/// scrape so the exported snapshot is self-consistent.
fn refresh_derived_gauges(ctx: &Ctx) {
    let registry = Registry::global();
    let uptime = ctx.uptime.elapsed_seconds();
    registry.gauge("serve.uptime_seconds").set(uptime);
    let requests = ctx.metrics.requests.get();
    if uptime > 0.0 {
        registry.gauge("serve.throughput_rps").set(requests as f64 / uptime);
    }
    let tokens = ctx.metrics.tokens.get();
    if tokens > 0 {
        let fallbacks = registry.counter("serve.fallback").get();
        registry.gauge("serve.fallback_rate").set(fallbacks as f64 / tokens as f64);
    }
    registry.gauge("serve.queue_depth").set(ctx.queue.depth() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphner_text::BioTag::*;
    use graphner_text::NUM_TAGS;
    use std::io::{Read, Write};

    /// Everything-O tagger.
    struct AllO;

    impl Tagger for AllO {
        fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
            vec![O; sentence.len()]
        }

        fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
            vec![[0.0, 0.0, 1.0]; sentence.len()]
        }
    }

    #[test]
    fn chunked_request_gets_501_and_its_chunks_are_never_parsed() {
        let server = start(AllO, ServeConfig::default(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // a chunked request, then a valid request on the same stream:
        // before the 501 the chunk lines were parsed as a request line
        // and answered 400, after the chunked body was read as empty
        stream
            .write_all(
                b"POST /v1/tag HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
                  5\r\nWT1 g\r\n0\r\n\r\n\
                  GET /healthz HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 501 Not Implemented\r\n"), "{text}");
        assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
        server.shutdown();
    }

    #[test]
    fn newline_free_request_gets_431_and_the_connection_closes() {
        let server = start(AllO, ServeConfig::default(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // fail rather than hang if the server keeps reading the flood
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut flood = b"GET /".to_vec();
        flood.resize(crate::http::MAX_HEADER_LINE_BYTES + 1, b'a');
        stream.write_all(&flood).unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn non_utf8_request_head_gets_400_and_the_connection_closes() {
        let server = start(AllO, ServeConfig::default(), "127.0.0.1:0").unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        stream.write_all(b"GET /\xff HTTP/1.1\r\n\r\n").unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let text = String::from_utf8(raw).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("malformed request: request head is not UTF-8\n"), "{text}");
        server.shutdown();
    }

    #[test]
    fn render_is_tab_separated_with_blank_line_sentence_breaks() {
        let sentences = vec![
            Sentence::unlabelled("a", vec!["the".into(), "WT1".into()]),
            Sentence::unlabelled("b", vec!["gene".into()]),
        ];
        let tags = vec![vec![O, B], vec![O]];
        assert_eq!(render_tags(&sentences, &tags), "the\tO\nWT1\tB\n\ngene\tO\n\n");
    }

    #[test]
    fn tag_body_parses_lines_and_flags_bad_payloads() {
        let sentences = parse_tag_body(b"the WT1 gene\nanother sentence\n").unwrap();
        assert_eq!(sentences.len(), 2);
        assert_eq!(sentences[0].tokens, vec!["the", "WT1", "gene"]);
        // trailing newline is a terminator, not a third sentence
        let sentences = parse_tag_body(b"one line").unwrap();
        assert_eq!(sentences.len(), 1);
        // CRLF lines are tolerated
        let sentences = parse_tag_body(b"a b\r\nc d\r\n").unwrap();
        assert_eq!(sentences[1].tokens, vec!["c", "d"]);
        assert!(parse_tag_body(b"").is_err());
        assert!(parse_tag_body(&[0xff, 0xfe]).is_err());
        // an interior empty line parses to an empty sentence, which
        // validate_sentences then rejects with the right index
        let sentences = parse_tag_body(b"ok\n\nalso ok\n").unwrap();
        assert_eq!(validate_sentences(&sentences), Err(TagError::EmptySentence { index: 1 }));
    }
}
