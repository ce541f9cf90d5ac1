//! Request-head caps and read timeouts over a real socket: a client
//! that sends too many header lines, or one header line longer than
//! the cap, gets 431 and a closed connection, and the server goes on
//! answering other clients; a body declared larger than the cap gets
//! 413 and a closed connection; conflicting `Content-Length` headers
//! get one 400 and a closed connection; a request that stalls part-way
//! gets 408 and a closed connection, while a pause between requests
//! does not.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking"
)]

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use graphner::core::ServeConfig;
use graphner::serve::http::{MAX_HEADERS, MAX_HEADER_LINE_BYTES};
use graphner::serve::{parse_tag_body, render_tags, start};
use graphner::text::{BioTag, Sentence, Tagger, NUM_TAGS};

/// Tags every token `O`.
struct AllOutside;

impl Tagger for AllOutside {
    fn predict(&self, sentence: &Sentence) -> Vec<BioTag> {
        vec![BioTag::O; sentence.len()]
    }

    fn posteriors(&self, sentence: &Sentence) -> Vec<[f64; NUM_TAGS]> {
        vec![[0.0, 0.0, 1.0]; sentence.len()]
    }
}

/// Send `raw` on a fresh connection and read until the server closes
/// it. The read timeout turns a server that keeps reading into a test
/// failure rather than a hang.
fn exchange(addr: SocketAddr, raw: &[u8]) -> String {
    let mut stream = connect(addr);
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("server closes the connection");
    String::from_utf8(response).expect("response is UTF-8")
}

/// A connection whose reads fail after 10 s rather than hang the test.
fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to in-process server");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    stream
}

/// Longer than the server's 500 ms connection poll.
const PAUSE: Duration = Duration::from_millis(700);

/// Read one response off a keep-alive connection: the head up to its
/// blank line, then `Content-Length` body bytes.
fn read_response(reader: &mut impl BufRead) -> String {
    let mut head = String::new();
    loop {
        let n = reader.read_line(&mut head).expect("read response head");
        assert!(n > 0, "connection closed mid-head: {head}");
        if head.ends_with("\r\n\r\n") {
            break;
        }
    }
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse::<usize>().ok())
        .expect("response carries a Content-Length");
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("read response body");
    head + &String::from_utf8(body).expect("response body is UTF-8")
}

#[test]
fn oversized_request_heads_get_431_and_the_server_keeps_serving() {
    let server = start(AllOutside, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let addr = server.addr();

    // one header past the cap; nothing follows it, so the server has
    // read every byte sent when it answers and closes
    let mut many = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..=MAX_HEADERS {
        many.extend_from_slice(format!("x-filler-{i}: 1\r\n").as_bytes());
    }
    // one newline-free header line exactly at the cap
    let mut long = b"GET /healthz HTTP/1.1\r\n".to_vec();
    let head = long.len();
    long.extend_from_slice(b"x-long: ");
    long.resize(head + MAX_HEADER_LINE_BYTES, b'a');

    for (what, raw) in [("too many headers", many), ("header line too long", long)] {
        let response = exchange(addr, &raw);
        assert!(
            response.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{what}: {response}"
        );
        assert!(response.contains("Connection: close\r\n"), "{what}: {response}");
        assert!(response.ends_with(&format!("request head too large: {what}\n")), "{response}");
    }

    let body = "BRCA1 is mutated .\n";
    let request = format!(
        "POST /v1/tag HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let response = exchange(addr, request.as_bytes());
    assert!(response.starts_with("HTTP/1.1 200 "), "{response}");
    let sentences = parse_tag_body(body.as_bytes()).unwrap();
    let expected = render_tags(&sentences, &AllOutside.try_tag_batch(&sentences).unwrap());
    assert!(response.ends_with(&format!("\r\n\r\n{expected}")), "{response}");
    server.shutdown();
}

#[test]
fn an_oversized_body_gets_413_and_the_connection_closes() {
    let server = start(AllOutside, ServeConfig::default(), "127.0.0.1:0").unwrap();
    // the declared body is never sent: the server refuses it from the
    // head alone and must say that it hangs up
    let response =
        exchange(server.addr(), b"POST /v1/tag HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 413 Payload Too Large\r\n"), "{response}");
    assert!(response.contains("Connection: close\r\n"), "{response}");
    assert!(response.ends_with("request body too large\n"), "{response}");
    server.shutdown();
}

#[test]
fn conflicting_content_lengths_get_one_400_and_the_connection_closes() {
    let server = start(AllOutside, ServeConfig::default(), "127.0.0.1:0").unwrap();
    // read with the first length, the body's tail is a request of its
    // own; one 400 and a close is the only answer that cannot desync
    let smuggled = "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    let body = format!("the WT{smuggled}");
    let request = format!(
        "POST /v1/tag HTTP/1.1\r\nContent-Length: 6\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    let response = exchange(server.addr(), request.as_bytes());
    assert_eq!(response.matches("HTTP/1.1 ").count(), 1, "{response}");
    assert!(response.starts_with("HTTP/1.1 400 Bad Request\r\n"), "{response}");
    assert!(response.contains("Connection: close\r\n"), "{response}");
    server.shutdown();
}

#[test]
fn a_request_stalled_past_the_poll_gets_408_and_the_connection_closes() {
    let server = start(AllOutside, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut stream = connect(server.addr());
    stream.write_all(b"GET /healthz HTTP/1.1\r\nContent-Le").expect("write head start");
    std::thread::sleep(PAUSE);
    // the server may have closed already: a refused tail is fine, a
    // tail parsed as a request of its own is the fault under test
    let _ = stream.write_all(b"ngth: 0\r\nConnection: close\r\n\r\n");
    let mut response = Vec::new();
    match stream.read_to_end(&mut response) {
        Ok(_) => {}
        // the tail can reach the closed socket and draw a reset after
        // the response was delivered; either way the server hung up
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("reading the response failed: {e}"),
    }
    let response = String::from_utf8(response).expect("response is UTF-8");
    assert!(response.starts_with("HTTP/1.1 408 Request Timeout\r\n"), "{response}");
    assert!(response.contains("Connection: close\r\n"), "{response}");
    assert!(response.ends_with("request stalled before it was complete\n"), "{response}");
    server.shutdown();
}

#[test]
fn a_pause_between_keep_alive_requests_is_an_idle_poll() {
    let server = start(AllOutside, ServeConfig::default(), "127.0.0.1:0").unwrap();
    let mut stream = connect(server.addr());
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write first request");
    let first = read_response(&mut reader);
    assert!(first.starts_with("HTTP/1.1 200 OK\r\n") && first.ends_with("\r\n\r\nok\n"), "{first}");
    std::thread::sleep(PAUSE);
    stream.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").expect("write second request");
    let second = read_response(&mut reader);
    assert_eq!(second, first);
    server.shutdown();
}
