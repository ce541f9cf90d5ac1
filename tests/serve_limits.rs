//! Request-head caps over a real socket: a client that sends too many
//! header lines, or one header line longer than the cap, gets 431 and
//! a closed connection, and the server goes on answering other
//! clients.

#![allow(
    clippy::expect_used,
    reason = "test helpers outside #[test] functions fail the test by panicking"
)]

use std::io::{Read, Write};
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
    let mut stream = TcpStream::connect(addr).expect("connect to in-process server");
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("set read timeout");
    stream.write_all(raw).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("server closes the connection");
    String::from_utf8(response).expect("response is UTF-8")
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
