//! A deliberately minimal HTTP/1.1 codec — just enough protocol for
//! `POST /v1/tag`, `GET /healthz`, and `GET /metrics` over keep-alive
//! connections, per the workspace's zero-dependency policy.
//!
//! Supported: request line + headers (each line capped at
//! [`MAX_HEADER_LINE_BYTES`], at most [`MAX_HEADERS`] headers),
//! `Content-Length` bodies (capped at [`MAX_BODY_BYTES`]),
//! `Connection: close`. Not supported (and answered with an error
//! rather than misparsed): any `Transfer-Encoding` (501), continuation
//! lines, heads or bodies above the caps (431, 413).

use std::io::{self, BufRead, Read, Write};

/// Largest request body accepted — 1 MiB of newline-delimited
/// sentences is far beyond any sane tagging request and keeps one
/// client from ballooning server memory.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest request or header line accepted, line ending included. The
/// reader never buffers more than this per line, so a newline-free
/// stream cannot grow server memory.
pub const MAX_HEADER_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;

/// A parse/transport failure while reading one request.
#[derive(Debug)]
pub enum HttpError {
    /// Socket-level failure (includes read timeouts).
    Io(io::Error),
    /// The peer closed the connection cleanly between requests.
    Eof,
    /// Structurally invalid request; the message names the defect.
    Malformed(&'static str),
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge(usize),
    /// The request carries a `Transfer-Encoding` (e.g. chunked). Its
    /// body is left unread, so the connection cannot be reused.
    TransferEncoding,
    /// A request or header line exceeds [`MAX_HEADER_LINE_BYTES`], or
    /// there are more than [`MAX_HEADERS`] headers; the message names
    /// which. The rest of the head is left unread.
    HeaderTooLarge(&'static str),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Eof => write!(f, "connection closed"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::BodyTooLarge(n) => {
                write!(f, "request body of {n} bytes exceeds the {MAX_BODY_BYTES}-byte cap")
            }
            HttpError::TransferEncoding => {
                write!(f, "transfer-encoding is not supported; send a content-length body")
            }
            HttpError::HeaderTooLarge(what) => write!(f, "request head too large: {what}"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> HttpError {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, …).
    pub method: String,
    /// Request target as sent (no query parsing; the server's routes
    /// carry none).
    pub path: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, empty unless `Content-Length` said otherwise.
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to drop the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection").is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read one CRLF- (or bare-LF-) terminated line, without the ending,
/// consuming at most [`MAX_HEADER_LINE_BYTES`]; `what` names the line
/// in the [`HttpError::HeaderTooLarge`] a longer one gets.
fn read_line(reader: &mut impl BufRead, what: &'static str) -> Result<String, HttpError> {
    let mut line = Vec::new();
    let n = reader.take(MAX_HEADER_LINE_BYTES as u64).read_until(b'\n', &mut line)?;
    if n == 0 {
        return Err(HttpError::Eof);
    }
    if n == MAX_HEADER_LINE_BYTES && !line.ends_with(b"\n") {
        return Err(HttpError::HeaderTooLarge(what));
    }
    while line.ends_with(b"\n") || line.ends_with(b"\r") {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| HttpError::Malformed("request head is not UTF-8"))
}

/// Parse one request off the wire. Blocks until a full request (or the
/// reader's own timeout) arrives; [`HttpError::Eof`] on a connection
/// the peer closed between requests.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = read_line(reader, "request line too long")?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v)) => (m, p, v),
        _ => return Err(HttpError::Malformed("request line needs METHOD PATH VERSION")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("only HTTP/1.x is spoken here"));
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, "header line too long")?;
        if line.is_empty() {
            break;
        }
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::HeaderTooLarge("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header line without a colon"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request { method, path, headers, body: Vec::new() };
    if request.header("transfer-encoding").is_some() {
        return Err(HttpError::TransferEncoding);
    }
    // Every `Content-Length` must be `1*DIGIT` (`usize::parse` alone
    // also takes a `+`), and repeats must agree: a body length the
    // parser and a peer could read differently desyncs keep-alive.
    let mut content_length = None;
    for (_, value) in request.headers.iter().filter(|(name, _)| name == "content-length") {
        let n = match value.parse::<usize>() {
            Ok(n) if value.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(HttpError::Malformed("unparseable content-length")),
        };
        if content_length.is_some_and(|seen| seen != n) {
            return Err(HttpError::Malformed("conflicting content-length headers"));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { body, ..request })
}

/// Reason phrase for the handful of statuses the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Write one response, always with an explicit `Content-Length` so
/// keep-alive framing stays unambiguous. The whole response is
/// assembled first and written in one call: one packet per response
/// instead of a header/body dribble that trips Nagle + delayed-ACK
/// stalls on the 40 ms scale.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut response = Vec::with_capacity(128 + body.len());
    let _ = write!(response, "HTTP/1.1 {} {}\r\n", status, reason(status));
    let _ = write!(response, "Content-Length: {}\r\n", body.len());
    let _ = write!(response, "Content-Type: text/plain; charset=utf-8\r\n");
    for (name, value) in extra_headers {
        let _ = write!(response, "{name}: {value}\r\n");
    }
    let _ = write!(response, "\r\n");
    response.extend_from_slice(body);
    writer.write_all(&response)?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /v1/tag HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\nthe WT1 g";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/tag");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"the WT1 g");
        assert!(!req.wants_close());
    }

    #[test]
    fn parses_bare_lf_and_connection_close() {
        let raw = b"GET /healthz HTTP/1.0\nConnection: close\n\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_eof() {
        assert!(matches!(parse(b""), Err(HttpError::Eof)));
        assert!(matches!(parse(b"nonsense\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(parse(b"GET / SPDY/3\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: pony\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /\xff HTTP/1.1\r\n\r\n"),
            Err(HttpError::Malformed("request head is not UTF-8"))
        ));
    }

    #[test]
    fn content_length_must_be_digits_and_agree() {
        let with = |lengths: &[&str]| {
            let headers: String =
                lengths.iter().map(|v| format!("Content-Length: {v}\r\n")).collect();
            parse(format!("POST / HTTP/1.1\r\n{headers}\r\nthe WT1 gene").as_bytes())
        };
        assert!(matches!(with(&["6", "31"]), Err(HttpError::Malformed(_))));
        assert!(matches!(with(&["+6"]), Err(HttpError::Malformed(_))));
        assert!(matches!(with(&["6", "+6"]), Err(HttpError::Malformed(_))));
        assert_eq!(with(&["6", "6"]).unwrap().body, b"the WT");
    }

    #[test]
    fn rejects_oversized_bodies_before_reading_them() {
        let raw = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        assert!(matches!(parse(raw.as_bytes()), Err(HttpError::BodyTooLarge(_))));
    }

    #[test]
    fn rejects_transfer_encoding_without_reading_the_body() {
        let raw =
            b"POST /v1/tag HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpError::TransferEncoding)));
    }

    /// Parse a head that must be refused as too large from a plain byte
    /// slice (no read-ahead buffer); returns which cap it hit and how
    /// many bytes the parser consumed.
    fn refused_head(raw: &[u8]) -> (&'static str, usize) {
        let mut rest = raw;
        match read_request(&mut rest) {
            Err(HttpError::HeaderTooLarge(what)) => (what, raw.len() - rest.len()),
            other => panic!("expected HeaderTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn rejects_over_long_lines_without_reading_past_the_cap() {
        let long = vec![b'a'; 2 * MAX_HEADER_LINE_BYTES];
        let request_line = [b"GET /".as_slice(), &long].concat();
        assert_eq!(refused_head(&request_line), ("request line too long", MAX_HEADER_LINE_BYTES));

        let head = b"GET / HTTP/1.1\r\n";
        let header_line = [head.as_slice(), b"X-Long: ", &long].concat();
        let cap = head.len() + MAX_HEADER_LINE_BYTES;
        assert_eq!(refused_head(&header_line), ("header line too long", cap));

        // a line of exactly the cap, ending included, is accepted
        let fits = format!("GET /{} HTTP/1.1\r\n", "a".repeat(MAX_HEADER_LINE_BYTES - 16));
        assert_eq!(fits.len(), MAX_HEADER_LINE_BYTES);
        assert!(parse(format!("{fits}\r\n").as_bytes()).is_ok());
    }

    #[test]
    fn rejects_too_many_headers_without_reading_past_the_cap() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..MAX_HEADERS {
            raw.push_str(&format!("X-H{i}: v\r\n"));
        }
        assert!(parse(format!("{raw}\r\n").as_bytes()).is_ok());
        raw.push_str("X-Extra: v\r\n");
        let head = raw.len();
        raw.push_str("X-Unread: v\r\n\r\n");
        assert_eq!(refused_head(raw.as_bytes()), ("too many headers", head));
    }

    #[test]
    fn response_carries_length_and_extra_headers() {
        let mut out = Vec::new();
        write_response(&mut out, 429, &[("Retry-After", "1")], b"busy\n").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.ends_with("\r\nbusy\n"));
    }
}
