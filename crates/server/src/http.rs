//! Minimal HTTP/1.1 framing over blocking streams.
//!
//! The vendor tree has no hyper/axum/tokio, and the daemon's needs are
//! narrow: parse `METHOD /path HTTP/1.1` plus headers, honor
//! `Content-Length` bodies up to a configured cap, and write fixed
//! `Content-Length` responses with keep-alive. Anything outside that
//! subset (any `Transfer-Encoding`, upgrades, multi-line headers) is
//! rejected with a typed error *before* the request can reach the engine.
//!
//! A request allocates what it returns: the head is scanned a line at a
//! time out of the reader's own buffer into one `String`, the body into
//! one `Vec`, and a response is rendered into one pre-sized `Vec`.

use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::json::decimal;

/// Upper bound on a request line or a single header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers per request.
const MAX_HEADERS: usize = 64;
/// Once a request's first byte has arrived, the rest of it must land
/// within this budget or the request is answered 408 — a stalled
/// mid-request client may not pin a worker forever.
const REQUEST_DEADLINE: Duration = Duration::from_secs(30);
/// Initial capacity of a request's head buffer; the daemon's own client
/// sends ~70 bytes, curl ~150.
const HEAD_HINT: usize = 256;

/// A parsed request. Header names are lower-cased at parse time.
#[derive(Debug)]
pub struct Request {
    /// The request line and the header lines as received, terminators
    /// included, without the blank line that ends them.
    head: String,
    method_end: usize,
    path_end: usize,
    pub body: Vec<u8>,
    pub keep_alive: bool,
}

impl Request {
    pub fn method(&self) -> &str {
        &self.head[..self.method_end]
    }

    pub fn path(&self) -> &str {
        &self.head[self.method_end + 1..self.path_end]
    }

    /// `(name, value)` per header line, in arrival order, values trimmed.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &str)> {
        let lines = self.head.lines().skip(1);
        lines.filter_map(|l| l.split_once(':').map(|(k, v)| (k, v.trim())))
    }
}

/// Why a request could not be framed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly before sending a request.
    Closed,
    /// The socket's read timeout fired before the request's first byte
    /// arrived. Not an error: the caller may park or requeue the idle
    /// connection and serve other work. Only returned when the stream
    /// has a read timeout set.
    Idle,
    /// A request started arriving but did not complete within the
    /// deadline — the stream position is unreliable, answer 408 and
    /// close.
    Timeout,
    /// The stream ended mid-request (truncated line or short body).
    Truncated,
    /// The request line is not `METHOD SP PATH SP HTTP/1.x`.
    BadRequestLine,
    /// A header line has no `:` separator or exceeds the line cap, or
    /// the request carries a `Transfer-Encoding`.
    BadHeader,
    /// `Content-Length` is missing on a bodied method, repeated, or not
    /// a decimal integer.
    BadContentLength,
    /// The declared body length exceeds the configured cap.
    BodyTooLarge { declared: usize, limit: usize },
    /// The transport failed underneath us.
    Io(io::Error),
}

impl HttpError {
    /// The status code this framing error answers with, if the
    /// connection is still in a state where a response can be written.
    pub(crate) fn status(&self) -> Option<u16> {
        match self {
            HttpError::Closed | HttpError::Idle | HttpError::Io(_) => None,
            HttpError::Timeout => Some(408),
            HttpError::Truncated => Some(400),
            HttpError::BadRequestLine => Some(400),
            HttpError::BadHeader => Some(400),
            HttpError::BadContentLength => Some(400),
            HttpError::BodyTooLarge { .. } => Some(413),
        }
    }

    pub(crate) fn code(&self) -> &'static str {
        match self {
            HttpError::Closed => "closed",
            HttpError::Idle => "idle",
            HttpError::Timeout => "request_timeout",
            HttpError::Truncated => "truncated_request",
            HttpError::BadRequestLine => "bad_request_line",
            HttpError::BadHeader => "bad_header",
            HttpError::BadContentLength => "bad_content_length",
            HttpError::BodyTooLarge { .. } => "payload_too_large",
            HttpError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::Idle => write!(f, "connection idle"),
            HttpError::Timeout => write!(f, "request did not complete in time"),
            HttpError::Truncated => write!(f, "truncated request"),
            HttpError::BadRequestLine => write!(f, "malformed request line"),
            HttpError::BadHeader => write!(f, "malformed header"),
            HttpError::BadContentLength => write!(f, "missing or invalid content-length"),
            HttpError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds limit {limit}")
            }
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Decides what a timed-out read means, given how far into the request
/// we are. The deadline starts at the request's first byte, so a
/// connection can sit idle indefinitely without tripping it.
fn on_timeout(
    started: bool,
    shutdown: &AtomicBool,
    deadline: &Option<Instant>,
) -> Result<(), HttpError> {
    if shutdown.load(Ordering::SeqCst) {
        return Err(HttpError::Closed);
    }
    if !started {
        return Err(HttpError::Idle);
    }
    match deadline {
        Some(d) if Instant::now() >= *d => Err(HttpError::Timeout),
        _ => Ok(()), // retry the read
    }
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Appends one line, terminator included, to `head` — a slice of the
/// reader's buffer at a time, never a byte — and returns where its
/// content ends: before the `\n` and one optional `\r`.
fn read_line<R: BufRead>(
    r: &mut R,
    head: &mut Vec<u8>,
    shutdown: &AtomicBool,
    deadline: &mut Option<Instant>,
) -> Result<usize, HttpError> {
    let start = head.len();
    loop {
        // One byte past the cap tells an over-long line from a full one.
        let room = MAX_LINE + 1 - (head.len() - start);
        let read = r.by_ref().take(room as u64).read_until(b'\n', head);
        if deadline.is_none() && !head.is_empty() {
            *deadline = Some(Instant::now() + REQUEST_DEADLINE);
        }
        match read {
            Ok(0) if head.is_empty() => return Err(HttpError::Closed),
            Ok(0) => return Err(HttpError::Truncated),
            Ok(_) => match head[start..] {
                [.., b'\r', b'\n'] => return Ok(head.len() - 2),
                [.., b'\n'] => return Ok(head.len() - 1),
                _ if head.len() - start > MAX_LINE => return Err(HttpError::BadHeader),
                _ => {} // the stream ended mid-line: the next read says so
            },
            Err(e) if is_timeout(e.kind()) => on_timeout(!head.is_empty(), shutdown, deadline)?,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// `read_exact` that retries socket-timeout ticks (checking shutdown and
/// the request deadline each time) instead of aborting mid-body.
fn read_full<R: BufRead>(
    r: &mut R,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    deadline: &Option<Instant>,
) -> Result<(), HttpError> {
    let mut pos = 0;
    while pos < buf.len() {
        match r.read(&mut buf[pos..]) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(n) => pos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => on_timeout(true, shutdown, deadline)?,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(())
}

/// Reads and frames one request from the stream.
///
/// `max_body` caps the *declared* body size: an oversized
/// `Content-Length` is rejected without reading the body, so a hostile
/// client cannot make the daemon buffer arbitrary bytes.
///
/// When the stream has a read timeout set, a timeout before the first
/// byte returns [`HttpError::Idle`] (requeue the connection), and a
/// request that stalls after starting returns [`HttpError::Timeout`]
/// after [`REQUEST_DEADLINE`]. `shutdown` is checked on every timeout
/// tick so a blocked read never outlives the daemon.
pub fn read_request<R: BufRead>(
    r: &mut R,
    max_body: usize,
    shutdown: &AtomicBool,
) -> Result<Request, HttpError> {
    let mut deadline = None;
    let mut head = Vec::with_capacity(HEAD_HINT);
    let end = read_line(r, &mut head, shutdown, &mut deadline)?;
    let line = std::str::from_utf8(&head[..end]).map_err(|_| HttpError::BadHeader)?;
    let mut parts = line.as_bytes().split(|&b| b == b' ');
    let method = parts.next().unwrap_or_default();
    let path = parts.next().unwrap_or_default();
    let version = parts.next().unwrap_or_default();
    if method.is_empty()
        || path.is_empty()
        || parts.next().is_some()
        || !(version == b"HTTP/1.1" || version == b"HTTP/1.0")
        || !method.iter().all(|b| b.is_ascii_uppercase())
        || path[0] != b'/'
    {
        return Err(HttpError::BadRequestLine);
    }
    let (method_end, path_end) = (method.len(), method.len() + 1 + path.len());
    let bodied = method == b"POST" || method == b"PUT";
    let mut keep_alive = version == b"HTTP/1.1";

    // The three headers framing depends on are read off as their lines
    // pass: the first `Connection`, any `Transfer-Encoding`, and every
    // `Content-Length` (counted; the value matters only if it is alone).
    let (mut n_headers, mut n_lengths) = (0, 0);
    let (mut saw_connection, mut saw_encoding, mut length) = (false, false, None);
    loop {
        let start = head.len();
        let end = read_line(r, &mut head, shutdown, &mut deadline)?;
        if end == start {
            head.truncate(start);
            break;
        }
        let line = std::str::from_utf8(&head[start..end]).map_err(|_| HttpError::BadHeader)?;
        let colon = line.bytes().position(|b| b == b':');
        let (name, value) = match colon {
            Some(at) if at > 0 => (&line[..at], &line[at + 1..]),
            _ => return Err(HttpError::BadHeader),
        };
        n_headers += 1;
        if name.contains(' ') || n_headers > MAX_HEADERS {
            return Err(HttpError::BadHeader);
        }
        if name.eq_ignore_ascii_case("content-length") {
            n_lengths += 1;
            length = content_length(value.trim());
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            saw_encoding = true;
        } else if name.eq_ignore_ascii_case("connection") && !saw_connection {
            saw_connection = true;
            let value = value.trim();
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
        let name_end = start + name.len();
        head[start..name_end].make_ascii_lowercase();
    }
    if saw_encoding {
        return Err(HttpError::BadHeader);
    }
    let declared = match n_lengths {
        0 if bodied => return Err(HttpError::BadContentLength),
        0 => 0,
        1 => length.ok_or(HttpError::BadContentLength)?,
        _ => return Err(HttpError::BadContentLength), // repeated header
    };
    if declared > max_body {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; declared];
    read_full(r, &mut body, shutdown, &deadline)?;
    Ok(Request {
        // Every line was validated on its own; the terminators are ASCII.
        head: String::from_utf8(head).map_err(|_| HttpError::BadHeader)?,
        method_end,
        path_end,
        body,
        keep_alive,
    })
}

/// A `Content-Length` value: `1*DIGIT` (RFC 9110), so no sign, no blank.
pub(crate) fn content_length(value: &str) -> Option<usize> {
    if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    value.parse().ok()
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Renders a complete fixed-length response as wire bytes: head and
/// body in one buffer, so a response is one socket write.
pub fn encode_response(status: u16, content_type: &str, body: &[u8], keep_alive: bool) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + content_type.len() + body.len());
    let mut digits = [0u8; 20];
    out.extend_from_slice(b"HTTP/1.1 ");
    out.extend_from_slice(decimal(status.into(), &mut digits).as_bytes());
    out.push(b' ');
    out.extend_from_slice(reason(status).as_bytes());
    out.extend_from_slice(b"\r\nContent-Type: ");
    out.extend_from_slice(content_type.as_bytes());
    out.extend_from_slice(b"\r\nContent-Length: ");
    out.extend_from_slice(decimal(body.len() as u64, &mut digits).as_bytes());
    out.extend_from_slice(b"\r\nConnection: ");
    let connection: &[u8] = if keep_alive { b"keep-alive" } else { b"close" };
    out.extend_from_slice(connection);
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body);
    out
}

/// Writes a complete fixed-length response.
pub(crate) fn write_response<W: Write>(
    w: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    w.write_all(&encode_response(status, content_type, body, keep_alive))?;
    w.flush()
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let shutdown = AtomicBool::new(false);
        read_request(&mut BufReader::new(bytes), max_body, &shutdown)
    }

    #[test]
    fn parses_post_with_body_and_keep_alive() {
        let req = parse(
            b"POST /v1/admit HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.method(), "POST");
        assert_eq!(req.path(), "/v1/admit");
        assert_eq!(req.body, b"abcd");
        assert!(req.keep_alive);
        assert!(req.headers().any(|h| h == ("host", "x")));
    }

    #[test]
    fn connection_close_disables_keep_alive() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n", 64).unwrap();
        assert!(!req.keep_alive);
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_oversized_declared_body_without_reading_it() {
        let e = parse(
            b"POST /v1/admit HTTP/1.1\r\nContent-Length: 999999\r\n\r\n",
            128,
        )
        .unwrap_err();
        match e {
            HttpError::BodyTooLarge { declared, limit } => {
                assert_eq!(declared, 999_999);
                assert_eq!(limit, 128);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
        assert_eq!(e.status(), Some(413));
    }

    #[test]
    fn rejects_truncated_body_and_bad_lengths() {
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc", 64),
            Err(HttpError::Truncated)
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n", 64),
            Err(HttpError::BadContentLength)
        ));
        // `1*DIGIT`: what `usize::from_str` would also take is refused.
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\nContent-Length: +4\r\n\r\nabcd", 64),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(
            parse(b"POST /x HTTP/1.1\r\n\r\n", 64),
            Err(HttpError::BadContentLength)
        ));
        assert!(matches!(
            parse(
                b"POST /x HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nab",
                64
            ),
            Err(HttpError::BadContentLength)
        ));
    }

    #[test]
    fn rejects_any_transfer_encoding() {
        // Framed by its Content-Length, the chunk header would have
        // been handed to the engine as the body.
        for wire in [
            &b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\nContent-Length: 5\r\n\r\n0\r\n\r\n"[..],
            b"GET /x HTTP/1.1\r\ntransfer-encoding: identity\r\n\r\n",
        ] {
            let e = parse(wire, 64).unwrap_err();
            assert!(matches!(e, HttpError::BadHeader), "got {e:?}");
            assert_eq!((e.status(), e.code()), (Some(400), "bad_header"));
        }
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for bad in [
            &b"GARBAGE\r\n\r\n"[..],
            b"GET /x HTTP/2.0\r\n\r\n",
            b"get /x HTTP/1.1\r\n\r\n",
            b"GET x HTTP/1.1\r\n\r\n",
            b"GET /x HTTP/1.1 extra\r\n\r\n",
        ] {
            assert!(
                matches!(parse(bad, 64), Err(HttpError::BadRequestLine)),
                "accepted {:?}",
                std::str::from_utf8(bad)
            );
        }
        assert!(matches!(parse(b"", 64), Err(HttpError::Closed)));
        assert!(matches!(parse(b"GET /x HT", 64), Err(HttpError::Truncated)));
    }

    #[test]
    fn response_wire_format_is_exact() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "application/json", b"{}", true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}"
        );
    }
}
