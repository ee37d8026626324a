//! The byte-at-a-time framer [`read_request`](super::read_request)
//! replaced, kept as its test oracle, and the differential fuzz that
//! holds the two together: same `Ok` or same error, same bytes consumed,
//! for arbitrary and mutated-valid streams dribbled out a few bytes per
//! `fill_buf`.

use std::io::{self, BufRead, Read};
use std::sync::atomic::AtomicBool;
use std::time::Instant;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{
    content_length, is_timeout, on_timeout, read_full, HttpError, Request, MAX_HEADERS, MAX_LINE,
    REQUEST_DEADLINE,
};

/// What the oracle frames: the fields `Request` had before its head
/// moved into one buffer.
#[derive(Debug, PartialEq)]
struct Framed {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
    keep_alive: bool,
}

impl From<&Request> for Framed {
    fn from(req: &Request) -> Self {
        let own = |(k, v): (&str, &str)| (k.to_string(), v.to_string());
        Framed {
            method: req.method().to_string(),
            path: req.path().to_string(),
            headers: req.headers().map(own).collect(),
            body: req.body.clone(),
            keep_alive: req.keep_alive,
        }
    }
}

/// Reads one CRLF- (or bare-LF-) terminated line, without the terminator.
fn read_line<R: BufRead>(
    r: &mut R,
    first: bool,
    shutdown: &AtomicBool,
    deadline: &mut Option<Instant>,
) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if first && buf.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Truncated);
            }
            Ok(_) => {
                if deadline.is_none() {
                    *deadline = Some(Instant::now() + REQUEST_DEADLINE);
                }
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    return String::from_utf8(buf).map_err(|_| HttpError::BadHeader);
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(HttpError::BadHeader);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout(e.kind()) => {
                on_timeout(!(first && buf.is_empty()), shutdown, deadline)?;
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// The framer as it stood, plus the two rules this module's sibling
/// gained with the rewrite: digits-only `Content-Length`, and no
/// `Transfer-Encoding` at all.
fn read_request<R: BufRead>(
    r: &mut R,
    max_body: usize,
    shutdown: &AtomicBool,
) -> Result<Framed, HttpError> {
    let mut deadline = None;
    let line = read_line(r, true, shutdown, &mut deadline)?;
    let mut parts = line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let path = parts.next().unwrap_or("").to_string();
    let version = parts.next().unwrap_or("");
    if method.is_empty()
        || path.is_empty()
        || parts.next().is_some()
        || !(version == "HTTP/1.1" || version == "HTTP/1.0")
        || !method.bytes().all(|b| b.is_ascii_uppercase())
        || !path.starts_with('/')
    {
        return Err(HttpError::BadRequestLine);
    }
    let mut headers = Vec::new();
    loop {
        let line = read_line(r, false, shutdown, &mut deadline)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').ok_or(HttpError::BadHeader)?;
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader);
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        if headers.len() > MAX_HEADERS {
            return Err(HttpError::BadHeader);
        }
    }

    let mut keep_alive = version == "HTTP/1.1";
    if let Some(c) = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
    {
        if c == "close" {
            keep_alive = false;
        } else if c == "keep-alive" {
            keep_alive = true;
        }
    }
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::BadHeader);
    }

    let lengths: Vec<&str> = headers
        .iter()
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.as_str())
        .collect();
    let body = match (method.as_str(), lengths.len()) {
        ("GET", 0) => Vec::new(),
        (_, 0) if method != "POST" && method != "PUT" => Vec::new(),
        (_, 1) => {
            let declared = content_length(lengths[0]).ok_or(HttpError::BadContentLength)?;
            if declared > max_body {
                return Err(HttpError::BodyTooLarge {
                    declared,
                    limit: max_body,
                });
            }
            let mut body = vec![0u8; declared];
            read_full(r, &mut body, shutdown, &deadline)?;
            body
        }
        (_, 0) => return Err(HttpError::BadContentLength), // bodied method, no length
        _ => return Err(HttpError::BadContentLength),      // repeated header
    };

    Ok(Framed {
        method,
        path,
        headers,
        body,
        keep_alive,
    })
}

/// A stream that hands out 1..=`k` bytes per `fill_buf` and times out
/// once in front of some of them, the way a socket with a read timeout
/// delivers a slow client. Chunk ends and stalls depend on the position
/// alone, so two readers of the same stream see the same deliveries.
struct Dribble<'a> {
    data: &'a [u8],
    pos: usize,
    /// End of the chunk on offer; `pos` when the next one is due.
    end: usize,
    k: usize,
    salt: u64,
    stalled_at: Option<usize>,
}

impl<'a> Dribble<'a> {
    fn new(data: &'a [u8], k: usize, salt: u64) -> Self {
        Dribble {
            data,
            pos: 0,
            end: 0,
            k,
            salt,
            stalled_at: None,
        }
    }

    /// A hash of the position: this stream's only randomness.
    fn draw(&self) -> u64 {
        let z = (self.pos as u64 ^ self.salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z ^ (z >> 29)
    }
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let chunk = self.fill_buf()?;
        let n = chunk.len().min(buf.len());
        buf[..n].copy_from_slice(&chunk[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for Dribble<'_> {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.end && self.pos < self.data.len() {
            if self.draw().is_multiple_of(5) && self.stalled_at != Some(self.pos) {
                self.stalled_at = Some(self.pos);
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let len = 1 + (self.draw() >> 8) as usize % self.k;
            self.end = (self.pos + len).min(self.data.len());
        }
        Ok(&self.data[self.pos..self.end])
    }

    fn consume(&mut self, n: usize) {
        self.pos += n;
        assert!(self.pos <= self.end, "consumed past the chunk on offer");
    }
}

const MAX_BODY: usize = 48;

/// A well-formed request whose shape — method, version, terminators,
/// header mix, body — is drawn from `rng`.
fn valid_request(rng: &mut StdRng) -> Vec<u8> {
    let eol = |rng: &mut StdRng| if rng.gen_bool(0.8) { "\r\n" } else { "\n" };
    let method = ["GET", "POST", "PUT", "DELETE"][rng.gen_range(0..4)];
    let path = ["/healthz", "/v1/admit", "/v1/depart", "/x?y=\u{e9}"][rng.gen_range(0..4)];
    let version = if rng.gen_bool(0.8) { "1.1" } else { "1.0" };
    let mut out = format!("{method} {path} HTTP/{version}{}", eol(rng)).into_bytes();
    let body: Vec<u8> = (0..rng.gen_range(0..MAX_BODY / 2))
        .map(|_| rng.gen_range(0..=255u8))
        .collect();
    for _ in 0..rng.gen_range(0..4) {
        let header = [
            "Host: bursty",
            "Connection: close",
            "connection:  Keep-Alive ",
            "CONNECTION: upgrade",
            "X-Pad:\u{a0}a:b \r",
            "Accept: */*",
        ][rng.gen_range(0..6)];
        out.extend_from_slice(header.as_bytes());
        out.extend_from_slice(eol(rng).as_bytes());
    }
    if !body.is_empty() || method == "POST" || method == "PUT" {
        let name = ["Content-Length", "content-length"][rng.gen_range(0..2)];
        out.extend_from_slice(format!("{name}: {}{}", body.len(), eol(rng)).as_bytes());
    }
    out.extend_from_slice(eol(rng).as_bytes());
    out.extend_from_slice(&body);
    out
}

/// One or two valid requests back to back, then up to three byte-level
/// mutations: drop, duplicate, flip, a framing-relevant header spliced
/// in front of a line, or a line inflated to the line cap.
fn mutated_stream(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = valid_request(&mut rng);
    if rng.gen_bool(0.5) {
        out.extend(valid_request(&mut rng));
    }
    for _ in 0..rng.gen_range(0..4) {
        let at = rng.gen_range(0..out.len());
        match rng.gen_range(0..6) {
            0 => {
                out.remove(at);
            }
            1 => out.insert(at, out[at]),
            2 => out[at] ^= 1 << rng.gen_range(0..8),
            3 => {
                let line = [
                    "Transfer-Encoding: chunked\r\n",
                    "Content-Length: +3\r\n",
                    "Content-Length: 3\r\n",
                    "Content-Length: 99999999999999999999\r\n",
                    "Content-Length: 49\r\n",
                    "Content-Length:\u{a0}3\u{2003}\r\n",
                    "Content Length: 3\r\n",
                    ": 3\r\n",
                ][rng.gen_range(0..8)];
                let at = out[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                out.splice(at..at, line.bytes());
            }
            4 => {
                let pad = MAX_LINE - rng.gen_range(0..40);
                out.splice(at..at, std::iter::repeat_n(b'a', pad));
            }
            _ => {
                let header = "X-N: 1\r\n".repeat(MAX_HEADERS - rng.gen_range(0..2));
                let at = out.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                out.splice(at..at, header.bytes());
            }
        }
        if out.is_empty() {
            break;
        }
    }
    out
}

/// An error in comparable form: its code, and the sizes if it has any.
fn label(e: &HttpError) -> String {
    match e {
        HttpError::BodyTooLarge { declared, limit } => format!("too large: {declared}/{limit}"),
        other => other.code().to_string(),
    }
}

/// Frames `data` to its end with both readers in lock-step: request by
/// request the same outcome and the same stream position.
fn check_stream(data: &[u8], k: usize, salt: u64) -> Result<(), TestCaseError> {
    let never = AtomicBool::new(false);
    let mut new = Dribble::new(data, k, salt);
    let mut old = Dribble::new(data, k, salt);
    loop {
        let before = new.pos;
        let got = super::read_request(&mut new, MAX_BODY, &never);
        if let Ok(req) = &got {
            let bound = (MAX_LINE + 1) * (MAX_HEADERS + 1) + MAX_BODY;
            prop_assert!(req.head.len() + req.body.len() <= bound);
            prop_assert!(new.pos - before <= bound + 2);
        }
        let got = got.as_ref().map(Framed::from).map_err(label);
        let want = read_request(&mut old, MAX_BODY, &never).map_err(|e| label(&e));
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(new.pos, old.pos, "consumed differently on {:?}", got);
        match got {
            // A stall before a request's first byte: the listener would
            // requeue the connection and come back; so does this loop.
            Err(e) if e == "idle" => prop_assert_eq!(new.pos, before),
            Err(_) => return Ok(()),
            Ok(_) => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_frame_like_the_oracle(
        data in proptest::collection::vec(0u8..=255, 0..200),
        k in 1usize..40,
        salt in 0u64..u64::MAX,
    ) {
        check_stream(&data, k, salt)?;
    }

    #[test]
    fn arbitrary_lines_frame_like_the_oracle(
        // Mostly printable, newline-rich: gets past the request line.
        data in proptest::collection::vec(0usize..48, 0..120),
        k in 1usize..40,
        salt in 0u64..u64::MAX,
    ) {
        let alphabet = b"GET POST /v1 HTTP/1.1\r\n\n\n: :Content-Length0123\xc3\xa9\xff";
        let data: Vec<u8> = data.iter().map(|&i| alphabet[i % alphabet.len()]).collect();
        check_stream(&data, k, salt)?;
    }

    #[test]
    fn mutated_valid_requests_frame_like_the_oracle(
        seed in 0u64..u64::MAX,
        k in 1usize..600,
        salt in 0u64..u64::MAX,
    ) {
        check_stream(&mutated_stream(seed), k, salt)?;
    }
}

#[test]
fn the_head_limits_sit_where_they_sat() {
    let never = AtomicBool::new(false);
    let frame = |wire: &[u8]| {
        let (mut new, mut old) = (wire, wire);
        let got = super::read_request(&mut new, MAX_BODY, &never);
        let want = read_request(&mut old, MAX_BODY, &never);
        assert_eq!(got.is_ok(), want.is_ok());
        assert_eq!(new.len(), old.len());
        (got, wire.len() - new.len())
    };
    // A full line and a full header list pass: the head is as large as
    // it can get, and that is the whole of what was buffered.
    let full_line = format!("X: {}\r\n", "a".repeat(MAX_LINE - 4));
    assert_eq!(full_line.len(), MAX_LINE + 1);
    let wire = format!("GET / HTTP/1.1\r\n{}\r\n", full_line.repeat(MAX_HEADERS));
    let (got, _) = frame(wire.as_bytes());
    assert_eq!(got.unwrap().head.len(), wire.len() - 2);
    // One header more, or one byte more in a line, is refused — the
    // long line after exactly one byte past the cap.
    let wire = format!(
        "GET / HTTP/1.1\r\n{}\r\n",
        "X: 1\r\n".repeat(MAX_HEADERS + 1)
    );
    assert!(matches!(
        frame(wire.as_bytes()).0,
        Err(HttpError::BadHeader)
    ));
    let wire = format!("GET / HTTP/1.1\r\nX: {}\r\n\r\n", "a".repeat(MAX_LINE - 2));
    let (got, consumed) = frame(wire.as_bytes());
    assert!(matches!(got, Err(HttpError::BadHeader)));
    assert_eq!(consumed, "GET / HTTP/1.1\r\n".len() + MAX_LINE + 1);
}
