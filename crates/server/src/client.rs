//! A blocking keep-alive HTTP client for the daemon's own endpoints.
//!
//! Used by the integration suite, the `serve_bench` driver, and the
//! `bursty serve-replay` CLI — anything that needs to speak to the
//! daemon without pulling an HTTP dependency into the tree.
//!
//! The connection owns the buffer a request is rendered into and the one
//! response head lines are read through, so an exchange allocates only
//! the [`Response::body`] it returns.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};

use crate::http::content_length;
use bursty_obs::json::{decimal, Json, JsonError};

/// One keep-alive connection to the daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The rendered request of the exchange in flight.
    out: Vec<u8>,
    /// The response head line being read.
    line: String,
}

/// A decoded response: status plus raw body.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

impl Response {
    pub fn json(&self) -> Result<Json, JsonError> {
        Json::parse(&self.body)
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Renders a request as wire bytes over whatever `out` held, head and
/// body in one buffer: on a `TCP_NODELAY` socket every write is a
/// segment of its own, and a request split in two costs the server a
/// second read.
fn render_request(out: &mut Vec<u8>, method: &str, path: &str, body: &str) {
    out.clear();
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: bursty\r\nContent-Length: ");
    out.extend_from_slice(decimal(body.len() as u64, &mut [0u8; 20]).as_bytes());
    out.extend_from_slice(b"\r\n\r\n");
    out.extend_from_slice(body.as_bytes());
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
            out: Vec::new(),
            line: String::new(),
        })
    }

    pub fn get(&mut self, path: &str) -> io::Result<Response> {
        self.request("GET", path, None)
    }

    pub fn post(&mut self, path: &str, body: &Json) -> io::Result<Response> {
        self.request("POST", path, Some(&body.encode()))
    }

    /// Sends one request and reads the full response.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<Response> {
        render_request(&mut self.out, method, path, body.unwrap_or(""));
        self.writer.write_all(&self.out)?;
        self.read_response()
    }

    /// Writes raw bytes and reads one response — for the malformed-input
    /// matrix, which needs to send deliberately broken framing.
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<Response> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Like [`Client::send_raw`] but half-closes the write side after
    /// sending, so the server sees EOF — a truncated body would
    /// otherwise block it waiting for the declared remainder.
    pub fn send_raw_eof(&mut self, bytes: &[u8]) -> io::Result<Response> {
        self.writer.write_all(bytes)?;
        self.writer.flush()?;
        self.writer.shutdown(std::net::Shutdown::Write)?;
        self.read_response()
    }

    /// Reads one head line into `self.line` and returns it unterminated.
    fn read_line(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end_matches(['\r', '\n']))
    }

    fn read_response(&mut self) -> io::Result<Response> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut declared = 0usize;
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    declared = content_length(value.trim()).ok_or_else(|| {
                        io::Error::new(io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                }
            }
        }
        let mut body = vec![0u8; declared];
        self.reader.read_exact(&mut body)?;
        Ok(Response { status, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_wire_format_is_exact() {
        let mut out = b"whatever the last exchange left".to_vec();
        render_request(&mut out, "POST", "/v1/depart", r#"{"id":7,"seq":3}"#);
        assert_eq!(
            out,
            b"POST /v1/depart HTTP/1.1\r\nHost: bursty\r\nContent-Length: 16\r\n\r\n{\"id\":7,\"seq\":3}"
        );
        // A body-less GET still declares its (zero) length.
        render_request(&mut out, "GET", "/healthz", "");
        assert_eq!(
            out,
            b"GET /healthz HTTP/1.1\r\nHost: bursty\r\nContent-Length: 0\r\n\r\n"
        );
    }
}
