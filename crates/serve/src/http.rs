//! A minimal HTTP/1.1 layer: exactly the subset the job API needs.
//!
//! Requests are read head-first (request line + headers, CRLF-delimited)
//! with a `Content-Length`-framed body; responses always close the
//! connection (`Connection: close`), which keeps the framing trivial and
//! matches the one-request-per-job usage pattern of the load generator
//! and CI smoke tests. No chunked encoding, no keep-alive, no TLS.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Cap on request head + body: jobs are small JSON documents.
const MAX_HEAD_BYTES: usize = 16 * 1024;
const MAX_BODY_BYTES: usize = 1024 * 1024;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// The [`read_request`] error for a client that stalled past the
/// socket's read timeout (respond 408 and close).
pub const TIMED_OUT: &str = "request timed out";

/// Read one request from the stream. `Err` strings other than
/// [`TIMED_OUT`] are protocol-level (respond 400 and close).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, String> {
    // Read until the blank line terminating the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err("request head too large".into());
        }
        let n = read_chunk(stream, &mut chunk)?;
        if n == 0 {
            return Err("connection closed mid-head".into());
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8(buf[..head_end].to_vec()).map_err(|_| "head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or("empty request")?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().ok_or("missing method")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| {
            l.split_once(':')
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        })
        .collect();

    let content_length: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().map_err(|_| "bad Content-Length"))
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err("body too large".into());
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_chunk(stream, &mut chunk)?;
        if n == 0 {
            return Err("connection closed mid-body".into());
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        headers,
        body: String::from_utf8(body).map_err(|_| "body is not UTF-8")?,
    })
}

fn read_chunk(stream: &mut TcpStream, chunk: &mut [u8]) -> Result<usize, String> {
    stream.read(chunk).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => TIMED_OUT.to_string(),
        _ => e.to_string(),
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into(),
        }
    }

    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain".into())],
            body: body.into(),
        }
    }

    /// Client-facing error as a JSON envelope.
    pub fn error(status: u16, message: &str) -> Response {
        let escaped = message.replace('\\', "\\\\").replace('"', "\\\"");
        Response::json(status, format!("{{\"error\":\"{escaped}\"}}"))
    }

    pub fn header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (k, v) in &self.headers {
            head.push_str(&format!("{k}: {v}\r\n"));
        }
        head.push_str(&format!(
            "Content-Length: {}\r\nConnection: close\r\n\r\n",
            self.body.len()
        ));
        stream.write_all(head.as_bytes())?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }
}

/// A tiny blocking client for the load generator and tests: one request,
/// one response, connection closed.
pub struct ClientResponse {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: String,
}

impl ClientResponse {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<ClientResponse, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| e.to_string())?;
    stream
        .write_all(body.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let raw = String::from_utf8(raw).map_err(|_| "response is not UTF-8")?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("malformed response (no head terminator)")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or("empty response")?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    Ok(ClientResponse {
        status,
        headers: lines
            .filter_map(|l| {
                l.split_once(':')
                    .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
            })
            .collect(),
        body: body.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn request_response_round_trip_over_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/job");
            assert_eq!(req.body, "{\"kind\":\"figure\",\"figure\":8}");
            Response::json(200, "{\"ok\":true}")
                .header("X-Cache", "miss")
                .write_to(&mut s)
                .unwrap();
        });
        let resp = request(
            &addr,
            "POST",
            "/job",
            Some("{\"kind\":\"figure\",\"figure\":8}"),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-cache"), Some("miss"));
        assert_eq!(resp.body, "{\"ok\":true}");
    }

    #[test]
    fn bodyless_get_parses() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let req = read_request(&mut s).unwrap();
            assert_eq!((req.method.as_str(), req.path.as_str()), ("GET", "/stats"));
            assert!(req.body.is_empty());
            Response::text(200, "ok").write_to(&mut s).unwrap();
        });
        let resp = request(&addr, "GET", "/stats", None).unwrap();
        server.join().unwrap();
        assert_eq!((resp.status, resp.body.as_str()), (200, "ok"));
    }
}
