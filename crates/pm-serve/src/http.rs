//! A deliberately small HTTP/1.1 implementation: exactly what the query
//! service needs — request parsing with hard limits and a response writer.
//! Connections are keep-alive by default (HTTP/1.1 semantics): a client's
//! `Connection: close`, an HTTP/1.0 request without `keep-alive`, any error
//! status, or the server's per-connection request cap ends the session. No
//! chunked bodies — requests and responses are `Content-Length`-delimited,
//! which is what keeps pipelined parsing trivial.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

/// Hard cap on any single header/request line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Hard cap on the number of headers.
const MAX_HEADERS: usize = 64;
/// Hard cap on a request body (annotate payloads are small).
pub const MAX_BODY: usize = 1024 * 1024;

/// A parsed request: method, decoded path, decoded query pairs, raw body.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub query: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// The client asked this to be the connection's last request
    /// (`Connection: close`, or HTTP/1.0 without `keep-alive`).
    pub close: bool,
}

impl Request {
    /// First value of a query parameter, if present.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read. Carries the status code the connection
/// should answer with before closing.
#[derive(Debug)]
pub struct HttpError {
    pub status: u16,
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> HttpError {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Reads one line (up to CRLF or LF), enforcing [`MAX_LINE`].
fn read_line(reader: &mut impl BufRead) -> Result<String, HttpError> {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE {
                    return Err(HttpError::new(431, "header line too long"));
                }
            }
            Err(e) => return Err(HttpError::new(408, format!("read failed: {e}"))),
        }
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf).map_err(|_| HttpError::new(400, "non-UTF8 header line"))
}

/// Decodes `%XX` escapes and `+`-as-space in a query component.
fn percent_decode(text: &str) -> String {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' if i + 3 <= bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                match u8::from_str_radix(hex, 16) {
                    Ok(v) => {
                        out.push(v);
                        i += 3;
                    }
                    Err(_) => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Splits and decodes `a=1&b=two` into pairs.
fn parse_query(text: &str) -> Vec<(String, String)> {
    text.split('&')
        .filter(|part| !part.is_empty())
        .map(|part| match part.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(part), String::new()),
        })
        .collect()
}

/// Reads and parses one request from the stream.
pub fn read_request(reader: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request line"))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::new(505, format!("unsupported {version}")));
    }

    let mut headers: BTreeMap<String, String> = BTreeMap::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
        }
    }

    let body = match headers.get("content-length") {
        None => Vec::new(),
        Some(text) => {
            let len: usize = text
                .parse()
                .map_err(|_| HttpError::new(400, "bad Content-Length"))?;
            if len > MAX_BODY {
                return Err(HttpError::new(413, "body too large"));
            }
            let mut body = vec![0u8; len];
            reader
                .read_exact(&mut body)
                .map_err(|e| HttpError::new(408, format!("body read failed: {e}")))?;
            body
        }
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (percent_decode(p), parse_query(q)),
        None => (percent_decode(target), Vec::new()),
    };
    let connection = headers.get("connection").map(String::as_str).unwrap_or("");
    let token = |t: &str| {
        connection
            .split(',')
            .any(|c| c.trim().eq_ignore_ascii_case(t))
    };
    let close = token("close") || (version == "HTTP/1.0" && !token("keep-alive"));
    Ok(Request {
        method,
        path,
        query,
        body,
        close,
    })
}

/// The standard reason phrase for the status codes the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        429 => "Too Many Requests",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Writes a complete response with a JSON body. `close` selects the
/// `Connection` header — and the caller must actually close afterwards
/// when it says so, since the client will stop reading. `retry_after`
/// adds a `Retry-After` header (seconds): the server attaches it to
/// overload answers (`429`/`503`) so well-behaved clients back off by the
/// server's clock instead of guessing.
///
/// Head and body leave in one `write`, as one segment: the server sets
/// `TCP_NODELAY`, so a head-then-body pair would cost two syscalls and two
/// segments per response (the client sends requests the same way).
pub fn write_response(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    close: bool,
    retry_after: Option<u64>,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(160 + body.len());
    write!(
        out,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
        status,
        status_text(status),
        body.len(),
        if close { "close" } else { "keep-alive" }
    )?;
    if let Some(secs) = retry_after {
        write!(out, "Retry-After: {secs}\r\n")?;
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body.as_bytes());
    stream.write_all(&out)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn req(text: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(text.as_bytes()))
    }

    #[test]
    fn parses_get_with_query() {
        let r =
            req("GET /v1/semantic?lat=31.23&lon=121.47&note=a+b%21 HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/v1/semantic");
        assert_eq!(r.param("lat"), Some("31.23"));
        assert_eq!(r.param("lon"), Some("121.47"));
        assert_eq!(r.param("note"), Some("a b!"));
        assert_eq!(r.param("absent"), None);
        assert!(r.body.is_empty());
    }

    #[test]
    fn parses_post_body() {
        let r = req("POST /v1/annotate HTTP/1.1\r\nContent-Length: 7\r\n\r\n{\"a\":1}").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, b"{\"a\":1}");
    }

    #[test]
    fn oversized_body_is_413() {
        let e = req(&format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        ))
        .unwrap_err();
        assert_eq!(e.status, 413);
    }

    #[test]
    fn bad_version_is_505() {
        assert_eq!(req("GET / SPDY/99\r\n\r\n").unwrap_err().status, 505);
    }

    #[test]
    fn response_has_content_length() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{\"ok\":true}", true, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 11\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));

        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", false, None).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn retry_after_header_only_when_asked() {
        let mut out = Vec::new();
        write_response(&mut out, 429, "{}", true, Some(3)).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{}"), "{text}");

        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", false, None).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("Retry-After"));
    }

    /// Counts `write` calls and keeps every byte written.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_the_same_bytes() {
        for len in [0, 1024, 1024 * 1024] {
            let body = "x".repeat(len);
            for (status, close, retry_after) in [(200, false, None), (429, true, Some(3))] {
                let mut out = CountingWriter::default();
                write_response(&mut out, status, &body, close, retry_after).unwrap();
                assert_eq!(out.writes, 1, "{len}-byte body, retry {retry_after:?}");
                // The head-then-body bytes the writer always produced.
                let mut head = format!(
                    "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n",
                    status,
                    status_text(status),
                    body.len(),
                    if close { "close" } else { "keep-alive" }
                );
                if let Some(secs) = retry_after {
                    head.push_str(&format!("Retry-After: {secs}\r\n"));
                }
                head.push_str("\r\n");
                assert_eq!(out.bytes, [head.as_bytes(), body.as_bytes()].concat());
            }
        }
    }

    #[test]
    fn connection_header_drives_close() {
        // HTTP/1.1 defaults to keep-alive.
        assert!(!req("GET / HTTP/1.1\r\n\r\n").unwrap().close);
        assert!(
            req("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .close
        );
        assert!(
            req("GET / HTTP/1.1\r\nConnection: Keep-Alive, Close\r\n\r\n")
                .unwrap()
                .close
        );
        // HTTP/1.0 defaults to close unless keep-alive is asked for.
        assert!(req("GET / HTTP/1.0\r\n\r\n").unwrap().close);
        assert!(
            !req("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
                .unwrap()
                .close
        );
    }

    #[test]
    fn two_requests_parse_back_to_back() {
        let text = "POST /a HTTP/1.1\r\nContent-Length: 2\r\n\r\nhiGET /b HTTP/1.1\r\n\r\n";
        let mut reader = BufReader::new(text.as_bytes());
        let a = read_request(&mut reader).unwrap();
        assert_eq!(a.path, "/a");
        assert_eq!(a.body, b"hi");
        let b = read_request(&mut reader).unwrap();
        assert_eq!(b.path, "/b");
    }
}
