//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! The serving tier needs four routes, bodies of modest size, and
//! sequential keep-alive — not a general web framework. Everything else
//! (chunked transfer, multipart, TLS) is out of scope and rejected
//! cleanly. Both parsers enforce hard limits on request-line, header and
//! body sizes so a misbehaving client cannot balloon the server's memory.
//!
//! There are two parsers over the same grammar:
//!
//! * [`read_request`] — the original *blocking* parser over a `BufRead`,
//!   kept as the executable specification: the incremental parser is
//!   pinned byte-for-byte against it (see the `incremental` tests);
//! * [`IncrementalParser`] — the event loop's *non-blocking* state
//!   machine: bytes are [`fed`](IncrementalParser::feed) in whatever
//!   fragments the socket produces, and
//!   [`next_request`](IncrementalParser::next_request) yields complete
//!   requests as they materialise, tolerating splits at any byte boundary
//!   and pipelined requests sharing one buffer.

use std::io::{BufRead, Write};

/// Upper bound on the request line and on each header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method verb, uppercase (`GET`, `POST`).
    pub method: String,
    /// Request target path, without query string.
    pub path: String,
    /// True for `HTTP/1.1`, false for `HTTP/1.0` (the two versions the
    /// parser admits); they default to opposite connection persistence.
    pub http11: bool,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the connection should stay open after the response:
    /// HTTP/1.1 defaults to keep-alive unless the client sends
    /// `Connection: close`; HTTP/1.0 defaults to close unless the client
    /// sends `Connection: keep-alive`.
    pub fn keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => v.eq_ignore_ascii_case("keep-alive"),
            None => self.http11,
        }
    }
}

/// Why a request could not be parsed. Each maps to one 4xx response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The socket errored or the request was cut off mid-message.
    Io(String),
    /// The request line or a header violated the grammar or a size limit.
    Malformed(String),
    /// `Content-Length` exceeded the configured body cap (413).
    BodyTooLarge {
        /// Declared body length.
        declared: usize,
        /// Configured limit.
        limit: usize,
    },
}

/// Read one request. `Ok(None)` means the client closed the connection
/// cleanly between requests (normal keep-alive termination).
///
/// `interim` is the write half of the connection: a client announcing
/// `Expect: 100-continue` (curl does, automatically, for larger bodies)
/// holds the body back until the server answers `100 Continue`, so the
/// parser emits that interim response between the header and body phases —
/// otherwise every such request stalls for the client's expect-timeout.
pub fn read_request(
    stream: &mut impl BufRead,
    max_body_bytes: usize,
    interim: &mut impl Write,
) -> Result<Option<Request>, ParseError> {
    let line = match read_line(stream)? {
        // EOF before any byte of a new request: clean close.
        None => return Ok(None),
        Some(line) if line.is_empty() => return Ok(None),
        Some(line) => line,
    };
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(ParseError::Malformed(format!("bad request line `{line}`"))),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(ParseError::Malformed(format!("unsupported {version}")));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    loop {
        let header = match read_line(stream)? {
            None => return Err(ParseError::Io("eof inside headers".into())),
            Some(line) if line.is_empty() => break,
            Some(line) => line,
        };
        if headers.len() >= MAX_HEADERS {
            return Err(ParseError::Malformed("too many headers".into()));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header `{header}`")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    if headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ParseError::Malformed(
            "chunked transfer encoding is not supported".into(),
        ));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| ParseError::Malformed(format!("bad content-length `{v}`")))?,
    };
    if content_length > max_body_bytes {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            limit: max_body_bytes,
        });
    }
    if headers
        .iter()
        .any(|(k, v)| k == "expect" && v.eq_ignore_ascii_case("100-continue"))
    {
        interim
            .write_all(b"HTTP/1.1 100 Continue\r\n\r\n")
            .and_then(|()| interim.flush())
            .map_err(|e| ParseError::Io(format!("writing 100 Continue: {e}")))?;
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| ParseError::Io(format!("reading body: {e}")))?;

    Ok(Some(Request {
        method: method.to_ascii_uppercase(),
        path,
        http11: version == "HTTP/1.1",
        headers,
        body,
    }))
}

/// Read one CRLF-terminated line (LF tolerated), without the terminator.
/// `Ok(None)` on immediate EOF.
fn read_line(stream: &mut impl BufRead) -> Result<Option<String>, ParseError> {
    let mut buf = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(ParseError::Io("eof mid-line".into())),
            Ok(_) => {
                if byte[0] == b'\n' {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    let line = String::from_utf8(buf)
                        .map_err(|_| ParseError::Malformed("non-UTF-8 header".into()))?;
                    return Ok(Some(line));
                }
                buf.push(byte[0]);
                if buf.len() > MAX_LINE_BYTES {
                    return Err(ParseError::Malformed("line too long".into()));
                }
            }
            Err(e) => return Err(ParseError::Io(e.to_string())),
        }
    }
}

/// What [`IncrementalParser::next_request`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseOutcome {
    /// Not enough bytes buffered for a complete request yet.
    Incomplete,
    /// One complete request; pipelined leftovers stay buffered for the
    /// next call.
    Request(Box<Request>),
    /// The client signalled end-of-requests (an empty line where a request
    /// line was expected — the blocking parser's `Ok(None)`): close
    /// cleanly.
    Close,
}

enum IncrementalState {
    /// Accumulating request line + headers.
    Head {
        /// Parsed request line, once its CRLF has arrived.
        request_line: Option<(String, String, bool)>,
        /// Headers parsed so far (names lowercased).
        headers: Vec<(String, String)>,
    },
    /// Head complete; waiting for `content_length` body bytes.
    Body {
        request_line: (String, String, bool),
        headers: Vec<(String, String)>,
        content_length: usize,
    },
}

/// A non-blocking HTTP/1.1 request parser: the per-connection state
/// machine of the event loop.
///
/// Feed it whatever the socket produced — single bytes, half a header,
/// three pipelined requests — and poll
/// [`next_request`](IncrementalParser::next_request). Limits (line length,
/// header count, body cap) and error classification are identical to
/// [`read_request`], which the unit tests treat as the specification.
pub struct IncrementalParser {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte in `buf`.
    start: usize,
    /// Offset of the start of the current (unparsed) head line.
    cursor: usize,
    /// How far `buf` has been scanned for a newline (avoids rescans).
    scanned: usize,
    state: IncrementalState,
    /// Set when a parsed head carried `Expect: 100-continue`; the caller
    /// takes it (once) and writes the interim response.
    pending_continue: bool,
    max_body_bytes: usize,
}

impl IncrementalParser {
    /// A fresh parser for one connection.
    pub fn new(max_body_bytes: usize) -> Self {
        Self {
            buf: Vec::new(),
            start: 0,
            cursor: 0,
            scanned: 0,
            state: IncrementalState::Head {
                request_line: None,
                headers: Vec::new(),
            },
            pending_continue: false,
            max_body_bytes,
        }
    }

    /// Append bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed by a completed request.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True while a *partial* request sits in the buffer (bytes have
    /// arrived, or head lines were parsed, without completing a request).
    /// Distinguishes the header-read timeout from the idle timeout.
    pub fn mid_request(&self) -> bool {
        self.buffered() > 0
            || matches!(
                &self.state,
                IncrementalState::Head {
                    request_line: Some(_),
                    ..
                } | IncrementalState::Body { .. }
            )
    }

    /// Take the one-shot `Expect: 100-continue` flag; the caller owes the
    /// client an interim `100 Continue` when this returns true.
    pub fn take_continue(&mut self) -> bool {
        std::mem::take(&mut self.pending_continue)
    }

    /// Reclaim consumed bytes after a completed request.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.cursor -= self.start;
            self.scanned -= self.start;
            self.start = 0;
        }
    }

    /// Try to produce the next complete request from the buffered bytes.
    ///
    /// Errors are terminal: the connection must be answered 4xx and
    /// closed, exactly like the blocking parser's error path.
    pub fn next_request(&mut self) -> Result<ParseOutcome, ParseError> {
        loop {
            match &mut self.state {
                IncrementalState::Body { content_length, .. } => {
                    let need = *content_length;
                    if self.buf.len() - self.cursor < need {
                        return Ok(ParseOutcome::Incomplete);
                    }
                    let body = self.buf[self.cursor..self.cursor + need].to_vec();
                    self.cursor += need;
                    self.scanned = self.cursor;
                    self.start = self.cursor;
                    let state = std::mem::replace(
                        &mut self.state,
                        IncrementalState::Head {
                            request_line: None,
                            headers: Vec::new(),
                        },
                    );
                    let IncrementalState::Body {
                        request_line: (method, path, http11),
                        headers,
                        ..
                    } = state
                    else {
                        unreachable!()
                    };
                    self.compact();
                    return Ok(ParseOutcome::Request(Box::new(Request {
                        method,
                        path,
                        http11,
                        headers,
                        body,
                    })));
                }
                IncrementalState::Head { .. } => {
                    // Find the end of the current line.
                    let Some(nl_rel) = self.buf[self.scanned..].iter().position(|&b| b == b'\n')
                    else {
                        self.scanned = self.buf.len();
                        // Mirror the blocking parser's per-line cap (the
                        // pending `\r` of an eventual CRLF counts, the
                        // `\n` does not).
                        if self.buf.len() - self.cursor > MAX_LINE_BYTES {
                            return Err(ParseError::Malformed("line too long".into()));
                        }
                        return Ok(ParseOutcome::Incomplete);
                    };
                    let nl = self.scanned + nl_rel;
                    if nl - self.cursor > MAX_LINE_BYTES {
                        return Err(ParseError::Malformed("line too long".into()));
                    }
                    let mut line_end = nl;
                    if line_end > self.cursor && self.buf[line_end - 1] == b'\r' {
                        line_end -= 1;
                    }
                    let line = std::str::from_utf8(&self.buf[self.cursor..line_end])
                        .map_err(|_| ParseError::Malformed("non-UTF-8 header".into()))?
                        .to_string();
                    self.cursor = nl + 1;
                    self.scanned = self.cursor;

                    let IncrementalState::Head {
                        request_line,
                        headers,
                    } = &mut self.state
                    else {
                        unreachable!()
                    };
                    match request_line {
                        None => {
                            if line.is_empty() {
                                // An empty line where a request line was
                                // expected: the blocking parser treats it
                                // as a clean end of the request stream.
                                self.start = self.cursor;
                                self.compact();
                                return Ok(ParseOutcome::Close);
                            }
                            let mut parts = line.split(' ');
                            let (method, target, version) =
                                match (parts.next(), parts.next(), parts.next(), parts.next()) {
                                    (Some(m), Some(t), Some(v), None)
                                        if !m.is_empty() && !t.is_empty() =>
                                    {
                                        (m, t, v)
                                    }
                                    _ => {
                                        return Err(ParseError::Malformed(format!(
                                            "bad request line `{line}`"
                                        )))
                                    }
                                };
                            if version != "HTTP/1.1" && version != "HTTP/1.0" {
                                return Err(ParseError::Malformed(format!(
                                    "unsupported {version}"
                                )));
                            }
                            let path = target.split('?').next().unwrap_or(target).to_string();
                            *request_line =
                                Some((method.to_ascii_uppercase(), path, version == "HTTP/1.1"));
                        }
                        Some(_) if line.is_empty() => {
                            // End of headers: the same post-head checks as
                            // the blocking parser, in the same order.
                            if headers.iter().any(|(k, v)| {
                                k == "transfer-encoding" && !v.eq_ignore_ascii_case("identity")
                            }) {
                                return Err(ParseError::Malformed(
                                    "chunked transfer encoding is not supported".into(),
                                ));
                            }
                            let content_length =
                                match headers.iter().find(|(k, _)| k == "content-length") {
                                    None => 0,
                                    Some((_, v)) => v.parse::<usize>().map_err(|_| {
                                        ParseError::Malformed(format!("bad content-length `{v}`"))
                                    })?,
                                };
                            if content_length > self.max_body_bytes {
                                return Err(ParseError::BodyTooLarge {
                                    declared: content_length,
                                    limit: self.max_body_bytes,
                                });
                            }
                            if headers.iter().any(|(k, v)| {
                                k == "expect" && v.eq_ignore_ascii_case("100-continue")
                            }) {
                                self.pending_continue = true;
                            }
                            let IncrementalState::Head {
                                request_line: Some(request_line),
                                headers,
                            } = std::mem::replace(
                                &mut self.state,
                                IncrementalState::Head {
                                    request_line: None,
                                    headers: Vec::new(),
                                },
                            )
                            else {
                                unreachable!()
                            };
                            self.state = IncrementalState::Body {
                                request_line,
                                headers,
                                content_length,
                            };
                        }
                        Some(_) => {
                            if headers.len() >= MAX_HEADERS {
                                return Err(ParseError::Malformed("too many headers".into()));
                            }
                            let Some((name, value)) = line.split_once(':') else {
                                return Err(ParseError::Malformed(format!("bad header `{line}`")));
                            };
                            headers
                                .push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
                        }
                    }
                }
            }
        }
    }
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Self {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// An `{"error": ...}` JSON response.
    pub fn error(status: u16, message: &str) -> Self {
        let payload = serde_json::to_string(&serde::Value::Object(vec![(
            "error".to_string(),
            serde::Value::Str(message.to_string()),
        )]))
        .unwrap_or_else(|_| "{\"error\":\"unrenderable\"}".to_string());
        Self::json(status, payload)
    }

    /// Add a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// The status code.
    pub fn status(&self) -> u16 {
        self.status
    }

    /// Serialize onto the wire. `close` adds `Connection: close`.
    pub fn write_to(&self, stream: &mut impl Write, close: bool) -> std::io::Result<()> {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        };
        let mut head = format!("HTTP/1.1 {} {reason}\r\n", self.status);
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        if close {
            head.push_str("Connection: close\r\n");
        }
        head.push_str("\r\n");
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<Request>, ParseError> {
        read_request(&mut BufReader::new(raw.as_bytes()), 1024, &mut Vec::new())
    }

    #[test]
    fn parses_post_with_body() {
        let request = parse("POST /advise HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/advise");
        assert_eq!(request.body, b"{\"a\"");
        assert_eq!(request.header("host"), Some("x"));
        assert!(request.keep_alive());
    }

    #[test]
    fn connection_close_is_honoured_and_query_strings_stripped() {
        let request = parse("GET /metrics?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.path, "/metrics");
        assert!(!request.keep_alive());
    }

    #[test]
    fn eof_between_requests_is_a_clean_close() {
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn http_1_0_defaults_to_close_and_opts_into_keep_alive() {
        let request = parse("GET /healthz HTTP/1.0\r\nHost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!request.http11);
        assert!(!request.keep_alive(), "1.0 without keep-alive must close");
        let request = parse("GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(request.keep_alive());
    }

    #[test]
    fn expect_100_continue_gets_the_interim_response_before_the_body() {
        let raw = "POST /advise HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let mut interim = Vec::new();
        let request = read_request(&mut BufReader::new(raw.as_bytes()), 1024, &mut interim)
            .unwrap()
            .unwrap();
        assert_eq!(interim, b"HTTP/1.1 100 Continue\r\n\r\n");
        assert_eq!(request.body, b"ok");
        // No Expect header: no interim response.
        let mut interim = Vec::new();
        read_request(
            &mut BufReader::new("GET / HTTP/1.1\r\n\r\n".as_bytes()),
            1024,
            &mut interim,
        )
        .unwrap()
        .unwrap();
        assert!(interim.is_empty());
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let err = parse("POST /advise HTTP/1.1\r\nContent-Length: 4096\r\n\r\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::BodyTooLarge {
                declared: 4096,
                limit: 1024
            }
        ));
    }

    #[test]
    fn malformed_request_lines_are_errors() {
        assert!(matches!(
            parse("NONSENSE\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        let err = parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, ParseError::Io(_)));
    }

    #[test]
    fn responses_render_with_length_and_close() {
        let mut out = Vec::new();
        Response::json(200, "{}".to_string())
            .with_header("Retry-After", "1")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Retry-After: 1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }

    // ---- incremental parser: the blocking parser is the specification ----

    /// Run the *blocking* parser over `raw` to exhaustion: the reference
    /// result the incremental parser must reproduce byte-identically.
    fn blocking_all(raw: &[u8]) -> Vec<Result<Option<Request>, ParseError>> {
        let mut reader = BufReader::new(raw);
        let mut results = Vec::new();
        loop {
            let result = read_request(&mut reader, 1024, &mut Vec::new());
            let done = !matches!(result, Ok(Some(_)));
            results.push(result);
            if done {
                return results;
            }
        }
    }

    /// Run the incremental parser over `raw`, fed in `chunk`-byte pieces,
    /// in the shape `blocking_all` produces. A trailing `Incomplete` (the
    /// incremental parser cannot distinguish "no more bytes yet" from EOF;
    /// the event loop layers EOF on top) is mapped to the blocking
    /// parser's corresponding terminal: `Ok(None)` between requests,
    /// `Err(Io)` mid-request.
    fn incremental_all(raw: &[u8], chunk: usize) -> Vec<Result<Option<Request>, ParseError>> {
        let mut parser = IncrementalParser::new(1024);
        let mut results = Vec::new();
        let mut offset = 0;
        loop {
            match parser.next_request() {
                Ok(ParseOutcome::Request(request)) => {
                    results.push(Ok(Some(*request)));
                    continue;
                }
                Ok(ParseOutcome::Close) => {
                    results.push(Ok(None));
                    return results;
                }
                Err(error) => {
                    results.push(Err(error));
                    return results;
                }
                Ok(ParseOutcome::Incomplete) => {
                    if offset >= raw.len() {
                        // EOF as the event loop classifies it.
                        results.push(if parser.mid_request() {
                            Err(ParseError::Io("eof mid-request".into()))
                        } else {
                            Ok(None)
                        });
                        return results;
                    }
                    let end = (offset + chunk).min(raw.len());
                    parser.feed(&raw[offset..end]);
                    offset = end;
                }
            }
        }
    }

    /// Both parsers over the same payload at every split granularity; the
    /// parsed requests must be identical (errors match by class — their
    /// detail strings legitimately differ in IO phrasing).
    fn assert_equivalent(raw: &[u8]) {
        let reference = blocking_all(raw);
        for chunk in [1, 2, 3, 7, raw.len().max(1)] {
            let incremental = incremental_all(raw, chunk);
            assert_eq!(
                reference.len(),
                incremental.len(),
                "result count diverged at chunk={chunk} for {:?}",
                String::from_utf8_lossy(raw)
            );
            for (r, i) in reference.iter().zip(&incremental) {
                match (r, i) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "chunk={chunk}"),
                    (Err(ParseError::Io(_)), Err(ParseError::Io(_))) => {}
                    (Err(a), Err(b)) => assert_eq!(a, b, "chunk={chunk}"),
                    (a, b) => panic!("diverged at chunk={chunk}: {a:?} vs {b:?}"),
                }
            }
        }
    }

    #[test]
    fn incremental_matches_blocking_across_split_points() {
        // Split points land inside the request line, headers, and body at
        // chunk sizes 1/2/3/7.
        assert_equivalent(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_equivalent(b"POST /advise HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"");
        assert_equivalent(b"GET /metrics?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert_equivalent(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n");
        // Bare-LF tolerance, header whitespace, case folding.
        assert_equivalent(b"get /x HTTP/1.1\nHOST:   spacey \n\n");
    }

    #[test]
    fn incremental_matches_blocking_on_pipelined_requests() {
        assert_equivalent(
            b"POST /advise HTTP/1.1\r\nContent-Length: 2\r\n\r\nhi\
              GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
        );
        // Three in one buffer, mixed methods and bodies.
        assert_equivalent(
            b"GET /a HTTP/1.1\r\n\r\n\
              POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz\
              GET /c HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
    }

    #[test]
    fn incremental_matches_blocking_on_errors_and_limits() {
        assert_equivalent(b"NONSENSE\r\n\r\n");
        assert_equivalent(b"GET / SPDY/9\r\n\r\n");
        assert_equivalent(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_equivalent(b"POST / HTTP/1.1\r\nBroken header line\r\n\r\n");
        assert_equivalent(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n");
        assert_equivalent(b"POST /advise HTTP/1.1\r\nContent-Length: 4096\r\n\r\n");
        // Truncated body: blocking sees Io(eof), incremental sees eternal
        // Incomplete mid-request → same class.
        assert_equivalent(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort");
        // Empty line where a request line belongs: clean close both ways.
        assert_equivalent(b"\r\n");
        assert_equivalent(b"");
        // Oversized request line.
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(9000));
        assert_equivalent(long.as_bytes());
        // Too many headers.
        let mut many = String::from("GET / HTTP/1.1\r\n");
        for i in 0..70 {
            many.push_str(&format!("h{i}: v\r\n"));
        }
        many.push_str("\r\n");
        assert_equivalent(many.as_bytes());
    }

    #[test]
    fn incremental_expect_continue_is_flagged_once() {
        let raw = b"POST /advise HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\nok";
        let mut parser = IncrementalParser::new(1024);
        // Feed only the head: the flag must be available before the body.
        let head_len = raw.len() - 2;
        parser.feed(&raw[..head_len]);
        assert_eq!(parser.next_request().unwrap(), ParseOutcome::Incomplete);
        assert!(parser.take_continue(), "continue not flagged after head");
        assert!(!parser.take_continue(), "flag must be one-shot");
        parser.feed(&raw[head_len..]);
        match parser.next_request().unwrap() {
            ParseOutcome::Request(request) => assert_eq!(request.body, b"ok"),
            other => panic!("expected the request, got {other:?}"),
        }
        assert!(!parser.take_continue());
    }

    #[test]
    fn incremental_mid_request_distinguishes_idle_from_stalled() {
        let mut parser = IncrementalParser::new(1024);
        assert!(!parser.mid_request(), "fresh parser is idle");
        parser.feed(b"GET /healthz HT");
        assert_eq!(parser.next_request().unwrap(), ParseOutcome::Incomplete);
        assert!(parser.mid_request(), "half a request line is a stall");
        parser.feed(b"TP/1.1\r\nHost: x\r\n\r\n");
        assert!(matches!(
            parser.next_request().unwrap(),
            ParseOutcome::Request(_)
        ));
        assert!(!parser.mid_request(), "complete request consumed: idle");
    }
}
