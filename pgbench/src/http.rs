//! Load generation against pg-serve over HTTP/1.1 keep-alive connections.
//!
//! Load always comes from exactly two connections, one per generator
//! thread (the calling thread plus one scoped thread), so the generator
//! never needs more cores than the host leaves it:
//!
//! * [`open_loop`] sends on a precomputed schedule whether or not replies
//!   have arrived, pipelining requests on its connection (pg-serve answers
//!   pipelined requests in order). Between sends the socket is polled
//!   without blocking and the thread sleeps at most [`POLL`], so a slow
//!   reply never delays a send. (Socket read timeouts cannot do this: the
//!   kernel rounds them up to a scheduler tick, several milliseconds.)
//!   Latency runs from the *scheduled* send time to the last byte of the
//!   reply, which charges a stall to every request it delays.
//! * [`closed_loop`] runs in rounds on the calling thread: one request on
//!   each connection at once, then both replies, then the next round. The
//!   server answers one request per connection at a time, so two
//!   connections carry at most two requests however they are driven, and
//!   the rate is bound by the round trip through the serving path.
//!
//! Every reply is checked: a non-200 status, a missing reply or an I/O
//! error counts as a failure, and the reply's `rankings` array is hashed so
//! the caller can compare it with a direct engine call afterwards.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// How long a blocking read or write, or the replies outstanding after a
/// phase's last send, are awaited.
const DRAIN: Duration = Duration::from_secs(5);

/// Longest an open-loop thread sleeps while a reply is outstanding: the
/// resolution of its reply timestamps, traded against the CPU its polling
/// takes from the server.
const POLL: Duration = Duration::from_micros(100);

/// The wire bytes of a `POST` request.
pub fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nHost: pgbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One parsed reply.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
}

/// One keep-alive client connection with its receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off (requests are small and latency-bound).
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DRAIN))?;
        stream.set_write_timeout(Some(DRAIN))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    /// Write one whole request, in blocking or non-blocking mode.
    fn send(&mut self, request: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let mut sent = 0;
        while sent < request.len() {
            match self.stream.write(&request[sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => sent += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock && started.elapsed() < DRAIN => {
                    std::thread::sleep(POLL)
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Take one complete reply off the front of the buffer, if there is one.
    fn pop(&mut self) -> io::Result<Option<Reply>> {
        let Some(head_end) = find(&self.buf, b"\r\n\r\n") else {
            return Ok(None);
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|line| line.split(' ').nth(1))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = lines
            .find_map(|line| {
                let (name, value) = line.split_once(':')?;
                name.eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .unwrap_or(0);
        let total = head_end + 4 + length;
        if self.buf.len() < total {
            return Ok(None);
        }
        let body = self.buf[head_end + 4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(Reply { status, body }))
    }

    /// Read what has arrived: in blocking mode wait up to [`DRAIN`] for it,
    /// in non-blocking mode return at once. Returns the bytes read.
    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 16 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Ok(0)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// Block until the next reply has arrived (in blocking mode).
    fn read_reply(&mut self) -> io::Result<Reply> {
        loop {
            if let Some(reply) = self.pop()? {
                return Ok(reply);
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no reply"));
            }
        }
    }

    /// Send one request and wait for its reply.
    pub fn round_trip(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.send(request)?;
        self.read_reply()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// FNV-1a hash of the `rankings` array's JSON text in an advise reply.
/// `None` when the body has no well-formed `rankings` array.
pub fn rankings_hash(body: &[u8]) -> Option<u64> {
    Some(fnv1a(rankings_slice(body)?))
}

/// The `"rankings": [...]` value of a JSON object, bracket-matched with
/// string literals skipped.
fn rankings_slice(body: &[u8]) -> Option<&[u8]> {
    let key = b"\"rankings\":";
    let start = find(body, key)? + key.len();
    let rest = &body[start..];
    let open = rest.iter().position(|b| !b.is_ascii_whitespace())?;
    if rest[open] != b'[' {
        return None;
    }
    let (mut depth, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in rest.iter().enumerate().skip(open) {
        if in_string {
            match (escaped, b) {
                (true, _) => escaped = false,
                (false, b'\\') => escaped = true,
                (false, b'"') => in_string = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open..=i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What one load phase did.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests sent (or due to be sent).
    pub attempted: u64,
    /// Non-200 replies, missing replies and I/O failures.
    pub failed: u64,
    /// Per-request latency in milliseconds, successful replies only.
    pub latencies_ms: Vec<f64>,
    /// Open loop: how late each send left relative to its schedule (ms).
    pub lags_ms: Vec<f64>,
    /// `(request key, rankings hash)` of every 200 reply, for checking.
    pub replies: Vec<(u32, u64)>,
    /// Closed loop: when each 200 reply arrived, seconds after the start.
    pub done_s: Vec<f64>,
}

impl Outcome {
    fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.lags_ms.extend(other.lags_ms);
        self.replies.extend(other.replies);
        self.done_s.extend(other.done_s);
    }

    /// Count a reply; returns whether it succeeded.
    fn record(&mut self, key: u32, reply: &Reply, latency: Duration) -> bool {
        match (reply.status, rankings_hash(&reply.body)) {
            (200, Some(hash)) => {
                self.replies.push((key, hash));
                self.latencies_ms.push(latency.as_secs_f64() * 1e3);
                true
            }
            _ => {
                self.failed += 1;
                false
            }
        }
    }
}

/// One generator thread's open-loop plan: request keys and their send
/// times in seconds from the phase start.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// Index into the request table, per send.
    pub keys: Vec<u32>,
    /// Due time of each send, seconds after the phase start, ascending.
    pub due_s: Vec<f64>,
}

/// Open loop: each connection's thread sends on its own schedule and
/// pipelines; the calling thread drives the first connection.
pub fn open_loop(conns: &mut [Conn; 2], table: &[Vec<u8>], plans: &[Schedule; 2]) -> Outcome {
    // A short lead lets the second thread start before the first send.
    let t0 = Instant::now() + Duration::from_millis(5);
    let [c0, c1] = conns;
    std::thread::scope(|scope| {
        let other = scope.spawn(|| open_thread(c1, table, &plans[1], t0));
        let mut mine = open_thread(c0, table, &plans[0], t0);
        mine.absorb(other.join().expect("load thread panicked"));
        mine
    })
}

fn open_thread(conn: &mut Conn, table: &[Vec<u8>], plan: &Schedule, t0: Instant) -> Outcome {
    let mut out = Outcome {
        attempted: plan.keys.len() as u64,
        ..Outcome::default()
    };
    let due = |i: usize| t0 + Duration::from_secs_f64(plan.due_s[i]);
    let give_up = plan.due_s.last().map_or(t0, |_| due(plan.due_s.len() - 1)) + DRAIN;
    let mut pending: VecDeque<(Instant, u32)> = VecDeque::new();
    let mut next = 0;
    let result: io::Result<()> = (|| {
        conn.stream.set_nonblocking(true)?;
        loop {
            let now = Instant::now();
            while next < plan.keys.len() && due(next) <= now {
                let key = plan.keys[next];
                conn.send(&table[key as usize])?;
                out.lags_ms.push(
                    Instant::now()
                        .saturating_duration_since(due(next))
                        .as_secs_f64()
                        * 1e3,
                );
                pending.push_back((due(next), key));
                next += 1;
            }
            while conn.fill()? > 0 {}
            let now = Instant::now();
            while let Some(reply) = conn.pop()? {
                let (due, key) = pending.pop_front().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidData, "reply without a request")
                })?;
                out.record(key, &reply, now.saturating_duration_since(due));
            }
            if (next == plan.keys.len() && pending.is_empty()) || now >= give_up {
                return conn.stream.set_nonblocking(false);
            }
            let wake = if next < plan.keys.len() {
                due(next)
            } else {
                give_up
            };
            let nap = wake.saturating_duration_since(now);
            std::thread::sleep(if pending.is_empty() {
                nap
            } else {
                nap.min(POLL)
            });
        }
    })();
    if let Err(e) = result {
        eprintln!("pgbench: open-loop connection failed: {e}");
    }
    // Everything sent but unanswered, and everything never sent, failed.
    out.failed += pending.len() as u64 + (plan.keys.len() - next) as u64;
    out
}

/// Closed loop for `seconds`: each round sends the next key of each
/// connection's sequence (wrapping around) and waits for both replies.
pub fn closed_loop(
    conns: &mut [Conn; 2],
    table: &[Vec<u8>],
    keys: &[Vec<u32>; 2],
    seconds: f64,
) -> Outcome {
    let mut out = Outcome::default();
    let t0 = Instant::now();
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut unanswered = 0;
    let result: io::Result<()> = (|| {
        if keys.iter().any(Vec::is_empty) {
            return Err(io::Error::other("no closed-loop requests"));
        }
        for round in 0.. {
            if Instant::now() >= end {
                break;
            }
            let pair = [0, 1].map(|t| keys[t][round % keys[t].len()]);
            let sent = Instant::now();
            for (conn, &key) in conns.iter_mut().zip(&pair) {
                conn.send(&table[key as usize])?;
                out.attempted += 1;
                unanswered += 1;
            }
            for (conn, &key) in conns.iter_mut().zip(&pair) {
                let reply = conn.read_reply()?;
                unanswered -= 1;
                let done = Instant::now();
                if out.record(key, &reply, done - sent) {
                    out.done_s.push((done - t0).as_secs_f64());
                }
            }
        }
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("pgbench: closed-loop connection failed: {e}");
    }
    out.failed += unanswered;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rankings_slice_is_bracket_matched() {
        let body = br#"{"kernel":"a]b","rankings":[{"variant":"x","launch":{"teams":1,"threads":2},"predicted_ms":1.5},{"variant":null,"launch":{"teams":3,"threads":4},"predicted_ms":2.0}],"failures":[]}"#;
        let slice = rankings_slice(body).unwrap();
        assert!(slice.starts_with(b"[{\"variant\":\"x\""));
        assert!(slice.ends_with(b"\"predicted_ms\":2.0}]"));
        assert!(rankings_slice(br#"{"rankings":[{"s":"]\"]"}]}"#).is_some());
        assert!(rankings_slice(br#"{"rankings":[1,2"#).is_none());
        assert!(rankings_slice(br#"{"error":"x"}"#).is_none());
    }

    #[test]
    fn replies_are_split_off_a_pipelined_buffer() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            s.write_all(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhiHTTP/1.1 429 Too Many\r\ncontent-length: 0\r\n\r\n",
            )
            .unwrap();
        });
        let mut conn = Conn::connect(addr).unwrap();
        let first = conn.round_trip(b"").unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"hi"[..]));
        let second = conn.round_trip(b"").unwrap();
        assert_eq!((second.status, second.body.len()), (429, 0));
        server.join().unwrap();
    }
}
