//! The HTTP server: event-driven I/O, a fixed worker pool, routing,
//! admission control and graceful drain.
//!
//! Threading model: **one event thread** owns the listener and every
//! connection socket, multiplexed over epoll (see the `event` module and
//! [`crate::poll`]); a **fixed pool** of [`ServeConfig::workers`] threads
//! executes parsed requests; the micro-batcher's scheduler thread turns
//! concurrent `/advise` work into few engine calls. Connection count and
//! thread count are fully decoupled — thousands of keep-alive sockets are
//! a few kilobytes of buffer each, not a thread each — and `/advise`
//! handlers no longer block a thread per request: the worker submits to
//! the [`MicroBatcher`] asynchronously and moves on, so the coalesced
//! batch depth is bounded by admitted traffic, not by pool size.
//!
//! Admission control is layered, earliest-first:
//!
//! 1. **Connection bound** — at [`ServeConfig::max_connections`] open
//!    sockets, new connections are shed with a `429` written straight from
//!    the accept path, before a single byte is read.
//! 2. **In-flight bound** — a parsed POST (`/advise`, `/tune`) past
//!    [`ServeConfig::max_inflight`] is answered `429 Retry-After` from the
//!    event thread at dispatch, before JSON parsing and before any worker
//!    or engine time is spent.
//! 3. **Batcher queue depth** — the batcher's own defensive bound, refused
//!    as `429` through the same responder path.
//!
//! Shutdown is drain-then-close: the listener deregisters, idle
//! connections close immediately, requests already dispatched finish and
//! flush their responses, and every thread has exited before
//! [`Server::shutdown`] returns.

use crate::batcher::{BatchConfig, MicroBatcher};
use crate::event::EventLoop;
use crate::http::{Request, Response};
use crate::metrics::{MetricsSnapshot, ServeMetrics};
use crate::poll::{Poller, Waker};
use crate::ServeError;
use pg_engine::{AdviseRequest, Engine, EngineError};
use pg_obs::{obs, FinishedTrace, Stage, TraceHandle, TraceTree};
use pg_tune::{TuneEngine, TuneError, TuneRequest};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Most open connections; beyond it new connections are shed with an
    /// immediate 429 (each open connection costs buffers, not a thread).
    pub max_connections: usize,
    /// Most POST requests in flight before admission control answers 429.
    pub max_inflight: usize,
    /// Request-executing worker threads (the event thread and the batcher
    /// scheduler are separate and always one each).
    pub workers: usize,
    /// Micro-batcher bounds (batch size, queue depth).
    pub batch: BatchConfig,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Idle keep-alive connections are closed after this long without a
    /// request.
    pub idle_timeout: Duration,
    /// A connection that has *started* a request (sent at least one byte
    /// of it) must deliver the rest within this long or be closed — the
    /// slow-loris bound. Also caps how long a response write may stall.
    pub header_read_timeout: Duration,
    /// Server-side ceiling on a `/tune` request's `max_evaluations`: the
    /// wire-supplied budget is clamped to it. A tuning run's work is
    /// client-controlled (budget × sweep axes), and an uncapped request
    /// could hold an admission slot for hours and stall the drain; the
    /// clamp bounds every run to a predictable worst case.
    pub max_tune_evaluations: u64,
    /// Server-side ceiling on a `/tune` request's `max_generations`
    /// (backend batches), clamped like `max_tune_evaluations`.
    pub max_tune_generations: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 8192,
            max_inflight: 256,
            workers: 4,
            batch: BatchConfig::default(),
            max_body_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(5),
            header_read_timeout: Duration::from_secs(10),
            max_tune_evaluations: 65_536,
            max_tune_generations: 1024,
        }
    }
}

/// A parsed request handed from the event thread to the worker pool.
/// `slot` marks requests holding an in-flight admission slot (released
/// when their completion is queued).
pub(crate) struct WorkItem {
    pub(crate) token: u64,
    pub(crate) request: Request,
    pub(crate) slot: bool,
    /// The request's trace (armed at accept on the event thread); worker
    /// and batcher stages parent their spans on its root.
    pub(crate) trace: TraceHandle,
}

/// A finished response travelling back to the event thread.
pub(crate) struct Completion {
    pub(crate) token: u64,
    pub(crate) response: Response,
    pub(crate) close: bool,
}

pub(crate) struct Shared {
    pub(crate) engine: Arc<Engine>,
    pub(crate) batcher: MicroBatcher,
    pub(crate) metrics: Arc<ServeMetrics>,
    pub(crate) draining: AtomicBool,
    /// Interrupts `epoll_wait` when a completion is queued or a drain
    /// begins.
    pub(crate) waker: Waker,
    pub(crate) completions: Mutex<Vec<Completion>>,
    pub(crate) max_inflight: usize,
    pub(crate) max_body_bytes: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) header_read_timeout: Duration,
    pub(crate) max_tune_evaluations: u64,
    pub(crate) max_tune_generations: u64,
}

impl Shared {
    /// The single completion point: release the admission slot (if held),
    /// queue the response for the event thread, wake it.
    pub(crate) fn complete(&self, token: u64, response: Response, close: bool, slot: bool) {
        if slot {
            self.metrics.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        self.completions
            .lock()
            .expect("completion queue poisoned")
            .push(Completion {
                token,
                response,
                close,
            });
        self.waker.wake();
    }
}

/// A running server. Keep the handle; [`Server::shutdown`] drains and
/// joins every thread.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving a shared engine.
    pub fn start(engine: Arc<Engine>, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = MicroBatcher::start(Arc::clone(&engine), config.batch, Arc::clone(&metrics));
        let shared = Arc::new(Shared {
            engine,
            batcher,
            metrics,
            draining: AtomicBool::new(false),
            waker,
            completions: Mutex::new(Vec::new()),
            max_inflight: config.max_inflight.max(1),
            max_body_bytes: config.max_body_bytes,
            idle_timeout: config.idle_timeout,
            header_read_timeout: config.header_read_timeout,
            max_tune_evaluations: config.max_tune_evaluations.max(1),
            max_tune_generations: config.max_tune_generations.max(1),
        });

        let (work_tx, work_rx) = mpsc::channel::<WorkItem>();
        let work_rx = Arc::new(Mutex::new(work_rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let work_rx = Arc::clone(&work_rx);
                std::thread::Builder::new()
                    .name(format!("pg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &work_rx))
                    .expect("spawning a worker thread")
            })
            .collect();

        let event_loop = EventLoop::new(
            Arc::clone(&shared),
            poller,
            listener,
            work_tx,
            config.max_connections.max(1),
        )?;
        let event = std::thread::Builder::new()
            .name("pg-serve-event".into())
            .spawn(move || event_loop.run())
            .expect("spawning the event thread");

        pg_obs::info!(
            "pg-serve listening",
            addr = addr,
            workers = config.workers.max(1),
            max_connections = config.max_connections.max(1),
            max_inflight = config.max_inflight.max(1)
        );
        Ok(Server {
            addr,
            shared,
            event: Some(event),
            workers,
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time serving counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// Total serving threads: the event thread plus the worker pool (the
    /// batcher scheduler is one more). The number that bounds concurrency
    /// for *thousands* of connections.
    pub fn io_and_worker_threads(&self) -> usize {
        1 + self.workers.len()
    }

    /// Drain and stop: stop accepting, finish dispatched requests, flush
    /// the batcher, join every thread. Returns the final counters.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        // The event thread deregisters the listener, closes idle
        // connections, finishes in-flight responses, and exits with the
        // connection table empty — dropping the only work sender.
        if let Some(event) = self.event.take() {
            let _ = event.join();
        }
        // Workers drain whatever the channel still buffers, then see the
        // disconnect and exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Join the batcher's scheduler from here rather than from whichever
        // thread drops the last `Arc<Shared>`: an in-flight responder on
        // the scheduler thread can itself hold the last reference, and a
        // drop-triggered join there would be a self-join. After this the
        // snapshot includes every batch.
        self.shared.batcher.stop();
        let snapshot = self.shared.metrics.snapshot();
        pg_obs::info!(
            "pg-serve drained",
            requests = snapshot.http_requests,
            advise_ok = snapshot.advise_ok,
            tune_ok = snapshot.tune_ok,
            batches = snapshot.batches
        );
        drop(self);
        snapshot
    }
}

/// One pool thread: pull parsed requests, execute, complete. The receiver
/// mutex is held only across the `recv` — execution is concurrent.
fn worker_loop(shared: &Arc<Shared>, work_rx: &Mutex<mpsc::Receiver<WorkItem>>) {
    loop {
        let item = {
            let rx = work_rx.lock().expect("work queue poisoned");
            match rx.recv() {
                Ok(item) => item,
                Err(_) => return, // event thread gone and queue drained
            }
        };
        route(shared, item);
    }
}

fn route(shared: &Arc<Shared>, item: WorkItem) {
    let WorkItem {
        token,
        request,
        slot,
        trace,
    } = item;
    let close = !request.keep_alive() || shared.draining.load(Ordering::SeqCst);
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => shared.complete(token, healthz(shared), close, slot),
        ("GET", "/metrics") => {
            // Serving counters first, then the per-stage duration
            // histograms the observability hub collected across every tier.
            let mut text = shared.metrics.snapshot().to_prometheus();
            text.push_str(&pg_obs::stage_histograms_to_prometheus(
                &obs().stage_snapshot(),
            ));
            shared.complete(token, Response::text(200, text), close, slot);
        }
        ("GET", "/debug/traces") => shared.complete(token, debug_traces(), close, slot),
        ("POST", "/advise") => advise(shared, token, &request.body, close, trace),
        ("POST", "/tune") => {
            let response = tune(shared, &request.body, &trace);
            shared.complete(token, response, close, slot);
        }
        (method, "/healthz" | "/metrics" | "/debug/traces" | "/advise" | "/tune") => shared
            .complete(
                token,
                Response::error(405, &format!("method {method} not allowed")),
                close,
                slot,
            ),
        (_, path) => shared.complete(
            token,
            Response::error(404, &format!("no route for `{path}`")),
            close,
            slot,
        ),
    }
}

/// `GET /debug/traces`: the recorder's most recent traces (newest first)
/// as JSON span trees — the flight-recorder view of what the sampling
/// policy kept.
fn debug_traces() -> Response {
    let trees: Vec<TraceTree> = obs().traces().iter().map(FinishedTrace::tree).collect();
    Response::json(
        200,
        serde_json::to_string(&trees).unwrap_or_else(|_| "[]".into()),
    )
}

fn healthz(shared: &Shared) -> Response {
    let status = if shared.draining.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    let payload = serde::Value::Object(vec![
        ("status".into(), serde::Value::Str(status.into())),
        (
            "backend".into(),
            serde::Value::Str(shared.engine.backend_name().into()),
        ),
        (
            "platform".into(),
            serde::Value::Str(shared.engine.platform().slug().into()),
        ),
    ]);
    Response::json(
        200,
        serde_json::to_string(&payload).unwrap_or_else(|_| "{}".into()),
    )
}

/// The body-parse preamble both POST routes share (admission already ran
/// at dispatch, on the event thread): refuse 503 while draining, then
/// parse the JSON body (400s name the expected `payload` type).
fn parse_body<T: for<'de> serde::Deserialize<'de>>(
    shared: &Shared,
    body: &[u8],
    payload: &str,
) -> Result<T, Response> {
    if shared.draining.load(Ordering::SeqCst) {
        return Err(Response::error(503, "server is draining"));
    }
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => {
            shared
                .metrics
                .http_bad_requests
                .fetch_add(1, Ordering::Relaxed);
            return Err(Response::error(400, "request body is not UTF-8"));
        }
    };
    match serde_json::from_str(text) {
        Ok(request) => Ok(request),
        Err(error) => {
            shared
                .metrics
                .http_bad_requests
                .fetch_add(1, Ordering::Relaxed);
            Err(Response::error(400, &format!("invalid {payload}: {error}")))
        }
    }
}

/// `POST /advise`: parse, submit to the micro-batcher, return. The
/// completion happens from the batcher's responder once the batch executes
/// — the worker thread is free the moment the submit queues, which is why
/// batch depth is bounded by admitted traffic rather than pool size.
fn advise(shared: &Arc<Shared>, token: u64, body: &[u8], close: bool, trace: TraceHandle) {
    let request: AdviseRequest = match parse_body(shared, body, "AdviseRequest") {
        Ok(request) => request,
        Err(response) => return shared.complete(token, response, close, true),
    };
    let responder_shared = Arc::clone(shared);
    let responder_trace = trace.clone();
    shared.batcher.submit(
        request,
        trace,
        Box::new(move |outcome| {
            let shared = responder_shared;
            let trace = responder_trace;
            let response = match outcome {
                Ok(report) => {
                    let span = obs().span(&trace, Stage::Serialize, trace.root());
                    let serialized = serde_json::to_string(&report);
                    span.finish();
                    match serialized {
                        Ok(json) => {
                            shared.metrics.advise_ok.fetch_add(1, Ordering::Relaxed);
                            shared.metrics.record_analysis(
                                &report.diagnostics,
                                report.race_pruned.len() as u64,
                            );
                            Response::json(200, json)
                        }
                        Err(error) => {
                            shared.metrics.advise_failed.fetch_add(1, Ordering::Relaxed);
                            pg_obs::error!("advise report serialization failed", error = error);
                            Response::error(500, &format!("serializing report: {error}"))
                        }
                    }
                }
                Err(error) => match &error {
                    ServeError::Overloaded { .. } => {
                        shared
                            .metrics
                            .advise_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        pg_obs::warn!("advise rejected by batcher backpressure", error = error);
                        Response::error(429, &error.to_string()).with_header("Retry-After", "1")
                    }
                    // Raw kernel source the frontend refused — a syntax
                    // error or a blown parse budget. Still a semantic 422,
                    // but with machine-readable diagnostics and its own
                    // counter: at the trust boundary, "client sent garbage"
                    // and "client sent a resource bomb" must be observable
                    // apart from ordinary engine failures.
                    ServeError::Engine(EngineError::Frontend(frontend)) => {
                        shared.metrics.advise_failed.fetch_add(1, Ordering::Relaxed);
                        shared
                            .metrics
                            .parse_rejected
                            .fetch_add(1, Ordering::Relaxed);
                        pg_obs::debug!("advise source rejected by frontend", error = error);
                        frontend_rejection(frontend)
                    }
                    other => {
                        let status = match other {
                            ServeError::Engine(error) => engine_status(error),
                            // Draining: the server accepts no more work.
                            _ => 503,
                        };
                        shared.metrics.advise_failed.fetch_add(1, Ordering::Relaxed);
                        pg_obs::debug!("advise failed", status = status, error = error);
                        Response::error(status, &error.to_string())
                    }
                },
            };
            shared.complete(token, response, close, true);
        }),
    );
}

/// The status of an engine failure, for `/advise` and `/tune` alike: 503
/// when the backend refuses to serve (backends refuse per candidate, so the
/// refusal arrives as the first error of `AllPredictionsFailed`); otherwise
/// the request was well-formed HTTP+JSON the engine cannot satisfy (unknown
/// kernel, bad source, empty budget) — the client's fault, a semantic 422.
fn engine_status(error: &EngineError) -> u16 {
    match error {
        EngineError::BackendUnavailable(_) => 503,
        EngineError::AllPredictionsFailed { first, .. } => engine_status(first),
        _ => 422,
    }
}

/// The 422 body for a request whose raw kernel source the frontend
/// rejected: the typed diagnostic (stable kind name, 1-based location,
/// and — for budget violations — the cap that was exhausted) lets a
/// client distinguish a typo from a parse bomb without string matching.
fn frontend_rejection(error: &pg_engine::FrontendError) -> Response {
    use serde::Value;
    let mut fields = vec![
        ("error".to_string(), Value::Str(error.to_string())),
        (
            "kind".to_string(),
            Value::Str(error.kind.name().to_string()),
        ),
        (
            "line".to_string(),
            Value::UInt(u64::from(error.location.line)),
        ),
        (
            "column".to_string(),
            Value::UInt(u64::from(error.location.column)),
        ),
        (
            "limit_exceeded".to_string(),
            Value::Bool(error.kind.is_limit()),
        ),
    ];
    if let Some(limit) = error.kind.limit() {
        fields.push(("limit".to_string(), Value::UInt(limit as u64)));
    }
    let payload = serde_json::to_string(&Value::Object(fields))
        .unwrap_or_else(|_| "{\"error\":\"unrenderable frontend rejection\"}".to_string());
    Response::json(422, payload)
}

/// `POST /tune`: run a budgeted variant-space search with the shared engine
/// as cost model.
///
/// Admission control is the same in-flight gauge `/advise` uses (checked at
/// dispatch) — a tuning run is strictly heavier than an advise call (many
/// frontier batches), so it must not be able to sneak past the load
/// shedding. The micro-batcher is *not* in this path: the tuner already
/// batches internally (each search generation is one
/// `Engine::predict_instances`, i.e. one backend `predict_batch`). It
/// blocks its worker thread for the run —
/// bounded by the budget clamp below.
fn tune(shared: &Shared, body: &[u8], trace: &TraceHandle) -> Response {
    let mut request: TuneRequest = match parse_body(shared, body, "TuneRequest") {
        Ok(request) => request,
        Err(response) => return response,
    };
    // Clamp the client-supplied budget to the server's ceiling: search
    // work is otherwise unbounded from the wire, and an admission slot
    // must not be holdable for hours (the report's accounting shows the
    // clamped budget the run actually got).
    request.limits.max_evaluations = request
        .limits
        .max_evaluations
        .min(shared.max_tune_evaluations);
    request.limits.max_generations = request
        .limits
        .max_generations
        .min(shared.max_tune_generations);
    // One span covers the whole search; its generations are attributed
    // individually to the `tune_generation` histogram by the evaluator.
    let search = obs().trace_span(trace, Stage::TuneGeneration, trace.root());
    let outcome = shared.engine.tune(&request);
    search.finish();
    match outcome {
        Ok(report) => {
            let span = obs().span(trace, Stage::Serialize, trace.root());
            let serialized = serde_json::to_string(&report);
            span.finish();
            match serialized {
                Ok(json) => {
                    shared.metrics.tune_ok.fetch_add(1, Ordering::Relaxed);
                    shared
                        .metrics
                        .record_analysis(&[], report.space.race_pruned);
                    Response::json(200, json)
                }
                Err(error) => {
                    shared.metrics.tune_failed.fetch_add(1, Ordering::Relaxed);
                    pg_obs::error!("tune report serialization failed", error = error);
                    Response::error(500, &format!("serializing tune report: {error}"))
                }
            }
        }
        Err(error) => {
            let status = match &error {
                TuneError::Engine(error) => engine_status(error),
                // A starved evaluation budget is the client's to fix.
                TuneError::NothingEvaluated { .. } => 422,
            };
            shared.metrics.tune_failed.fetch_add(1, Ordering::Relaxed);
            pg_obs::debug!("tune failed", status = status, error = error);
            Response::error(status, &error.to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::gated;
    use pg_engine::{AdviseReport, SimulatorBackend};
    use pg_perfsim::Platform;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn start(config: ServeConfig) -> (Server, Arc<Engine>) {
        let engine = Arc::new(Engine::builder().platform(Platform::SummitV100).build());
        let server = Server::start(Arc::clone(&engine), config).unwrap();
        (server, engine)
    }

    /// One request over a fresh connection; returns (status, body).
    fn roundtrip(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status line");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn post_advise(addr: SocketAddr, json: &str) -> (u16, String) {
        roundtrip(
            addr,
            &format!(
                "POST /advise HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{json}",
                json.len()
            ),
        )
    }

    #[test]
    fn healthz_reports_backend_and_platform() {
        let (server, _) = start(ServeConfig::default());
        let (status, body) = roundtrip(
            server.addr(),
            "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"backend\":\"simulator\""));
        assert!(body.contains("\"platform\":\"summit-v100\""));
        server.shutdown();
    }

    #[test]
    fn advise_round_trip_matches_direct_engine_call() {
        let (server, engine) = start(ServeConfig::default());
        let request = AdviseRequest::catalog("MM/matmul");
        let json = serde_json::to_string(&request).unwrap();
        let (status, body) = post_advise(server.addr(), &json);
        assert_eq!(status, 200, "body: {body}");
        let served: AdviseReport = serde_json::from_str(&body).unwrap();
        let direct = engine.advise(&request).unwrap();
        assert_eq!(served.rankings, direct.rankings);
        assert_eq!(served.failures, direct.failures);
        assert_eq!(served.kernel, direct.kernel);
        assert_eq!(served.backend, "simulator");
        let metrics = server.shutdown();
        assert_eq!(metrics.advise_ok, 1);
        assert_eq!(metrics.in_flight, 0);
    }

    #[test]
    fn unknown_routes_bad_json_and_unknown_kernels_map_to_statuses() {
        let (server, _) = start(ServeConfig::default());
        let addr = server.addr();
        let (status, _) = roundtrip(
            addr,
            "GET /nope HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 404);
        let (status, _) = roundtrip(
            addr,
            "DELETE /advise HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        let (status, body) = post_advise(addr, "{not json");
        assert_eq!(status, 400, "body: {body}");
        let (status, body) = post_advise(
            addr,
            "{\"kernel\":{\"Catalog\":\"Nope/x\"},\"sizes\":null,\"budget\":\"PlatformDefault\"}",
        );
        assert_eq!(status, 422, "body: {body}");
        assert!(body.contains("unknown catalogue kernel"));
        let metrics = server.shutdown();
        assert_eq!(metrics.http_bad_requests, 1);
        assert_eq!(metrics.advise_failed, 1);
    }

    #[test]
    fn tune_round_trip_matches_direct_engine_tune() {
        use pg_tune::{StrategySpec, TuneReport, TuneRequest};
        let (server, engine) = start(ServeConfig::default());
        let request = TuneRequest::catalog("MM/matmul").with_strategy(StrategySpec::Beam {
            width: 2,
            patience: 1,
        });
        let json = serde_json::to_string(&request).unwrap();
        let (status, body) = roundtrip(
            server.addr(),
            &format!(
                "POST /tune HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{json}",
                json.len()
            ),
        );
        assert_eq!(status, 200, "body: {body}");
        let served: TuneReport = serde_json::from_str(&body).unwrap();
        let direct = engine.tune(&request).unwrap();
        assert_eq!(served.best, direct.best);
        assert_eq!(served.trajectory, direct.trajectory);
        assert_eq!(served.space, direct.space);
        let metrics = server.shutdown();
        assert_eq!(metrics.tune_requests, 1);
        assert_eq!(metrics.tune_ok, 1);
        assert_eq!(metrics.advise_ok, 0);
        assert_eq!(metrics.in_flight, 0);
    }

    #[test]
    fn tune_budgets_are_clamped_to_the_server_ceiling() {
        use pg_tune::{StrategySpec, TuneReport, TuneRequest};
        let (server, _) = start(ServeConfig {
            max_tune_evaluations: 8,
            max_tune_generations: 1,
            ..ServeConfig::default()
        });
        // The client asks for the default 4096-evaluation budget; the
        // server must cut the run to its own ceiling.
        let request = TuneRequest::catalog("MM/matmul").with_strategy(StrategySpec::Exhaustive);
        let json = serde_json::to_string(&request).unwrap();
        let (status, body) = roundtrip(
            server.addr(),
            &format!(
                "POST /tune HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{json}",
                json.len()
            ),
        );
        assert_eq!(status, 200, "body: {body}");
        let served: TuneReport = serde_json::from_str(&body).unwrap();
        assert!(
            served.space.evaluated <= 8,
            "server ceiling ignored: {:?}",
            served.space
        );
        assert!(served.generations <= 1);
        server.shutdown();
    }

    #[test]
    fn tune_maps_bad_requests_and_unknown_kernels_to_statuses() {
        use pg_tune::TuneRequest;
        let (server, _) = start(ServeConfig::default());
        let addr = server.addr();
        let post = |json: &str| {
            roundtrip(
                addr,
                &format!(
                    "POST /tune HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{json}",
                    json.len()
                ),
            )
        };
        let (status, _) = post("{not json");
        assert_eq!(status, 400);
        let json = serde_json::to_string(&TuneRequest::catalog("Nope/none")).unwrap();
        let (status, body) = post(&json);
        assert_eq!(status, 422, "body: {body}");
        assert!(body.contains("unknown catalogue kernel"));
        let (status, _) = roundtrip(
            addr,
            "DELETE /tune HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        let metrics = server.shutdown();
        assert_eq!(metrics.tune_requests, 2);
        assert_eq!(metrics.tune_ok, 0);
        assert_eq!(metrics.tune_failed, 1);
        assert_eq!(metrics.http_bad_requests, 1);
    }

    /// A backend that refuses every candidate, as a model trained for
    /// another platform does.
    struct RefusingBackend;

    impl pg_engine::RuntimePredictor for RefusingBackend {
        fn name(&self) -> &str {
            "refusing"
        }

        fn predict_batch(
            &self,
            _: &pg_engine::PredictionContext<'_>,
            instances: &[pg_advisor::KernelInstance],
        ) -> Vec<Result<f64, EngineError>> {
            let refused = EngineError::BackendUnavailable("trained for another platform".into());
            instances.iter().map(|_| Err(refused.clone())).collect()
        }
    }

    #[test]
    fn a_backend_refusing_the_platform_answers_503_on_advise_and_tune() {
        let engine = Engine::builder()
            .platform(Platform::SummitV100)
            .backend(RefusingBackend)
            .build();
        let server = Server::start(Arc::new(engine), ServeConfig::default()).unwrap();
        let (status, body) = post_advise(
            server.addr(),
            r#"{"kernel":{"Catalog":"MM/matmul"},"sizes":null,"budget":"PlatformDefault"}"#,
        );
        assert_eq!(status, 503, "body: {body}");
        assert!(body.contains("backend unavailable"), "{body}");
        let json = serde_json::to_string(&TuneRequest::catalog("MM/matmul")).unwrap();
        let (status, body) = roundtrip(
            server.addr(),
            &format!(
                "POST /tune HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{json}",
                json.len()
            ),
        );
        assert_eq!(status, 503, "body: {body}");
        assert!(body.contains("backend unavailable"), "{body}");
        let metrics = server.shutdown();
        assert_eq!(metrics.advise_failed, 1);
        assert_eq!(metrics.tune_failed, 1);
    }

    #[test]
    fn tune_admission_control_rejects_with_retry_after() {
        use pg_tune::TuneRequest;
        let (server, _) = start(ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        });
        server
            .shared
            .metrics
            .in_flight
            .fetch_add(1, Ordering::SeqCst);
        let json = serde_json::to_string(&TuneRequest::catalog("MM/matmul")).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST /tune HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{json}",
                    json.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
        server
            .shared
            .metrics
            .in_flight
            .fetch_sub(1, Ordering::SeqCst);
        let metrics = server.shutdown();
        assert_eq!(metrics.tune_rejected, 1);
        assert_eq!(metrics.tune_ok, 0);
    }

    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let (server, _) = start(ServeConfig::default());
        let json = serde_json::to_string(&AdviseRequest::catalog("MV/matvec")).unwrap();
        post_advise(server.addr(), &json);
        let (status, body) = roundtrip(
            server.addr(),
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert!(body.contains("paragraph_serve_advise_ok_total 1"));
        assert!(body.contains("paragraph_serve_batches_total 1"));
        assert!(body.contains("paragraph_serve_batch_fill_ratio"));
        assert!(body.contains("paragraph_serve_open_connections 1"));
        assert!(body.contains("paragraph_serve_batch_oldest_wait_seconds"));
        // The stage histograms ride along on the same endpoint; the hub is
        // process-global, so only assert family presence (counts belong to
        // whichever tests ran first).
        assert!(body.contains("# TYPE paragraph_stage_duration_seconds histogram"));
        assert!(body.contains("paragraph_stage_duration_seconds_bucket{stage=\"predict\""));
        server.shutdown();
    }

    /// Tentpole acceptance: a single `/advise` over HTTP yields a
    /// retrievable trace at `/debug/traces` whose span tree covers the
    /// pipeline from accept to write.
    #[test]
    fn debug_traces_endpoint_returns_span_trees() {
        let (server, _) = start(ServeConfig::default());
        let json = serde_json::to_string(&AdviseRequest::catalog("MM/matmul")).unwrap();
        let (status, body) = post_advise(server.addr(), &json);
        assert_eq!(status, 200, "body: {body}");
        let (status, body) = roundtrip(
            server.addr(),
            "GET /debug/traces HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        // The default sampling policy (PARAGRAPH_OBS_SAMPLE=1) keeps every
        // trace, so the advise request must be retrievable with its full
        // stage ladder. The recorder is process-global: other tests'
        // traces may interleave, so assert on content, not on count.
        for stage in [
            "\"stage\":\"request\"",
            "\"stage\":\"accept\"",
            "\"stage\":\"parse\"",
            "\"stage\":\"batch_wait\"",
            "\"stage\":\"analyze\"",
            "\"stage\":\"predict\"",
            "\"stage\":\"serialize\"",
            "\"stage\":\"write\"",
        ] {
            assert!(body.contains(stage), "missing {stage} in:\n{body}");
        }
        assert!(body.contains("\"trace_id\""));
        assert!(body.contains("\"children\""));
        let (status, _) = roundtrip(
            server.addr(),
            "DELETE /debug/traces HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn admission_control_rejects_with_retry_after() {
        let (server, _) = start(ServeConfig {
            max_inflight: 1,
            ..ServeConfig::default()
        });
        // Saturate the single admission slot by holding the gauge
        // ourselves, then observe the rejection.
        server
            .shared
            .metrics
            .in_flight
            .fetch_add(1, Ordering::SeqCst);
        let json = serde_json::to_string(&AdviseRequest::catalog("MM/matmul")).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST /advise HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\
                     Connection: close\r\n\r\n{json}",
                    json.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
        server
            .shared
            .metrics
            .in_flight
            .fetch_sub(1, Ordering::SeqCst);
        let metrics = server.shutdown();
        assert_eq!(metrics.advise_rejected, 1);
        assert_eq!(metrics.advise_ok, 0);
    }

    #[test]
    fn slow_advise_saturates_admission_for_real() {
        // The first admitted request's batch holds at the gate, so both
        // admission slots stay taken: the other ten clients must be shed
        // with 429 before the release, and the two admitted ones answer
        // 200 after it.
        let (backend, gate) = gated(SimulatorBackend::noise_free());
        gate.arm();
        let engine = Engine::builder()
            .platform(Platform::SummitV100)
            .backend(backend)
            .build();
        let server = Server::start(
            Arc::new(engine),
            ServeConfig {
                max_inflight: 2,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr();
        let json = serde_json::to_string(&AdviseRequest::catalog("MM/matmul")).unwrap();
        let (done, statuses) = mpsc::channel();
        let clients: Vec<_> = (0..12)
            .map(|_| {
                let (json, done) = (json.clone(), done.clone());
                std::thread::spawn(move || done.send(post_advise(addr, &json).0).unwrap())
            })
            .collect();
        let next_status = || statuses.recv_timeout(Duration::from_secs(60)).unwrap();
        let shed: Vec<u16> = (0..10).map(|_| next_status()).collect();
        assert_eq!(shed, [429; 10]);
        gate.wait_held();
        gate.release();
        let served: Vec<u16> = (0..2).map(|_| next_status()).collect();
        assert_eq!(served, [200; 2]);
        for client in clients {
            client.join().unwrap();
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.advise_rejected, 10);
        assert_eq!(metrics.advise_ok, 2);
    }

    #[test]
    fn connection_limit_sheds_at_accept() {
        let (server, _) = start(ServeConfig {
            max_connections: 1,
            idle_timeout: Duration::from_millis(300),
            ..ServeConfig::default()
        });
        let addr = server.addr();
        // Occupy the single slot with a keep-alive connection...
        let mut held = TcpStream::connect(addr).unwrap();
        held.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut first = [0u8; 12];
        held.read_exact(&mut first).unwrap();
        assert_eq!(&first, b"HTTP/1.1 200");
        // ...and watch the next connection get shed without sending a byte.
        let mut shed = TcpStream::connect(addr).unwrap();
        let mut response = String::new();
        shed.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 429"), "{response}");
        assert!(response.contains("Retry-After: 1"), "{response}");
        drop(held);
        let metrics = server.shutdown();
        assert_eq!(metrics.connections_shed, 1);
    }

    #[test]
    fn keep_alive_serves_sequential_requests_on_one_connection() {
        let (server, _) = start(ServeConfig::default());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        for _ in 0..3 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                .unwrap();
            let mut header = Vec::new();
            let mut byte = [0u8; 1];
            while !header.ends_with(b"\r\n\r\n") {
                stream.read_exact(&mut byte).unwrap();
                header.push(byte[0]);
            }
            let head = String::from_utf8(header).unwrap();
            assert!(head.starts_with("HTTP/1.1 200"));
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let mut body = vec![0u8; length];
            stream.read_exact(&mut body).unwrap();
        }
        // Close the client side so the drain below does not have to wait
        // out the idle timeout.
        drop(stream);
        let metrics = server.shutdown();
        assert_eq!(metrics.http_requests, 3);
        assert_eq!(metrics.connections_opened, 1);
    }

    #[test]
    fn shutdown_drains_and_leaves_no_thread_behind() {
        let (server, engine) = start(ServeConfig::default());
        let addr = server.addr();
        let json = serde_json::to_string(&AdviseRequest::catalog("MM/matmul")).unwrap();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                let json = json.clone();
                std::thread::spawn(move || post_advise(addr, &json).0)
            })
            .collect();
        for client in clients {
            assert_eq!(client.join().unwrap(), 200);
        }
        let metrics = server.shutdown();
        assert_eq!(metrics.advise_ok, 4);
        assert_eq!(metrics.in_flight, 0);
        // The port is released: a fresh server can bind the same address.
        let listener = TcpListener::bind(addr);
        assert!(listener.is_ok(), "address still held after shutdown");
        drop(engine);
    }
}
