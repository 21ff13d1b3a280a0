//! # pg-serve
//!
//! The serving tier of the ParaGraph reproduction: a dependency-free
//! (std-only) multi-threaded HTTP/1.1 server that puts a process boundary
//! and a wire format in front of [`pg_engine::Engine`]. This is the
//! paper's deployment story made concrete — a developer POSTs a kernel,
//! the service answers ranked OpenMP variants — and the layer where the
//! repository's batched execution path starts paying off across *clients*
//! rather than within one call.
//!
//! ```text
//!  thousands of keep-alive clients
//! client ──┐
//! client ──┤   epoll event loop        fixed worker pool
//! client ──┼──► (1 thread: accept,  ──► (N threads: route,   ─┐ async
//! client ──┤    incremental parse,      parse JSON)           │ submit
//! client ──┘    write, timeouts)                              ▼
//!                                     micro-batcher (≤ max_batch, flushed
//!                                     when the scheduler is free)
//!                                                 │ one Engine::advise_many
//!                                                 ▼
//!                                  backend predict_batch (GNN: one
//!                                  disjoint-union forward pass per flush)
//! ```
//!
//! Five routes: `POST /advise` and `POST /tune` (the engine's and tuner's
//! own serde types as the wire format), `GET /healthz`, `GET /metrics`
//! (Prometheus text; one table in [`metrics`] declares every scalar serve
//! metric) and `GET /debug/traces` (the kept request traces as JSON span
//! trees, most recent first). `/tune` runs a budgeted `pg_tune` search
//! with the shared engine as cost model (it batches internally — one
//! backend call per search generation — so it bypasses the micro-batcher
//! but shares the admission gauge). Admission control bounds in-flight
//! requests across both POST routes (429 + `Retry-After` on overload),
//! and shutdown drains: admitted requests finish, queued batches flush,
//! every thread joins. Pair with `pg_gnn::registry` to hot-load a trained
//! model bundle instead of training in-process — see `examples/serve.rs`.
//!
//! ```no_run
//! use pg_engine::Engine;
//! use pg_serve::{ServeConfig, Server};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::builder().build());
//! let server = Server::start(engine, ServeConfig::default()).unwrap();
//! println!("listening on http://{}", server.addr());
//! server.shutdown();
//! ```

#![warn(missing_docs)]
// Two exceptions: the no-libc signal shim in `signal` and the raw epoll
// syscall bindings in `poll` — both opt back in locally.
#![deny(unsafe_code)]

pub mod batcher;
pub(crate) mod event;
#[cfg(test)]
#[path = "../tests/gate/mod.rs"]
mod gate;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod server;
pub mod signal;

pub use batcher::{BatchConfig, MicroBatcher};
pub use metrics::{MetricsSnapshot, RuleCount, ServeMetrics, BATCH_SIZE_BUCKETS};
pub use server::{ServeConfig, Server};
pub use signal::{install_termination_handler, termination_requested};

use pg_engine::EngineError;

/// Why the serving tier refused or failed a request (distinct from HTTP
/// parse errors, which never reach the engine).
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The engine processed the request and failed.
    Engine(EngineError),
    /// Admission control or the batcher queue refused the request; retry
    /// after backoff.
    Overloaded {
        /// Requests in flight when the request was refused.
        in_flight: usize,
        /// The configured bound.
        limit: usize,
    },
    /// The server is draining and no longer accepts work.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Engine(error) => write!(f, "{error}"),
            ServeError::Overloaded { in_flight, limit } => {
                write!(f, "overloaded: {in_flight} in flight, {limit} admitted")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(error) => Some(error),
            _ => None,
        }
    }
}

impl From<EngineError> for ServeError {
    fn from(error: EngineError) -> Self {
        ServeError::Engine(error)
    }
}
