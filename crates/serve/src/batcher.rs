//! The micro-batching scheduler: concurrent `/advise` requests coalesce
//! into one [`Engine::advise_many`] call.
//!
//! Submission is asynchronous: [`MicroBatcher::submit`] enqueues a request
//! together with a *responder* callback and returns immediately — the
//! scheduler thread invokes the responder with the outcome after the batch
//! executes. This is what decouples coalesced-batch size from thread
//! count: the event-driven server's handful of workers can have hundreds
//! of requests pending in one batch, because no thread blocks per request.
//! (The synchronous [`MicroBatcher::advise`] wrapper still exists for
//! callers that want to wait in place.)
//!
//! A single scheduler thread drains the queue with one flush rule: as soon
//! as it is free and anything is queued, it takes up to
//! [`BatchConfig::max_batch`] requests and executes them. Nothing is held
//! back for company. Requests that arrive while a batch executes queue up
//! and form the next batch, so under load execution time *is* the
//! coalescing window, and an idle server answers a lone request with no
//! added wait. A loaded server rides the engine's batched execution path
//! at full speed — for the GNN backend, one disjoint-union forward pass per
//! flush instead of one tape per request. Predictions are invariant to
//! batch composition (pinned by `pg-gnn`'s
//! `batched_prediction_is_invariant_to_batch_composition`), so coalescing
//! never changes an answer, only its latency.
//!
//! On shutdown the scheduler drains: queued requests are still flushed,
//! new submissions are refused, and the thread exits when the queue is
//! empty.

use crate::metrics::ServeMetrics;
use crate::ServeError;
use pg_engine::{AdviseReport, AdviseRequest, Engine};
use pg_obs::{monotonic_us, obs, Span, Stage, TraceHandle};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Bounds of the micro-batcher: batch size and queue depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most requests coalesced into one engine call.
    pub max_batch: usize,
    /// Most requests queued but not yet executing; submissions beyond this
    /// are refused with [`ServeError::Overloaded`]. The server's admission
    /// control normally rejects earlier — this is the batcher's own
    /// defensive bound.
    pub queue_depth: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        Self {
            // Sized for the event-driven server: thousands of keep-alive
            // connections can have requests pending at once, and a deeper
            // cap lets one `predict_batch` absorb them. (The pre-event-loop
            // cap of 64 rarely filled because a blocked thread per request
            // bounded the backlog at the worker count.)
            max_batch: 256,
            queue_depth: 4096,
        }
    }
}

/// Callback invoked (exactly once, on the scheduler thread — or inline on
/// refusal) with the outcome of a submitted request.
pub type Responder = Box<dyn FnOnce(Result<AdviseReport, ServeError>) + Send>;

struct Job {
    request: AdviseRequest,
    responder: Responder,
    /// The request's trace, threaded through to `advise_many_traced` so
    /// engine stages (enumerate / analyze / predict) land in its span tree.
    trace: TraceHandle,
    /// Enqueue timestamp ([`monotonic_us`]); feeds the oldest-waiter gauge.
    enqueued_us: u64,
    /// Open batch-wait measurement: started at submit, finished when the
    /// scheduler collects the job into a batch. Feeds both the `batch_wait`
    /// stage histogram and (for traced requests) the span tree.
    wait_span: Span<'static>,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled on submit and on shutdown.
    arrived: Condvar,
    draining: AtomicBool,
    config: BatchConfig,
    metrics: Arc<ServeMetrics>,
}

/// Handle to the scheduler thread. Dropping it without
/// [`MicroBatcher::shutdown`] also drains (the thread is joined).
pub struct MicroBatcher {
    shared: Arc<Shared>,
    scheduler: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MicroBatcher {
    /// Start the scheduler thread over a shared engine.
    pub fn start(engine: Arc<Engine>, config: BatchConfig, metrics: Arc<ServeMetrics>) -> Self {
        // A zero cap would make every batch empty, which the scheduler
        // reads as "drained dry": it would exit with requests queued.
        let config = BatchConfig {
            max_batch: config.max_batch.max(1),
            ..config
        };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            arrived: Condvar::new(),
            draining: AtomicBool::new(false),
            config,
            metrics,
        });
        shared
            .metrics
            .batch_capacity
            .store(config.max_batch as u64, Ordering::Relaxed);
        let worker_shared = Arc::clone(&shared);
        let scheduler = std::thread::Builder::new()
            .name("pg-serve-batcher".into())
            .spawn(move || scheduler_loop(&worker_shared, &engine))
            .expect("spawning the batcher scheduler thread");
        Self {
            shared,
            scheduler: Mutex::new(Some(scheduler)),
        }
    }

    /// Enqueue one request without blocking; `responder` is invoked exactly
    /// once with the outcome — on the scheduler thread after the batch
    /// executes, or inline (with `Overloaded`/`ShuttingDown`) when the
    /// request is refused without queuing. `trace` (the request's trace
    /// handle, or [`TraceHandle::disabled`]) travels with the job so the
    /// engine's per-stage spans nest under the request.
    pub fn submit(&self, request: AdviseRequest, trace: TraceHandle, responder: Responder) {
        let mut queue = self.shared.queue.lock().expect("batcher queue poisoned");
        if self.shared.draining.load(Ordering::SeqCst) {
            drop(queue);
            responder(Err(ServeError::ShuttingDown));
            return;
        }
        if queue.len() >= self.shared.config.queue_depth {
            let in_flight = queue.len();
            drop(queue);
            responder(Err(ServeError::Overloaded {
                in_flight,
                limit: self.shared.config.queue_depth,
            }));
            return;
        }
        let o = obs();
        let enqueued_us = monotonic_us();
        let wait_span = o.span(&trace, Stage::BatchWait, trace.root());
        queue.push_back(Job {
            request,
            responder,
            trace,
            enqueued_us,
            wait_span,
        });
        if queue.len() == 1 {
            // Queue was empty: this job is now the oldest waiter.
            self.shared
                .metrics
                .batch_oldest_enqueue_us
                .store(enqueued_us + 1, Ordering::Relaxed);
        }
        drop(queue);
        self.shared.arrived.notify_one();
    }

    /// Submit one request and block until its batch executes. Refused
    /// (without queuing) when the batcher is draining or the queue is full.
    pub fn advise(&self, request: AdviseRequest) -> Result<AdviseReport, ServeError> {
        let (reply, result) = mpsc::channel();
        self.submit(
            request,
            TraceHandle::disabled(),
            Box::new(move |outcome| {
                let _ = reply.send(outcome);
            }),
        );
        match result.recv() {
            Ok(outcome) => outcome,
            // The scheduler dropped the responder without invoking it:
            // only possible if it panicked mid-batch.
            Err(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// Drain and stop: refuse new submissions, flush everything queued,
    /// join the scheduler thread.
    pub fn shutdown(self) {
        self.stop();
    }

    /// Drain and join the scheduler thread. Idempotent; safe to call from
    /// any thread. If invoked *on* the scheduler thread (possible when a
    /// queued responder holds the last reference to the owning structure),
    /// the handle is detached instead of joined — the scheduler is already
    /// on its way out, and a self-join would deadlock.
    pub fn stop(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.arrived.notify_all();
        let handle = self
            .scheduler
            .lock()
            .expect("batcher scheduler handle poisoned")
            .take();
        if let Some(handle) = handle {
            if handle.thread().id() == std::thread::current().id() {
                return;
            }
            let _ = handle.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.stop();
    }
}

fn scheduler_loop(shared: &Shared, engine: &Engine) {
    loop {
        let batch = collect_batch(shared);
        if batch.is_empty() {
            // Only returned empty when draining and the queue is dry.
            return;
        }
        shared.metrics.record_batch(batch.len());
        let mut requests = Vec::with_capacity(batch.len());
        let mut traces = Vec::with_capacity(batch.len());
        let mut responders = Vec::with_capacity(batch.len());
        for job in batch {
            // The wait is over the moment the batch is assembled; the
            // engine stages take over latency attribution from here.
            job.wait_span.finish();
            requests.push(job.request);
            traces.push(job.trace);
            responders.push(job.responder);
        }
        let results = engine.advise_many_traced(&requests, &traces);
        for (responder, result) in responders.into_iter().zip(results) {
            responder(result.map_err(ServeError::Engine));
        }
    }
}

/// Block until at least one job is queued (or the batcher drains dry), then
/// take up to `max_batch` jobs from the front of the queue.
///
/// There is no hold for company: jobs that queue while a batch executes
/// form the next batch, so a saturated server batches at full speed and an
/// idle one flushes a lone request at once.
fn collect_batch(shared: &Shared) -> Vec<Job> {
    let mut queue = shared.queue.lock().expect("batcher queue poisoned");
    while queue.is_empty() && !shared.draining.load(Ordering::SeqCst) {
        queue = shared.arrived.wait(queue).expect("batcher queue poisoned");
    }
    let take = queue.len().min(shared.config.max_batch);
    let batch: Vec<Job> = queue.drain(..take).collect();
    // Re-point the oldest-waiter gauge at whatever still queues (0 when
    // drained empty), under the queue lock so the gauge can never dangle
    // on a collected job.
    let stamp = queue.front().map_or(0, |job| job.enqueued_us + 1);
    shared
        .metrics
        .batch_oldest_enqueue_us
        .store(stamp, Ordering::Relaxed);
    batch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{gated, Gate};
    use crate::metrics::MetricsSnapshot;
    use pg_engine::SimulatorBackend;
    use pg_perfsim::Platform;

    fn test_engine() -> Arc<Engine> {
        Arc::new(Engine::builder().platform(Platform::SummitV100).build())
    }

    /// A simulator engine whose first `predict_batch` holds at the gate.
    fn gated_engine() -> (Arc<Engine>, Gate) {
        let (backend, gate) = gated(SimulatorBackend::noise_free());
        gate.arm();
        let engine = Engine::builder()
            .platform(Platform::SummitV100)
            .backend(backend)
            .build();
        (Arc::new(engine), gate)
    }

    fn catalog_request() -> AdviseRequest {
        AdviseRequest::catalog("MM/matmul")
    }

    /// Submit one request whose outcome lands on `done`.
    fn submit_to(batcher: &MicroBatcher, done: &mpsc::Sender<Result<AdviseReport, ServeError>>) {
        let done = done.clone();
        batcher.submit(
            catalog_request(),
            TraceHandle::disabled(),
            Box::new(move |outcome| done.send(outcome).unwrap()),
        );
    }

    /// Hold the first job's batch at the gate, queue `behind` more jobs
    /// behind it, then release, and wait for every outcome.
    fn hold_one_then_queue(config: BatchConfig, behind: usize) -> MetricsSnapshot {
        let (engine, gate) = gated_engine();
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = MicroBatcher::start(engine, config, Arc::clone(&metrics));
        let (done, outcomes) = mpsc::channel();
        submit_to(&batcher, &done);
        gate.wait_held();
        for _ in 0..behind {
            submit_to(&batcher, &done);
        }
        gate.release();
        for _ in 0..=behind {
            assert!(!outcomes.recv().unwrap().unwrap().rankings.is_empty());
        }
        batcher.shutdown();
        metrics.snapshot()
    }

    #[test]
    fn lone_request_flushes_at_once() {
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = MicroBatcher::start(
            test_engine(),
            BatchConfig {
                max_batch: 64,
                queue_depth: 16,
            },
            Arc::clone(&metrics),
        );
        let report = batcher.advise(catalog_request()).unwrap();
        assert!(!report.rankings.is_empty());
        let snap = metrics.snapshot();
        assert_eq!(snap.batches, 1);
        assert_eq!(snap.batched_requests, 1);
        batcher.shutdown();
    }

    #[test]
    fn concurrent_submissions_coalesce() {
        // Seven jobs queue while the first job's batch executes, and the
        // scheduler takes all of them as the next batch.
        let snap = hold_one_then_queue(
            BatchConfig {
                max_batch: 64,
                queue_depth: 64,
            },
            7,
        );
        assert_eq!(snap.batched_requests, 8);
        assert_eq!(snap.batches, 2, "{snap:?}");
        assert_eq!(snap.coalesced_batches, 1, "{snap:?}");
        assert_eq!(snap.max_batch_size, 7, "{snap:?}");
    }

    #[test]
    fn max_batch_caps_a_flush() {
        // Six jobs queued behind a held one leave in three batches of two.
        let snap = hold_one_then_queue(
            BatchConfig {
                max_batch: 2,
                queue_depth: 64,
            },
            6,
        );
        assert_eq!(snap.batched_requests, 7);
        assert_eq!(snap.batches, 4, "{snap:?}");
        assert!(snap.max_batch_size <= 2, "{snap:?}");
    }

    #[test]
    fn zero_max_batch_still_serves() {
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = MicroBatcher::start(
            test_engine(),
            BatchConfig {
                max_batch: 0,
                queue_depth: 4,
            },
            Arc::clone(&metrics),
        );
        let report = batcher.advise(catalog_request()).unwrap();
        assert!(!report.rankings.is_empty());
        assert_eq!(metrics.snapshot().max_batch_size, 1);
    }

    #[test]
    fn shutdown_drains_queued_work_and_refuses_new() {
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = MicroBatcher::start(test_engine(), BatchConfig::default(), metrics);
        let report = batcher.advise(catalog_request()).unwrap();
        assert!(!report.rankings.is_empty());
        batcher.shutdown();

        let metrics = Arc::new(ServeMetrics::default());
        let batcher = MicroBatcher::start(test_engine(), BatchConfig::default(), metrics);
        batcher.shared.draining.store(true, Ordering::SeqCst);
        assert!(matches!(
            batcher.advise(catalog_request()),
            Err(ServeError::ShuttingDown)
        ));
    }

    #[test]
    fn full_queue_is_refused_as_overload() {
        let metrics = Arc::new(ServeMetrics::default());
        let batcher = MicroBatcher::start(
            test_engine(),
            BatchConfig {
                max_batch: 4,
                queue_depth: 0,
            },
            metrics,
        );
        assert!(matches!(
            batcher.advise(catalog_request()),
            Err(ServeError::Overloaded { .. })
        ));
    }
}
