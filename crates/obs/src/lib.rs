//! # pg-obs
//!
//! Std-only observability core for the ParaGraph stack: end-to-end request
//! tracing, lock-free per-stage latency histograms, and leveled structured
//! logging. No external dependencies beyond the in-repo serde shim, matching
//! the workspace's no-crates.io discipline.
//!
//! Three coordinated pieces:
//!
//! * **Spans + traces** — [`Obs::begin_trace`] mints a request-scoped
//!   [`TraceId`] (at event-loop accept); the [`TraceHandle`] is cloned
//!   through batcher, engine, analyze and backend tiers, each opening
//!   [`Span`]s that nest via [`SpanId`] parents. Commit is tail-sampled:
//!   1-in-N requests are kept, plus *every* request slower than the
//!   configurable threshold. Kept traces land in a bounded ring buffer
//!   ([`TraceRecorder`]) served as JSON span trees by `GET /debug/traces`.
//! * **Histograms** — every finished span also records into a per-[`Stage`]
//!   log-scale histogram ([`StageHistograms`]) of atomic buckets, exported
//!   by `/metrics` as `paragraph_stage_duration_seconds{stage=...}`
//!   ([`stage_histograms_to_prometheus`]). The [`Exposition`] writer that
//!   renders it is the one every `/metrics` family goes through.
//! * **Logging** — `key=value` structured lines behind an atomic level
//!   filter (see [`log`] and the [`error!`]/[`warn!`]/[`info!`]/[`debug!`]
//!   macros).
//!
//! The disabled path is deliberately cheap: with `PARAGRAPH_OBS=0`,
//! creating a span is one atomic load and no clock read.
//!
//! ## Environment
//!
//! | Variable | Default | Meaning |
//! |---|---|---|
//! | `PARAGRAPH_OBS` | `1` | `0`/`false`/`off` disables tracing + histograms |
//! | `PARAGRAPH_OBS_SAMPLE` | `1` | keep 1-in-N traces (N=1 keeps all) |
//! | `PARAGRAPH_OBS_SLOW_MS` | `100` | always keep traces slower than this |
//! | `PARAGRAPH_OBS_TRACES` | `64` | ring-buffer capacity |
//! | `PARAGRAPH_LOG` | `info` | `off`/`error`/`warn`/`info`/`debug` |

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod hist;
pub mod log;
pub mod prometheus;
pub mod trace;

pub use hist::{
    bucket_bound_seconds, Histogram, HistogramSnapshot, Stage, StageHistograms, BUCKET_COUNT,
    FINITE_BUCKETS,
};
pub use log::{capture, set_level, Level, LogCapture};
pub use prometheus::{stage_histograms_to_prometheus, Exposition};
pub use trace::{
    FinishedTrace, RawSpan, SpanId, SpanNode, TraceHandle, TraceId, TraceRecorder, TraceTree,
    MAX_SPANS_PER_TRACE,
};

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};
use trace::TraceShared;

/// Tunable observability settings (see the crate docs for the matching
/// environment variables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch for tracing and stage histograms.
    pub enabled: bool,
    /// Keep 1 trace in every `sample_every` (1 keeps all).
    pub sample_every: u64,
    /// Requests slower than this are kept regardless of the sampling draw.
    pub slow_threshold: Duration,
    /// Ring-buffer capacity of the trace recorder.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            sample_every: 1,
            slow_threshold: Duration::from_millis(100),
            trace_capacity: 64,
        }
    }
}

impl ObsConfig {
    /// Read the configuration from `PARAGRAPH_OBS*` environment variables,
    /// falling back to the defaults.
    pub fn from_env() -> Self {
        let mut cfg = Self::default();
        if let Ok(v) = std::env::var("PARAGRAPH_OBS") {
            let v = v.trim().to_ascii_lowercase();
            cfg.enabled = !matches!(v.as_str(), "0" | "false" | "off" | "no");
        }
        if let Some(n) = env_u64("PARAGRAPH_OBS_SAMPLE") {
            cfg.sample_every = n.max(1);
        }
        if let Some(ms) = env_u64("PARAGRAPH_OBS_SLOW_MS") {
            cfg.slow_threshold = Duration::from_millis(ms);
        }
        if let Some(k) = env_u64("PARAGRAPH_OBS_TRACES") {
            cfg.trace_capacity = (k as usize).max(1);
        }
        cfg
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The observability hub: switchboard, stage histograms, and the trace
/// recorder. Production code uses the process-wide instance from [`obs`];
/// tests build private instances with [`Obs::new`] for deterministic
/// sampling behaviour.
#[derive(Debug)]
pub struct Obs {
    enabled: AtomicBool,
    sample_every: AtomicU64,
    slow_us: AtomicU64,
    trace_counter: AtomicU64,
    stages: StageHistograms,
    recorder: TraceRecorder,
}

impl Obs {
    /// Build a hub from a configuration.
    pub fn new(config: ObsConfig) -> Self {
        Self {
            enabled: AtomicBool::new(config.enabled),
            sample_every: AtomicU64::new(config.sample_every.max(1)),
            slow_us: AtomicU64::new(
                config.slow_threshold.as_micros().min(u128::from(u64::MAX)) as u64
            ),
            trace_counter: AtomicU64::new(0),
            stages: StageHistograms::default(),
            recorder: TraceRecorder::new(config.trace_capacity),
        }
    }

    /// Whether tracing + histogram recording are on (one atomic load).
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flip the master switch at runtime (benches, tests).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Start a request trace. Returns an inactive handle when tracing is
    /// disabled. The sampling draw happens here (so a sampled-out fast
    /// request still collects spans only until commit discards them —
    /// see [`Obs::commit`]); `label` names the request kind in the
    /// recorder output.
    pub fn begin_trace(&self, label: &'static str) -> TraceHandle {
        if !self.enabled() {
            return TraceHandle::disabled();
        }
        let seq = self.trace_counter.fetch_add(1, Ordering::Relaxed);
        let every = self.sample_every.load(Ordering::Relaxed).max(1);
        TraceHandle(Some(Arc::new(TraceShared {
            id: TraceId(splitmix64(seq.wrapping_add(0x9e37_79b9_7f4a_7c15))),
            label,
            start: Instant::now(),
            sampled: seq.is_multiple_of(every),
            spans: Mutex::new(Vec::with_capacity(8)),
        })))
    }

    /// Open a span on `trace` (and in the stage histogram). With an
    /// inactive handle the span still feeds the histogram; with the hub
    /// disabled it is a complete no-op.
    pub fn span<'a>(
        &'a self,
        trace: &TraceHandle,
        stage: Stage,
        parent: Option<SpanId>,
    ) -> Span<'a> {
        if !self.enabled() {
            return Span::noop(stage);
        }
        Span {
            obs: Some(self),
            trace: trace.push_span(stage, parent),
            stage,
            start: Some(Instant::now()),
            hist: true,
        }
    }

    /// Like [`Obs::span`] but recording only into the trace, not the stage
    /// histogram — for wrapper spans whose interval a deeper component
    /// already attributes to the same stage (e.g. the engine's analyze-gate
    /// span around `pg-analyze`'s own instrumented entry point).
    pub fn trace_span<'a>(
        &'a self,
        trace: &TraceHandle,
        stage: Stage,
        parent: Option<SpanId>,
    ) -> Span<'a> {
        let mut span = self.span(trace, stage, parent);
        span.hist = false;
        span
    }

    /// A histogram-only timer for a stage (no trace attachment).
    pub fn timer(&self, stage: Stage) -> Span<'_> {
        self.span(&TraceHandle::disabled(), stage, None)
    }

    /// Record a duration for a stage directly (when the interval was
    /// measured externally, e.g. an enqueue timestamp).
    pub fn record_stage(&self, stage: Stage, duration: Duration) {
        if self.enabled() {
            self.stages.record(stage, duration);
        }
    }

    /// Finish a trace: keep it in the ring buffer if it won the sampling
    /// draw or overran the slow threshold, otherwise drop everything it
    /// collected. Returns whether the trace was kept.
    pub fn commit(&self, trace: TraceHandle) -> bool {
        let Some(shared) = trace.0 else { return false };
        let duration = shared.start.elapsed();
        let duration_us = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        let keep = shared.sampled || duration_us >= self.slow_us.load(Ordering::Relaxed);
        if !keep {
            return false;
        }
        let spans = shared
            .spans
            .lock()
            .expect("trace span lock poisoned")
            .clone();
        self.recorder.push(FinishedTrace {
            id: shared.id,
            label: shared.label,
            duration_us,
            spans,
        });
        true
    }

    /// Snapshot every stage histogram, in [`Stage::ALL`] order.
    pub fn stage_snapshot(&self) -> Vec<(Stage, HistogramSnapshot)> {
        self.stages.snapshot()
    }

    /// The recorded traces, most recent first.
    pub fn traces(&self) -> Vec<FinishedTrace> {
        self.recorder.recent()
    }

    /// The trace ring buffer.
    pub fn recorder(&self) -> &TraceRecorder {
        &self.recorder
    }
}

/// The process-wide observability hub, configured from the environment on
/// first use.
pub fn obs() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(|| Obs::new(ObsConfig::from_env()))
}

/// Microseconds since an arbitrary process-wide monotonic epoch (fixed on
/// first call). Lets independent components exchange monotonic timestamps
/// through atomics (e.g. the batcher's oldest-waiter gauge).
pub fn monotonic_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_micros()
        .min(u128::from(u64::MAX)) as u64
}

fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An in-flight stage measurement. Finishing (explicitly or on drop)
/// records the elapsed time into the owning hub's stage histogram and, when
/// attached to an active trace, closes the trace span. Spans are `Send`, so
/// a measurement can start on one thread (enqueue) and finish on another
/// (batch collection).
#[derive(Debug)]
pub struct Span<'a> {
    obs: Option<&'a Obs>,
    trace: Option<(Arc<TraceShared>, u32)>,
    stage: Stage,
    start: Option<Instant>,
    hist: bool,
}

impl<'a> Span<'a> {
    fn noop(stage: Stage) -> Self {
        Span {
            obs: None,
            trace: None,
            stage,
            start: None,
            hist: false,
        }
    }

    /// This span's id within its trace (for parenting children), if it is
    /// attached to an active trace.
    pub fn id(&self) -> Option<SpanId> {
        self.trace.as_ref().map(|(_, idx)| SpanId(*idx))
    }

    /// The stage this span measures.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// End the measurement now instead of at drop.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        let (Some(obs), Some(start)) = (self.obs.take(), self.start.take()) else {
            return;
        };
        if self.hist {
            obs.stages.record(self.stage, start.elapsed());
        }
        if let Some((shared, idx)) = self.trace.take() {
            trace::finish_span(&shared, idx);
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_obs(sample_every: u64) -> Obs {
        Obs::new(ObsConfig {
            enabled: true,
            sample_every,
            slow_threshold: Duration::from_secs(3600), // slow-keep impossible
            trace_capacity: 8,
        })
    }

    /// Satellite: span-tree nesting through the real begin/span/commit
    /// path, plus the sampled-out guarantee.
    #[test]
    fn span_tree_nesting_and_sampling() {
        let o = test_obs(2); // keep traces 0, 2, 4, ...; drop 1, 3, ...

        // Trace 0 wins the draw: build request -> {parse, predict -> analyze}.
        let t = o.begin_trace("advise");
        assert!(t.active());
        let root = o.span(&t, Stage::Request, None);
        let root_id = root.id();
        assert_eq!(root_id, Some(SpanId(0)));
        assert_eq!(t.root(), root_id);
        o.span(&t, Stage::Parse, root_id).finish();
        let predict = o.span(&t, Stage::Predict, root_id);
        o.span(&t, Stage::Analyze, predict.id()).finish();
        predict.finish();
        root.finish();
        assert!(o.commit(t));

        let traces = o.traces();
        assert_eq!(traces.len(), 1);
        let tree = traces[0].tree();
        assert_eq!(tree.label, "advise");
        assert_eq!(tree.spans.len(), 1, "single root span");
        let root = &tree.spans[0];
        assert_eq!(root.stage, "request");
        let child_stages: Vec<&str> = root.children.iter().map(|c| c.stage.as_str()).collect();
        assert_eq!(child_stages, ["parse", "predict"]);
        assert_eq!(root.children[1].children[0].stage, "analyze");

        // Trace 1 loses the draw: spans are collected but commit records
        // nothing — the recorder still holds exactly the first trace.
        let t2 = o.begin_trace("advise");
        let r2 = o.span(&t2, Stage::Request, None);
        o.span(&t2, Stage::Parse, r2.id()).finish();
        r2.finish();
        assert!(!o.commit(t2));
        assert_eq!(o.traces().len(), 1);
        assert_eq!(o.traces()[0].tree().trace_id, tree.trace_id);

        // Trace 2 wins again.
        let t3 = o.begin_trace("tune");
        o.span(&t3, Stage::Request, None).finish();
        assert!(o.commit(t3));
        assert_eq!(o.traces().len(), 2);
    }

    #[test]
    fn slow_requests_are_kept_even_when_sampled_out() {
        let o = Obs::new(ObsConfig {
            enabled: true,
            sample_every: u64::MAX,         // only trace 0 wins the draw
            slow_threshold: Duration::ZERO, // ...but everything counts as slow
            trace_capacity: 8,
        });
        let t0 = o.begin_trace("advise");
        assert!(o.commit(t0));
        let t1 = o.begin_trace("advise");
        assert!(o.commit(t1), "slow trace kept despite losing the draw");
        assert_eq!(o.traces().len(), 2);
    }

    #[test]
    fn disabled_hub_collects_nothing() {
        let o = Obs::new(ObsConfig {
            enabled: false,
            ..ObsConfig::default()
        });
        let t = o.begin_trace("advise");
        assert!(!t.active());
        let span = o.span(&t, Stage::Predict, None);
        assert_eq!(span.id(), None);
        span.finish();
        assert!(!o.commit(t));
        assert!(o.traces().is_empty());
        let total: u64 = o.stage_snapshot().iter().map(|(_, s)| s.count).sum();
        assert_eq!(total, 0, "disabled hub must not record histograms");
    }

    #[test]
    fn spans_feed_stage_histograms() {
        let o = test_obs(1);
        o.timer(Stage::GnnForward).finish();
        o.timer(Stage::GnnForward).finish();
        o.record_stage(Stage::BatchWait, Duration::from_micros(250));
        let snap = o.stage_snapshot();
        let get = |stage: Stage| {
            snap.iter()
                .find(|(s, _)| *s == stage)
                .map(|(_, h)| h.count)
                .unwrap()
        };
        assert_eq!(get(Stage::GnnForward), 2);
        assert_eq!(get(Stage::BatchWait), 1);
    }

    #[test]
    fn trace_trees_serialize_to_json() {
        let o = test_obs(1);
        let t = o.begin_trace("advise");
        let root = o.span(&t, Stage::Request, None);
        o.span(&t, Stage::Predict, root.id()).finish();
        root.finish();
        o.commit(t);
        let trees: Vec<TraceTree> = o.traces().iter().map(FinishedTrace::tree).collect();
        let json = serde_json::to_string(&trees).unwrap();
        assert!(json.contains("\"stage\":\"request\""));
        assert!(json.contains("\"stage\":\"predict\""));
        assert!(json.contains("\"trace_id\""));
    }

    #[test]
    fn config_from_env_defaults() {
        // Only assert the defaults (env mutation would race other tests).
        let cfg = ObsConfig::default();
        assert!(cfg.enabled);
        assert_eq!(cfg.sample_every, 1);
        assert_eq!(cfg.slow_threshold, Duration::from_millis(100));
        assert_eq!(cfg.trace_capacity, 64);
    }

    #[test]
    fn monotonic_us_is_monotonic() {
        let a = monotonic_us();
        let b = monotonic_us();
        assert!(b >= a);
    }
}
