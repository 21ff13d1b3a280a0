//! Request-scoped traces: span collection, ring-buffer recording, and
//! JSON span trees.
//!
//! A [`TraceHandle`] is created once per request (at event-loop accept) and
//! cloned through every tier that works on the request. Spans append into a
//! small mutex-guarded vector on the handle; the sampling decision is
//! *tail-based* — every active trace collects spans, and at commit time the
//! trace is kept if it was head-sampled (1-in-N) **or** if its total
//! duration crossed the slow-request threshold. A handle that is not active
//! (tracing disabled, or the request lost the sampling draw with slow-keep
//! impossible) collects nothing at all.

use crate::hist::Stage;
use serde::Serialize;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Hard cap on spans collected per trace; excess spans are dropped.
pub const MAX_SPANS_PER_TRACE: usize = 512;

/// A request-scoped trace identifier (rendered as 16 hex digits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Index of a span within its trace, used to parent child spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub(crate) u32);

/// One recorded span: stage, parent link, and start/end offsets from the
/// trace origin (microseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawSpan {
    /// Which pipeline stage this span timed.
    pub stage: Stage,
    /// Parent span index within the trace (`None` for root-level spans).
    pub parent: Option<u32>,
    /// Start offset from the trace origin, microseconds.
    pub start_us: u64,
    /// End offset from the trace origin; `None` if never finished.
    pub end_us: Option<u64>,
}

#[derive(Debug)]
pub(crate) struct TraceShared {
    pub(crate) id: TraceId,
    pub(crate) label: &'static str,
    pub(crate) start: Instant,
    pub(crate) sampled: bool,
    pub(crate) spans: Mutex<Vec<RawSpan>>,
}

impl TraceShared {
    fn offset_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

/// A cheap, cloneable reference to an in-flight trace. An inactive handle
/// (from [`TraceHandle::disabled`], or when tracing is off) is a no-op
/// everywhere it is passed.
#[derive(Debug, Clone, Default)]
pub struct TraceHandle(pub(crate) Option<Arc<TraceShared>>);

impl TraceHandle {
    /// A handle that collects nothing; safe to pass anywhere.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Whether this handle is collecting spans.
    pub fn active(&self) -> bool {
        self.0.is_some()
    }

    /// The trace id, if active.
    pub fn id(&self) -> Option<TraceId> {
        self.0.as_ref().map(|s| s.id)
    }

    /// The root span's id (by convention the first span pushed), for
    /// parenting spans created in other tiers.
    pub fn root(&self) -> Option<SpanId> {
        self.0.as_ref().map(|_| SpanId(0))
    }

    /// Append an open span; returns its backing storage, or `None` if the
    /// handle is inactive or the trace hit [`MAX_SPANS_PER_TRACE`].
    pub(crate) fn push_span(
        &self,
        stage: Stage,
        parent: Option<SpanId>,
    ) -> Option<(Arc<TraceShared>, u32)> {
        let shared = self.0.as_ref()?;
        let start_us = shared.offset_us();
        let mut spans = shared.spans.lock().expect("trace span lock poisoned");
        if spans.len() >= MAX_SPANS_PER_TRACE {
            return None;
        }
        let idx = spans.len() as u32;
        spans.push(RawSpan {
            stage,
            parent: parent.map(|p| p.0),
            start_us,
            end_us: None,
        });
        Some((Arc::clone(shared), idx))
    }
}

pub(crate) fn finish_span(shared: &TraceShared, idx: u32) {
    let end_us = shared.offset_us();
    let mut spans = shared.spans.lock().expect("trace span lock poisoned");
    if let Some(span) = spans.get_mut(idx as usize) {
        span.end_us = Some(end_us);
    }
}

/// A committed trace held by the ring-buffer recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// The request's trace id.
    pub id: TraceId,
    /// What kind of request this was (e.g. `"advise"`, `"tune"`).
    pub label: &'static str,
    /// Total wall time from trace begin to commit, microseconds.
    pub duration_us: u64,
    /// All collected spans, in creation order (root first).
    pub spans: Vec<RawSpan>,
}

/// One node of a JSON span tree (`GET /debug/traces`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanNode {
    /// Stage label of this span.
    pub stage: String,
    /// Start offset from the trace origin, microseconds.
    pub start_us: u64,
    /// Span duration, microseconds (0 if the span never finished).
    pub duration_us: u64,
    /// Child spans, in creation order.
    pub children: Vec<SpanNode>,
}

/// A whole trace rendered as a span tree, ready for JSON serialization.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceTree {
    /// Trace id as 16 hex digits.
    pub trace_id: String,
    /// Request kind label.
    pub label: String,
    /// Total traced duration, microseconds.
    pub duration_us: u64,
    /// Root-level spans.
    pub spans: Vec<SpanNode>,
}

impl FinishedTrace {
    /// Build the nested span tree from the flat parent-indexed span list.
    /// Spans with a missing or out-of-range parent surface at the root.
    pub fn tree(&self) -> TraceTree {
        let n = self.spans.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots: Vec<usize> = Vec::new();
        for (i, span) in self.spans.iter().enumerate() {
            match span.parent {
                // A span can only parent spans created after it.
                Some(p) if (p as usize) < i => children[p as usize].push(i),
                _ => roots.push(i),
            }
        }
        fn build(idx: usize, spans: &[RawSpan], children: &[Vec<usize>]) -> SpanNode {
            let span = &spans[idx];
            SpanNode {
                stage: span.stage.name().to_string(),
                start_us: span.start_us,
                duration_us: span.end_us.map_or(0, |e| e.saturating_sub(span.start_us)),
                children: children[idx]
                    .iter()
                    .map(|&c| build(c, spans, children))
                    .collect(),
            }
        }
        TraceTree {
            trace_id: self.id.to_string(),
            label: self.label.to_string(),
            duration_us: self.duration_us,
            spans: roots
                .iter()
                .map(|&r| build(r, &self.spans, &children))
                .collect(),
        }
    }
}

/// Bounded ring buffer of the most recent committed traces.
#[derive(Debug)]
pub struct TraceRecorder {
    ring: Mutex<VecDeque<FinishedTrace>>,
    capacity: usize,
}

impl TraceRecorder {
    /// A recorder keeping at most `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn push(&self, trace: FinishedTrace) {
        let mut ring = self.ring.lock().expect("trace ring lock poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// The recorded traces, most recent first.
    pub fn recent(&self) -> Vec<FinishedTrace> {
        let ring = self.ring.lock().expect("trace ring lock poisoned");
        ring.iter().rev().cloned().collect()
    }

    /// Number of traces currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace ring lock poisoned").len()
    }

    /// Whether the recorder holds no traces.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(stage: Stage, parent: Option<u32>, start_us: u64, end_us: u64) -> RawSpan {
        RawSpan {
            stage,
            parent,
            start_us,
            end_us: Some(end_us),
        }
    }

    #[test]
    fn tree_nests_children_under_parents() {
        let trace = FinishedTrace {
            id: TraceId(0xabcd),
            label: "advise",
            duration_us: 120,
            spans: vec![
                raw(Stage::Request, None, 0, 120),
                raw(Stage::Parse, Some(0), 5, 20),
                raw(Stage::Predict, Some(0), 30, 110),
                raw(Stage::Analyze, Some(2), 31, 40),
            ],
        };
        let tree = trace.tree();
        assert_eq!(tree.trace_id, "000000000000abcd");
        assert_eq!(tree.spans.len(), 1);
        let root = &tree.spans[0];
        assert_eq!(root.stage, "request");
        assert_eq!(root.duration_us, 120);
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].stage, "parse");
        assert_eq!(root.children[1].stage, "predict");
        assert_eq!(root.children[1].children[0].stage, "analyze");
    }

    #[test]
    fn forward_or_dangling_parents_fall_back_to_root() {
        let trace = FinishedTrace {
            id: TraceId(1),
            label: "advise",
            duration_us: 10,
            spans: vec![
                raw(Stage::Parse, Some(7), 0, 1),   // out of range
                raw(Stage::Predict, Some(1), 2, 3), // self/forward reference
            ],
        };
        assert_eq!(trace.tree().spans.len(), 2);
    }

    #[test]
    fn recorder_evicts_oldest_beyond_capacity() {
        let rec = TraceRecorder::new(2);
        for i in 0..3u64 {
            rec.push(FinishedTrace {
                id: TraceId(i),
                label: "t",
                duration_us: i,
                spans: Vec::new(),
            });
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].id, TraceId(2)); // newest first
        assert_eq!(recent[1].id, TraceId(1));
    }
}
