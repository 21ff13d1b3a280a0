//! In-memory spans of the traced run.
//!
//! The benchmark records spans from its own code, around each public call
//! into a layer. Spans of one request share a request id, children name
//! their parent, and everything stays in memory until [`Recorder::write`]
//! puts it in a JSON file at exit. Recording is single-threaded: spans of one
//! parent never overlap, so a span's self time is its duration minus the
//! durations of its children.

use serde::Serialize;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// Request the span belongs to.
    pub request: u64,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer call the span times (`frontend.parse`, ...).
    pub name: &'static str,
    /// Start, microseconds after the recorder was created.
    pub start_us: f64,
    /// End, microseconds after the recorder was created.
    pub end_us: f64,
    /// Duration minus the time the span's children cover.
    pub self_us: f64,
}

/// Collects spans; see the module docs.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Time `body` as span `name` of `request`, nested under `parent`.
    /// `body` receives the recorder and the new span's id, so it can open
    /// children.
    pub fn span<T>(
        &mut self,
        request: u64,
        parent: Option<u32>,
        name: &'static str,
        body: impl FnOnce(&mut Recorder, u32) -> T,
    ) -> T {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let start_us = self.now_us();
        self.spans.push(Span {
            id,
            request,
            parent,
            name,
            start_us,
            end_us: start_us,
            self_us: 0.0,
        });
        let out = body(self, id);
        let end_us = self.now_us();
        // Children already took their durations off `self_us`.
        let span = &mut self.spans[id as usize];
        span.end_us = end_us;
        span.self_us += end_us - start_us;
        if let Some(parent) = parent {
            self.spans[parent as usize].self_us -= end_us - start_us;
        }
        out
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self times grouped by span name.
    pub fn self_times(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut by_name: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for span in &self.spans {
            by_name.entry(span.name).or_default().push(span.self_us);
        }
        by_name
    }

    /// Write the spans as `{"workload": .., "seed": .., "spans": [..]}`.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = serde::Value::Object(vec![
            ("workload".into(), serde::Value::Str(workload.into())),
            ("seed".into(), serde::Value::UInt(seed)),
            ("spans".into(), self.spans.to_value()),
        ]);
        let json =
            serde_json::to_string(&file).map_err(|e| std::io::Error::other(e.to_string()))?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::default();
        rec.span(7, None, "root", |rec, root| {
            spin(200);
            rec.span(7, Some(root), "child", |_, _| spin(500));
            rec.span(7, Some(root), "child", |_, _| spin(500));
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        let root = &spans[0];
        let children: f64 = spans[1..].iter().map(|s| s.end_us - s.start_us).sum();
        assert!((root.self_us - (root.end_us - root.start_us - children)).abs() < 1e-6);
        assert!(root.self_us >= 200.0 && root.self_us < 1000.0);
        assert!(spans.iter().all(|s| s.request == 7));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(rec.self_times()["child"].len(), 2);
    }

    #[test]
    fn spans_serialize_with_their_parent() {
        let mut rec = Recorder::default();
        rec.span(1, None, "a", |rec, id| {
            rec.span(1, Some(id), "b", |_, _| ())
        });
        let json = serde_json::to_string(rec.spans()).unwrap();
        assert!(json.contains("\"name\":\"b\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"parent\":null"));
    }
}
