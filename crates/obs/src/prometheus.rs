//! Prometheus text exposition: the one writer every `/metrics` family goes
//! through, and the rendering of this crate's stage histograms with it, so
//! only this crate knows how its histogram buckets are written.

use crate::hist::{HistogramSnapshot, Stage};
use std::fmt::Display;

/// Incremental Prometheus text-exposition builder: every family gets its
/// `# HELP`/`# TYPE` header exactly once, immediately before its samples.
/// A family cannot forget its metadata, because the only way to emit
/// samples is through a typed family method.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out
            .push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
    }

    /// A single-sample counter family.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// A single-sample gauge family (`Display` covers u64 and formatted
    /// floats alike).
    pub fn gauge(&mut self, name: &str, help: &str, value: impl Display) {
        self.header(name, help, "gauge");
        self.out.push_str(&format!("{name} {value}\n"));
    }

    /// A counter family with one `{key="value"}` label per sample.
    pub fn labeled_counter(
        &mut self,
        name: &str,
        help: &str,
        key: &str,
        rows: impl IntoIterator<Item = (String, u64)>,
    ) {
        self.header(name, help, "counter");
        for (label, value) in rows {
            self.out
                .push_str(&format!("{name}{{{key}=\"{label}\"}} {value}\n"));
        }
    }

    /// One histogram series: cumulative `_bucket` samples (the last bound
    /// must be `+Inf`), then `_sum` and `_count`. `labels` is the rendered
    /// label set shared by every sample (empty for an unlabelled family);
    /// the `# HELP`/`# TYPE` header is the caller's job via
    /// [`Exposition::histogram_header`], so multi-series families (one per
    /// stage) emit it exactly once.
    pub fn histogram_series(
        &mut self,
        name: &str,
        labels: &str,
        buckets: impl IntoIterator<Item = (String, u64)>,
        sum: impl Display,
        count: u64,
    ) {
        let sep = if labels.is_empty() { "" } else { "," };
        for (bound, cumulative) in buckets {
            self.out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}\n"
            ));
        }
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        self.out.push_str(&format!(
            "{name}_sum{braces} {sum}\n{name}_count{braces} {count}\n"
        ));
    }

    /// The `# HELP`/`# TYPE` header of a histogram family.
    pub fn histogram_header(&mut self, name: &str, help: &str) {
        self.header(name, help, "histogram");
    }

    /// The rendered exposition text.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Render the per-stage duration histograms (from
/// [`Obs::stage_snapshot`](crate::Obs::stage_snapshot)) as one labelled
/// Prometheus histogram family, `paragraph_stage_duration_seconds{stage="..."}`.
/// Every stage is present even at zero count, so dashboards and the
/// exposition test see a stable family shape. Bucket `i` is exported as
/// `le` = `2^(i+1)` µs ([`bucket_bound_seconds`](crate::bucket_bound_seconds)),
/// a true upper bound for durations recorded truncated to whole µs.
pub fn stage_histograms_to_prometheus(stages: &[(Stage, HistogramSnapshot)]) -> String {
    let mut expo = Exposition::default();
    expo.histogram_header(
        "paragraph_stage_duration_seconds",
        "Stage latency distributions across the serving pipeline",
    );
    for (stage, snapshot) in stages {
        let buckets = snapshot.cumulative().into_iter().map(|(bound, count)| {
            let bound = if bound.is_infinite() {
                "+Inf".to_string()
            } else {
                format!("{bound}")
            };
            (bound, count)
        });
        expo.histogram_series(
            "paragraph_stage_duration_seconds",
            &format!("stage=\"{}\"", stage.name()),
            buckets,
            format!("{:.6}", snapshot.sum_us as f64 / 1e6),
            snapshot.count,
        );
    }
    expo.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_histograms_render_every_stage_with_cumulative_buckets() {
        let hub = crate::Obs::new(crate::ObsConfig::default());
        hub.record_stage(Stage::BatchWait, std::time::Duration::from_micros(3));
        hub.record_stage(Stage::BatchWait, std::time::Duration::from_micros(5));
        let text = stage_histograms_to_prometheus(&hub.stage_snapshot());
        // One header for the whole family, one series per stage.
        assert_eq!(
            text.matches("# TYPE paragraph_stage_duration_seconds")
                .count(),
            1
        );
        for stage in Stage::ALL {
            assert!(
                text.contains(&format!(
                    "paragraph_stage_duration_seconds_count{{stage=\"{}\"}}",
                    stage.name()
                )),
                "missing stage {} in:\n{text}",
                stage.name()
            );
        }
        assert!(text.contains("paragraph_stage_duration_seconds_count{stage=\"batch_wait\"} 2"));
        // Both 3us and 5us land at or below the 8us bound; +Inf sees both.
        assert!(text.contains(
            "paragraph_stage_duration_seconds_bucket{stage=\"batch_wait\",le=\"+Inf\"} 2"
        ));
    }
}
