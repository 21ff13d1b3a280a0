//! Serving counters: request accounting, admission-control rejections, and
//! the micro-batcher's coalescing statistics.
//!
//! One table (the private `scalar_metrics!` invocation below) declares each
//! scalar metric once: its field, Prometheus family, help text and kind. It
//! expands to [`ServeMetrics`]' atomics, [`MetricsSnapshot`]'s fields, the
//! copy in [`ServeMetrics::snapshot`] and those families' exposition, so a
//! new counter is one table line plus its increment. Written by hand beside
//! it: the batch-size histogram, the per-rule counter and the two derived
//! gauges (fill ratio and oldest-waiter age).
//!
//! Counters are relaxed atomics — they are monotonic tallies, not
//! synchronization — except the `in_flight` admission gauge, which the
//! request path moves with `SeqCst`. A [`MetricsSnapshot`] is a plain copy
//! that the `/metrics` endpoint renders in Prometheus text exposition
//! format through [`pg_obs::Exposition`].

use pg_analyze::{Diagnostic, RULE_IDS};
use pg_obs::Exposition;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of distinct static-analysis rules ([`pg_analyze::RULE_IDS`]).
const RULE_COUNT: usize = RULE_IDS.len();

/// Upper bounds of the coalesced-batch-size histogram buckets (a batch of
/// size `s` tallies into the first bucket with `bound >= s`; larger
/// batches land in the implicit `+Inf` overflow).
///
/// Batch sizes are exact integers, so these bounds are inclusive: a batch
/// of 8 counts under `le="8"`. pg-obs's duration histograms differ on
/// purpose: they truncate to whole µs and export `le = 2^(i+1)` µs for
/// bucket `[2^i, 2^(i+1))`, a true upper bound only for that truncation.
pub const BATCH_SIZE_BUCKETS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// Expands the table of scalar metrics, grouped by kind and listed in
/// exposition order within each kind, into the two structs (each with its
/// hand-written fields after the table's), the loads behind
/// [`ServeMetrics::snapshot`] and the writers of the table's families.
macro_rules! scalar_metrics {
    (
        counter { $($counter:ident: $counter_family:literal, $counter_help:literal;)* }
        gauge { $($gauge:ident: $gauge_family:literal, $gauge_help:literal;)* }
    ) => {
        /// Live counters shared by the event loop, the connection workers
        /// and the micro-batcher.
        #[derive(Debug, Default)]
        pub struct ServeMetrics {
            $(#[doc = $counter_help] pub(crate) $counter: AtomicU64,)*
            $(#[doc = $gauge_help] pub(crate) $gauge: AtomicU64,)*
            /// Coalesced-batch-size histogram; bucket `i` counts batches of
            /// size `<= BATCH_SIZE_BUCKETS[i]` (last slot is the `+Inf`
            /// overflow).
            pub(crate) batch_size_buckets: [AtomicU64; BATCH_SIZE_BUCKETS.len() + 1],
            /// Static-analysis diagnostics by rule, indexed like
            /// [`pg_analyze::RULE_IDS`].
            pub(crate) analyze_rule_counts: [AtomicU64; RULE_COUNT],
            /// Enqueue timestamp of the oldest request waiting in the
            /// batcher queue, as `pg_obs::monotonic_us() + 1` (0 means the
            /// queue is empty). The snapshot turns it into an age — the live
            /// "is the scheduler keeping up" gauge that the batch-wait
            /// *histogram* (which only sees completed waits) cannot show.
            pub(crate) batch_oldest_enqueue_us: AtomicU64,
        }

        /// A point-in-time copy of every counter.
        #[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
        pub struct MetricsSnapshot {
            $(#[doc = $counter_help] pub $counter: u64,)*
            $(#[doc = $gauge_help] pub $gauge: u64,)*
            /// Coalesced-batch-size histogram, non-cumulative, one count per
            /// [`BATCH_SIZE_BUCKETS`] bound plus a final `+Inf` overflow slot.
            pub batch_size_buckets: Vec<u64>,
            /// Static-analysis diagnostics by rule, in
            /// [`pg_analyze::RULE_IDS`] order (every rule is present, zero or
            /// not).
            pub analyze_rule_counts: Vec<RuleCount>,
            /// Age of the oldest request waiting in the batcher queue at
            /// snapshot time, microseconds (0 when the queue is empty).
            pub batch_oldest_wait_us: u64,
        }

        impl ServeMetrics {
            /// The table's scalars, every other field left at its default.
            fn load_scalars(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $($counter: self.$counter.load(Ordering::Relaxed),)*
                    $($gauge: self.$gauge.load(Ordering::Relaxed),)*
                    ..MetricsSnapshot::default()
                }
            }
        }

        impl MetricsSnapshot {
            fn write_counters(&self, expo: &mut Exposition) {
                $(expo.counter($counter_family, $counter_help, self.$counter);)*
            }

            fn write_gauges(&self, expo: &mut Exposition) {
                $(expo.gauge($gauge_family, $gauge_help, self.$gauge);)*
            }
        }
    };
}

scalar_metrics! {
    counter {
        http_requests: "paragraph_serve_http_requests_total", "HTTP requests received";
        http_bad_requests: "paragraph_serve_http_bad_requests_total",
            "Requests rejected for malformed HTTP or JSON";
        advise_ok: "paragraph_serve_advise_ok_total", "Advise requests answered 200";
        advise_failed: "paragraph_serve_advise_failed_total",
            "Advise requests that failed in the engine";
        advise_rejected: "paragraph_serve_advise_rejected_total",
            "Advise requests rejected by admission control";
        parse_rejected: "paragraph_serve_parse_rejected_total",
            "Requests rejected at the untrusted-input boundary (oversized body or parse budget)";
        tune_requests: "paragraph_serve_tune_requests_total", "Tune requests received";
        tune_ok: "paragraph_serve_tune_ok_total", "Tune requests answered 200";
        tune_failed: "paragraph_serve_tune_failed_total", "Tune requests that failed in the tuner";
        tune_rejected: "paragraph_serve_tune_rejected_total",
            "Tune requests rejected by admission control";
        connections_shed: "paragraph_serve_connections_shed_total",
            "Connections shed at accept by the connection limit";
        connections_opened: "paragraph_serve_connections_opened_total",
            "Connections accepted into the event loop";
        conn_timeouts: "paragraph_serve_conn_timeouts_total",
            "Connections closed by an idle or progress timeout";
        epoll_wakeups: "paragraph_serve_epoll_wakeups_total", "Event-loop wakeups from epoll_wait";
        batches: "paragraph_serve_batches_total", "Prediction batches executed";
        batched_requests: "paragraph_serve_batched_requests_total",
            "Advise requests served through the micro-batcher";
        coalesced_batches: "paragraph_serve_coalesced_batches_total",
            "Batches that coalesced more than one request";
        analyze_race_pruned: "paragraph_serve_analyze_race_pruned_total",
            "Variants pruned as provable races by the legality gate";
    }
    gauge {
        in_flight: "paragraph_serve_in_flight", "POST requests (advise + tune) currently in flight";
        max_batch_size: "paragraph_serve_max_batch_size", "Largest batch executed";
        open_connections: "paragraph_serve_open_connections",
            "Connections registered with the event loop";
        batch_capacity: "paragraph_serve_batch_capacity", "Configured micro-batcher max_batch";
    }
}

/// Diagnostics tallied against one static-analysis rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct RuleCount {
    /// Stable rule id (one of [`pg_analyze::RULE_IDS`]).
    pub rule: String,
    /// Diagnostics of this rule surfaced so far.
    pub count: u64,
}

impl ServeMetrics {
    /// Record one executed batch of `size` coalesced requests.
    pub(crate) fn record_batch(&self, size: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_requests
            .fetch_add(size as u64, Ordering::Relaxed);
        if size > 1 {
            self.coalesced_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.max_batch_size
            .fetch_max(size as u64, Ordering::Relaxed);
        let bucket = BATCH_SIZE_BUCKETS
            .iter()
            .position(|&bound| size as u64 <= bound)
            .unwrap_or(BATCH_SIZE_BUCKETS.len());
        self.batch_size_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record the static-analysis outcome of one served request: every
    /// surfaced diagnostic tallies against its rule, and `race_pruned`
    /// counts variants the legality gate removed.
    pub(crate) fn record_analysis(&self, diagnostics: &[Diagnostic], race_pruned: u64) {
        self.analyze_race_pruned
            .fetch_add(race_pruned, Ordering::Relaxed);
        for diag in diagnostics {
            if let Some(idx) = RULE_IDS.iter().position(|&id| id == diag.rule) {
                self.analyze_rule_counts[idx].fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Copy every counter.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            batch_size_buckets: self
                .batch_size_buckets
                .iter()
                .map(|count| count.load(Ordering::Relaxed))
                .collect(),
            analyze_rule_counts: RULE_IDS
                .iter()
                .zip(&self.analyze_rule_counts)
                .map(|(&rule, count)| RuleCount {
                    rule: rule.to_string(),
                    count: count.load(Ordering::Relaxed),
                })
                .collect(),
            batch_oldest_wait_us: match self.batch_oldest_enqueue_us.load(Ordering::Relaxed) {
                0 => 0,
                stamp => pg_obs::monotonic_us().saturating_sub(stamp - 1),
            },
            ..self.load_scalars()
        }
    }
}

impl MetricsSnapshot {
    /// Mean fraction of the batch cap that executed batches actually
    /// filled: `batched_requests / (batches * batch_capacity)`. Zero until
    /// the first batch runs. A cap that never fills means the backend's
    /// batched path is starved.
    pub fn batch_fill_ratio(&self) -> f64 {
        let denominator = self.batches.saturating_mul(self.batch_capacity);
        if denominator == 0 {
            return 0.0;
        }
        self.batched_requests as f64 / denominator as f64
    }

    /// Render in Prometheus text exposition format (what `GET /metrics`
    /// returns): the table's counters, the per-rule counter, the table's
    /// gauges, the two derived gauges and the batch-size histogram. The
    /// per-stage duration histograms live in
    /// [`pg_obs::stage_histograms_to_prometheus`]; the endpoint
    /// concatenates both.
    pub fn to_prometheus(&self) -> String {
        let mut expo = Exposition::default();
        self.write_counters(&mut expo);
        expo.labeled_counter(
            "paragraph_serve_analyze_rule_total",
            "Static-analysis diagnostics by rule",
            "rule",
            self.analyze_rule_counts
                .iter()
                .map(|r| (r.rule.clone(), r.count)),
        );
        self.write_gauges(&mut expo);
        expo.gauge(
            "paragraph_serve_batch_fill_ratio",
            "Mean fraction of the batch cap filled",
            format!("{:.6}", self.batch_fill_ratio()),
        );
        expo.gauge(
            "paragraph_serve_batch_oldest_wait_seconds",
            "Age of the oldest request waiting in the batcher queue",
            format!("{:.6}", self.batch_oldest_wait_us as f64 / 1e6),
        );
        // Cumulative histogram per the Prometheus convention: each bucket
        // counts batches of size <= its bound.
        expo.histogram_header(
            "paragraph_serve_batch_size",
            "Coalesced-batch size distribution",
        );
        let mut cumulative = 0u64;
        let buckets: Vec<(String, u64)> = self
            .batch_size_buckets
            .iter()
            .enumerate()
            .map(|(i, count)| {
                cumulative += count;
                let bound = BATCH_SIZE_BUCKETS
                    .get(i)
                    .map(|b| b.to_string())
                    .unwrap_or_else(|| "+Inf".to_string());
                (bound, cumulative)
            })
            .collect();
        expo.histogram_series(
            "paragraph_serve_batch_size",
            "",
            buckets,
            self.batched_requests,
            self.batches,
        );
        expo.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pg_obs::Stage;

    #[test]
    fn batch_accounting_tracks_coalescing() {
        let metrics = ServeMetrics::default();
        metrics.record_batch(1);
        metrics.record_batch(5);
        metrics.record_batch(3);
        let snap = metrics.snapshot();
        assert_eq!(snap.batches, 3);
        assert_eq!(snap.batched_requests, 9);
        assert_eq!(snap.coalesced_batches, 2);
        assert_eq!(snap.max_batch_size, 5);
    }

    #[test]
    fn prometheus_rendering_names_every_counter() {
        let metrics = ServeMetrics::default();
        metrics.record_batch(4);
        let text = metrics.snapshot().to_prometheus();
        for name in [
            "paragraph_serve_http_requests_total",
            "paragraph_serve_advise_ok_total",
            "paragraph_serve_advise_rejected_total",
            "paragraph_serve_tune_requests_total",
            "paragraph_serve_tune_ok_total",
            "paragraph_serve_tune_failed_total",
            "paragraph_serve_tune_rejected_total",
            "paragraph_serve_batches_total",
            "paragraph_serve_coalesced_batches_total",
            "paragraph_serve_max_batch_size",
            "paragraph_serve_in_flight",
            "paragraph_serve_analyze_race_pruned_total",
            "paragraph_serve_analyze_rule_total",
            "paragraph_serve_connections_opened_total",
            "paragraph_serve_conn_timeouts_total",
            "paragraph_serve_epoll_wakeups_total",
            "paragraph_serve_open_connections",
            "paragraph_serve_batch_capacity",
            "paragraph_serve_batch_fill_ratio",
            "paragraph_serve_batch_size_bucket",
            "paragraph_serve_batch_size_count",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
        assert!(text.contains("paragraph_serve_max_batch_size 4"));
    }

    #[test]
    fn fill_ratio_and_histogram_track_batches() {
        let metrics = ServeMetrics::default();
        metrics.batch_capacity.store(8, Ordering::Relaxed);
        metrics.record_batch(4); // bucket le=4
        metrics.record_batch(8); // bucket le=8
        let snap = metrics.snapshot();
        // 12 requests over 2 batches of capacity 8 → 12/16.
        assert!((snap.batch_fill_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(snap.batch_size_buckets.iter().sum::<u64>(), 2);
        let text = snap.to_prometheus();
        assert!(text.contains("paragraph_serve_batch_fill_ratio 0.75"));
        assert!(text.contains("paragraph_serve_batch_size_bucket{le=\"8\"} 2"));
        assert!(text.contains("paragraph_serve_batch_size_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("paragraph_serve_batch_size_sum 12"));
        // Empty metrics render a zero ratio, not NaN.
        assert_eq!(MetricsSnapshot::default().batch_fill_ratio(), 0.0);
    }

    #[test]
    fn analysis_accounting_tallies_rules_and_pruned_variants() {
        use pg_analyze::{Diagnostic, Severity};
        let metrics = ServeMetrics::default();
        let diag = |rule: &str| Diagnostic {
            rule: rule.to_string(),
            severity: Severity::Warning,
            span: None,
            message: "x".to_string(),
        };
        metrics.record_analysis(
            &[
                diag("loop-carried-dependence"),
                diag("unknown-clause"),
                diag("loop-carried-dependence"),
                diag("not-a-registered-rule"), // ignored, never panics
            ],
            3,
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.analyze_race_pruned, 3);
        let count_of = |rule: &str| {
            snap.analyze_rule_counts
                .iter()
                .find(|r| r.rule == rule)
                .map(|r| r.count)
        };
        assert_eq!(count_of("loop-carried-dependence"), Some(2));
        assert_eq!(count_of("unknown-clause"), Some(1));
        assert_eq!(count_of("shared-scalar-race"), Some(0));
        let text = snap.to_prometheus();
        assert!(
            text.contains("paragraph_serve_analyze_rule_total{rule=\"loop-carried-dependence\"} 2")
        );
        assert!(text.contains("paragraph_serve_analyze_race_pruned_total 3"));
    }

    /// Walk the full exposition (serve counters + stage histograms)
    /// line-by-line: every sample line must parse as `name[{labels}] value`,
    /// every sample's family must have emitted `# HELP` then `# TYPE`
    /// beforehand, and no family may emit its header twice.
    #[test]
    fn exposition_format_parses_line_by_line() {
        use std::collections::HashSet;
        let metrics = ServeMetrics::default();
        metrics.record_batch(3);
        let hub = pg_obs::Obs::new(pg_obs::ObsConfig::default());
        hub.record_stage(Stage::Parse, std::time::Duration::from_micros(120));
        hub.record_stage(Stage::Predict, std::time::Duration::from_micros(900));
        let text = format!(
            "{}{}",
            metrics.snapshot().to_prometheus(),
            pg_obs::stage_histograms_to_prometheus(&hub.stage_snapshot())
        );

        let mut helped: HashSet<String> = HashSet::new();
        let mut typed: HashSet<String> = HashSet::new();
        for line in text.lines() {
            assert!(!line.trim().is_empty(), "blank line in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let family = rest.split(' ').next().unwrap().to_string();
                assert!(helped.insert(family.clone()), "duplicate HELP for {family}");
                assert!(rest.len() > family.len() + 1, "HELP without text: {line}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let family = parts.next().unwrap().to_string();
                let kind = parts.next().unwrap_or("");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown metric type in: {line}"
                );
                assert!(helped.contains(&family), "TYPE before HELP for {family}");
                assert!(typed.insert(family), "duplicate TYPE in: {line}");
                continue;
            }
            // Sample line: name[{labels}] value
            let (series, value) = line.rsplit_once(' ').expect("sample without value");
            let value: f64 = value
                .parse()
                .unwrap_or_else(|_| panic!("bad value: {line}"));
            assert!(value >= 0.0, "negative sample: {line}");
            let name = series.split('{').next().unwrap();
            if let Some(labels) = series.strip_prefix(name) {
                if !labels.is_empty() {
                    assert!(
                        labels.starts_with('{') && labels.ends_with('}'),
                        "malformed labels: {line}"
                    );
                    for pair in labels[1..labels.len() - 1].split(',') {
                        let (k, v) = pair.split_once('=').expect("label without =");
                        assert!(!k.is_empty() && v.starts_with('"') && v.ends_with('"'));
                    }
                }
            }
            // The family of a histogram sample drops the _bucket/_sum/_count
            // suffix.
            let family = name
                .strip_suffix("_bucket")
                .or_else(|| name.strip_suffix("_sum"))
                .or_else(|| name.strip_suffix("_count"))
                .filter(|f| typed.contains(*f))
                .unwrap_or(name);
            assert!(
                typed.contains(family),
                "sample before its TYPE header: {line}"
            );
        }
        assert_eq!(helped, typed, "every HELP family must also have a TYPE");
    }

    /// The whole `/metrics` body for a fixed state, byte for byte: the serve
    /// families, then the stage family, in the order the route writes them.
    /// Every scalar family holds a distinct value, batch sizes 1 to 300 reach
    /// the `+Inf` bucket, and the oldest-waiter stamp stays 0 so the body
    /// does not depend on the clock. On a mismatch the rendered body is
    /// written beside the fixture as `metrics.prom.new`.
    #[test]
    fn metrics_body_matches_the_golden_fixture() {
        use pg_analyze::{Diagnostic, Severity};
        use std::time::Duration;
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/metrics.prom");

        let metrics = ServeMetrics::default();
        // One extra lone batch keeps batches, batched requests, coalesced
        // batches and the largest batch four distinct values.
        for size in (1..=300).chain([1]) {
            metrics.record_batch(size);
        }
        let diag = |rule: &str| Diagnostic {
            rule: rule.to_string(),
            severity: Severity::Warning,
            span: None,
            message: "x".to_string(),
        };
        metrics.record_analysis(
            &[
                diag("loop-carried-dependence"),
                diag("unknown-clause"),
                diag("loop-carried-dependence"),
            ],
            17,
        );
        for (atomic, value) in [
            (&metrics.http_requests, 1001),
            (&metrics.http_bad_requests, 1002),
            (&metrics.advise_ok, 1003),
            (&metrics.advise_failed, 1004),
            (&metrics.advise_rejected, 1005),
            (&metrics.parse_rejected, 1006),
            (&metrics.tune_requests, 1007),
            (&metrics.tune_ok, 1008),
            (&metrics.tune_failed, 1009),
            (&metrics.tune_rejected, 1010),
            (&metrics.connections_shed, 1011),
            (&metrics.open_connections, 1012),
            (&metrics.connections_opened, 1013),
            (&metrics.conn_timeouts, 1014),
            (&metrics.epoll_wakeups, 1015),
            (&metrics.in_flight, 1016),
            (&metrics.batch_capacity, 256),
        ] {
            atomic.store(value, Ordering::Relaxed);
        }

        let hub = pg_obs::Obs::new(pg_obs::ObsConfig::default());
        for us in 0..=8 {
            hub.record_stage(Stage::Parse, Duration::from_micros(us));
        }
        hub.record_stage(Stage::Predict, Duration::from_millis(1));
        hub.record_stage(Stage::Request, Duration::from_secs(1));
        hub.record_stage(Stage::Request, Duration::from_micros(1 << 30));

        let body = format!(
            "{}{}",
            metrics.snapshot().to_prometheus(),
            pg_obs::stage_histograms_to_prometheus(&hub.stage_snapshot())
        );
        let expected = std::fs::read_to_string(fixture).unwrap_or_default();
        if body != expected {
            let fresh = format!("{fixture}.new");
            std::fs::write(&fresh, &body).expect("write the rendered body");
            let want: Vec<&str> = expected.lines().collect();
            let got: Vec<&str> = body.lines().collect();
            let longest = want.len().max(got.len());
            let line = (0..longest)
                .find(|&i| want.get(i) != got.get(i))
                .unwrap_or(longest);
            panic!(
                "/metrics body differs from {fixture} at line {}:\n  fixture:  {:?}\n  \
                 rendered: {:?}\nthe rendered body is in {fresh}",
                line + 1,
                want.get(line),
                got.get(line)
            );
        }
    }

    #[test]
    fn oldest_waiter_gauge_reports_age_and_empty_queue() {
        let metrics = ServeMetrics::default();
        assert_eq!(metrics.snapshot().batch_oldest_wait_us, 0);
        let stamp = pg_obs::monotonic_us();
        metrics
            .batch_oldest_enqueue_us
            .store(stamp + 1, Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let age = metrics.snapshot().batch_oldest_wait_us;
        assert!(age >= 2_000, "age should reflect the wait: {age}");
        let text = metrics.snapshot().to_prometheus();
        assert!(text.contains("paragraph_serve_batch_oldest_wait_seconds"));
    }
}
