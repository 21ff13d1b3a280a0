//! `pgbench`: the end-to-end and per-layer benchmark of the ParaGraph stack.
//!
//! ```text
//! pgbench --workload <serve_small|serve_sweep|tune_dense|train>
//!         [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One run sets up, measures one workload for `--seconds`, checks every
//! output against a reference, prints one `workload metric value unit` line
//! per metric, and ends with a one-line JSON result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`. With
//! `--trace 0` the metrics are [`END_TO_END`], measured with pg-obs off;
//! with `--trace 1` they are [`PER_LAYER`], measured with pg-obs on. The
//! exit status is non-zero when an output was wrong or the run could not
//! complete. See `README.md` for the workloads and metrics.

mod http;
mod layers;
mod measure;
mod rng;
mod serve;
mod setup;
mod trace;
mod train;
mod tune;

use serde::Value;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: measure::CountingAlloc = measure::CountingAlloc;

/// Name and unit of every end-to-end metric, in print order. Every
/// workload reports all of them; `BENCHMARK.json` lists the same set.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("regret", "ratio"),
    ("peak_heap_mb", "MB"),
];

/// Name and unit of every per-layer metric of a traced run, in print order.
pub const PER_LAYER: [(&str, &str); 28] = [
    ("serve.overhead_us_p50", "us"),
    ("serve.parse_us_mean", "us"),
    ("serve.batch_wait_us_mean", "us"),
    ("serve.write_us_mean", "us"),
    ("serve.serialize_us_p50", "us"),
    ("serve.closed_loop_rps", "1/s"),
    ("serve.batch_size_mean", "count"),
    ("serve.wakeups_per_request", "count"),
    ("engine.advise_us_p50", "us"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.candidates_per_request", "count"),
    ("engine.attributed_share", "ratio"),
    ("advisor.enumerate_us_p50", "us"),
    ("analyze.assess_us_p50", "us"),
    ("frontend.parse_us_p50", "us"),
    ("frontend.parse_mb_per_s", "MB/s"),
    ("core.graph_build_us_p50", "us"),
    ("gnn.predict_us_per_graph", "us"),
    ("gnn.predict_batch_ms_p50", "ms"),
    ("gnn.forward_us_mean", "us"),
    ("gnn.backward_us_mean", "us"),
    ("gnn.val_norm_rmse", "ratio"),
    ("gnn.top1_hit_rate", "ratio"),
    ("dataset.points_per_s", "1/s"),
    ("perfsim.measure_us_p50", "us"),
    ("proc.threads_max", "count"),
    ("proc.peak_rss_mb", "MB"),
    ("obs.traced_latency_ms", "ms"),
];

/// The workloads; see `README.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeSmall,
    ServeSweep,
    TuneDense,
    Train,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ServeSmall,
        Workload::ServeSweep,
        Workload::TuneDense,
        Workload::Train,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeSweep => "serve_sweep",
            Workload::TuneDense => "tune_dense",
            Workload::Train => "train",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// How long the workload's measured phase runs.
    pub seconds: f64,
    /// Per-layer run with pg-obs enabled.
    pub trace: bool,
}

const USAGE: &str = "usage: pgbench --workload <serve_small|serve_sweep|tune_dense|train> \
                     [--seed <u64>] [--seconds <s>] [--trace <0|1>]";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1;
        let mut seconds = 20.0;
        let mut trace = false;
        while let Some(flag) = args.next() {
            let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == name)
                            .ok_or_else(|| format!("unknown workload `{name}`"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".into());
                    }
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Run {
    /// Operations attempted (requests, tunings, generations, fits).
    pub attempted: u64,
    /// Operations that failed, wrong outputs included.
    pub failed: u64,
    /// Outputs that differed from their reference.
    pub mismatches: u64,
    /// Measured values by metric name.
    pub values: Vec<(&'static str, f64)>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("pgbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    pg_obs::set_level(pg_obs::Level::Warn);
    pg_obs::obs().set_enabled(args.trace);
    eprintln!(
        "pgbench: {} seed {} for {} s, trace {}, host {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::Host::probe()
    );
    let reference_before_ms = measure::reference_loop_ms();
    let outcome = match args.workload {
        Workload::ServeSmall => serve::run(serve::Traffic::Small, &args),
        Workload::ServeSweep => serve::run(serve::Traffic::Sweep, &args),
        Workload::TuneDense => tune::run(&args),
        Workload::Train => train::run(&args),
    };
    eprintln!(
        "pgbench: host reference loop {reference_before_ms:.2} ms before the run, {:.2} ms after",
        measure::reference_loop_ms()
    );
    let mut run = match outcome {
        Ok(run) => run,
        Err(error) => {
            eprintln!("pgbench: {}: {error}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    run.values.push((
        "proc.peak_rss_mb",
        measure::peak_rss_mb().unwrap_or(f64::NAN),
    ));
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(listed.len());
    for &(name, unit) in listed {
        let Some(&(_, value)) = run.values.iter().find(|(n, _)| *n == name) else {
            eprintln!("pgbench: {} did not measure {name}", args.workload.name());
            return ExitCode::FAILURE;
        };
        if !value.is_finite() {
            eprintln!("pgbench: {name} is not a finite number ({value})");
            return ExitCode::FAILURE;
        }
        println!("{} {name} {value} {unit}", args.workload.name());
        metrics.push((
            name.to_string(),
            Value::Object(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]),
        ));
    }
    let correct = run.mismatches == 0;
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(run.attempted.max(1))),
        ("failed".into(), Value::UInt(run.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a JSON value always renders")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pgbench: {} outputs differed from their reference",
            run.mismatches
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_in_the_documented_form() {
        let args = parse("--workload tune_dense --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::TuneDense,
                seed: 7,
                seconds: 12.0,
                trace: true,
            }
        );
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload train --trace yes").is_err());
        assert!(parse("--workload train --seconds 0").is_err());
        assert!(parse("--workload train --bogus 1").is_err());
    }

    /// `BENCHMARK.json` must name exactly the workloads and metrics this
    /// binary runs and prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json: Value = serde_json::from_str(&text).unwrap();
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            let Some(Value::Array(items)) = json.get(key) else {
                panic!("BENCHMARK.json has no `{key}` array");
            };
            items
                .iter()
                .map(|item| {
                    let field = |f: &str| match item.get(f) {
                        Some(Value::Str(s)) => Some(s.clone()),
                        _ => None,
                    };
                    (field("name").unwrap(), field("unit"))
                })
                .collect()
        };
        let listed = |metrics: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            metrics
                .iter()
                .map(|(n, u)| (n.to_string(), Some(u.to_string())))
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(names("end_to_end"), listed(&END_TO_END));
        assert_eq!(names("per_layer"), listed(&PER_LAYER));
    }
}
