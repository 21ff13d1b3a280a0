//! The per-layer half of a traced run, shared by every workload.
//!
//! After the workload's own phase, with pg-obs enabled throughout:
//!
//! * a **probe** sends each of the workload's distinct requests over one
//!   HTTP connection (up to [`PROBE_REQUESTS`]) and subtracts a direct
//!   `Engine::advise` of the same request: the serving tier's overhead.
//!   Then a closed loop over two connections measures the rate the server
//!   sustains for those requests. The probe runs on the workload's own
//!   server; a workload that never crosses HTTP gets a server started for
//!   the probe, which sends `serve_small`'s requests;
//! * a **replay** re-runs each distinct request's path from the
//!   benchmark's own code, one span per public call, beside a cold-engine
//!   `Engine::advise` of the same request;
//! * pg-obs stage histograms, the server's counters, a perfsim probe and
//!   the training set's generation summary supply the rest.
//!
//! The spans go to `<target>/pgbench/trace-<workload>-<seed>.json`.

use crate::http::{self, Conn};
use crate::measure::{median, windowed_rate, Summary};
use crate::rng::Rng;
use crate::serve::Traffic;
use crate::setup::{self, NOISE_SIGMA, PLATFORM};
use crate::trace::Recorder;
use crate::{Args, Run};
use paragraph_core::{build, to_relational};
use pg_advisor::{assess_instance, instantiate, KernelInstance, Variant};
use pg_analyze::LegalityVerdict;
use pg_dataset::{DatasetScale, GenerationSummary};
use pg_engine::{AdviseReport, AdviseRequest, CacheCounters, Engine, KernelSpec, LaunchBudget};
use pg_frontend::ParseOptions;
use pg_gnn::TrainedModel;
use pg_obs::Stage;
use pg_perfsim::NoiseModel;
use pg_serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Most round trips the HTTP probe makes.
const PROBE_REQUESTS: usize = 200;

/// The probe stops early, after at least one pass, once it has run this long.
const PROBE_MAX: Duration = Duration::from_secs(2);

/// How long the probe's closed loop runs.
const CLOSED_LOOP_S: f64 = 1.0;

/// The closed loop's rate is measured over windows this long.
const RATE_WINDOW_S: f64 = 0.25;

/// Planned dataset instances the perfsim probe measures.
const PERFSIM_INSTANCES: usize = 2000;

/// What a workload hands the shared per-layer measurements.
pub struct Session<'a> {
    /// The model the workload served or trained.
    pub model: &'a TrainedModel,
    /// The engine the workload drove.
    pub engine: &'a Arc<Engine>,
    /// The workload's server, if its traffic crossed HTTP.
    pub server: Option<Server>,
    /// The workload's distinct requests.
    pub requests: &'a [AdviseRequest],
    /// The dataset-generation run behind the workload.
    pub generation: &'a GenerationSummary,
    /// Normalised validation RMSE of the model's training.
    pub val_norm_rmse: f64,
}

/// Hits over lookups of a frontend-cache counter delta.
pub fn hit_ratio(delta: CacheCounters) -> f64 {
    delta.hits as f64 / (delta.hits + delta.misses).max(1) as f64
}

/// Measure every layer, add the per-layer values and the probe's and
/// replay's checks to `run`, and write the trace file.
pub fn collect(session: Session<'_>, args: &Args, run: &mut Run) -> Result<(), String> {
    // The benchmark's output contract puts every per-layer metric on every
    // workload. A workload without HTTP traffic therefore probes a server of
    // its own, with `serve_small`'s requests: the serving tier is what the
    // probe measures, and a heavy request's direct call would drown it.
    let (server, probe_requests) = match session.server {
        Some(server) => (server, session.requests.to_vec()),
        None => (
            Server::start(Arc::clone(session.engine), ServeConfig::default())
                .map_err(|e| format!("start the probe server: {e}"))?,
            Traffic::Small.catalogue(),
        ),
    };
    let bodies: Vec<Vec<u8>> = probe_requests
        .iter()
        .map(|request| {
            let body = serde_json::to_string(request).expect("advise requests serialize");
            http::post("/advise", &body)
        })
        .collect();
    let probed = probe(server.addr(), session.model, &probe_requests, &bodies);
    let counters = server.shutdown();
    let probe = probed?;
    run.attempted += probe.attempted;
    run.failed += probe.mismatches;
    run.mismatches += probe.mismatches;

    let mut recorder = Recorder::default();
    let mut replay = Replay::default();
    for (request_id, request) in session.requests.iter().enumerate() {
        replay.request(&mut recorder, session.model, request, request_id as u64)?;
    }
    run.attempted += session.requests.len() as u64;
    if replay.diverged > 0 {
        eprintln!(
            "pgbench: the replay ranked {} of {} requests differently from Engine::advise; \
             its layer times may not describe the engine's path",
            replay.diverged,
            session.requests.len()
        );
    }

    let times = recorder.self_times();
    let p50_us = |name: &str| times.get(name).and_then(|v| median(v)).unwrap_or(0.0);
    let sum_us = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|name| times.get(name))
            .flatten()
            .sum()
    };
    let stages = pg_obs::obs().stage_snapshot();
    let stage_mean_us = |stage: Stage| {
        stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0.0, |(_, h)| h.sum_us as f64 / h.count.max(1) as f64)
    };
    let generation_s = session.generation.wall_ms / 1e3;

    run.values.extend([
        (
            "serve.overhead_us_p50",
            median(&probe.overhead_us).unwrap_or(0.0),
        ),
        ("serve.parse_us_mean", stage_mean_us(Stage::Parse)),
        ("serve.batch_wait_us_mean", stage_mean_us(Stage::BatchWait)),
        ("serve.write_us_mean", stage_mean_us(Stage::Write)),
        ("serve.serialize_us_p50", p50_us("serve.serialize")),
        ("serve.closed_loop_rps", probe.closed_loop_rps),
        (
            "serve.batch_size_mean",
            counters.batched_requests as f64 / counters.batches.max(1) as f64,
        ),
        (
            "serve.wakeups_per_request",
            counters.epoll_wakeups as f64 / counters.http_requests.max(1) as f64,
        ),
        ("engine.advise_us_p50", p50_us("engine.advise")),
        (
            "engine.candidates_per_request",
            replay.candidates as f64 / session.requests.len().max(1) as f64,
        ),
        (
            "engine.attributed_share",
            sum_us(&ATTRIBUTED) / sum_us(&["engine.advise"]).max(1e-9),
        ),
        ("advisor.enumerate_us_p50", p50_us("advisor.enumerate")),
        ("analyze.assess_us_p50", p50_us("analyze.assess")),
        ("frontend.parse_us_p50", p50_us("frontend.parse")),
        (
            "frontend.parse_mb_per_s",
            replay.parsed_bytes as f64 / sum_us(&["frontend.parse"]).max(1e-9),
        ),
        ("core.graph_build_us_p50", p50_us("core.graph_build")),
        (
            "gnn.predict_us_per_graph",
            sum_us(&["gnn.predict"]) / replay.candidates.max(1) as f64,
        ),
        ("gnn.predict_batch_ms_p50", p50_us("gnn.predict") / 1e3),
        ("gnn.forward_us_mean", stage_mean_us(Stage::GnnForward)),
        ("gnn.backward_us_mean", stage_mean_us(Stage::GnnBackward)),
        ("gnn.val_norm_rmse", session.val_norm_rmse),
        (
            "dataset.points_per_s",
            session.generation.points as f64 / generation_s.max(1e-9),
        ),
        ("perfsim.measure_us_p50", perfsim_probe(args.seed)?),
    ]);

    let path = trace_path(args);
    recorder
        .write(&path, args.workload.name(), args.seed)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "pgbench: wrote {} spans to {}",
        recorder.spans().len(),
        path.display()
    );
    Ok(())
}

/// The layer spans whose self times `Engine::advise` covers.
const ATTRIBUTED: [&str; 5] = [
    "advisor.enumerate",
    "analyze.assess",
    "frontend.parse",
    "core.graph_build",
    "gnn.predict",
];

/// `$CARGO_TARGET_DIR/pgbench/trace-<workload>-<seed>.json`, with `target`
/// when the variable is unset.
fn trace_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("pgbench").join(format!(
        "trace-{}-{}.json",
        args.workload.name(),
        args.seed
    ))
}

/// What the HTTP probe measured.
struct Probe {
    overhead_us: Vec<f64>,
    closed_loop_rps: f64,
    attempted: u64,
    mismatches: u64,
}

/// Round trips over one connection, each followed by a direct advise of the
/// same request on a warm engine serving the same model; then a closed
/// loop over two connections for [`CLOSED_LOOP_S`]. Every reply must carry
/// the direct engine's rankings.
fn probe(
    addr: std::net::SocketAddr,
    model: &TrainedModel,
    requests: &[AdviseRequest],
    bodies: &[Vec<u8>],
) -> Result<Probe, String> {
    let direct = setup::gnn_engine(model);
    let expected = requests
        .iter()
        .map(|request| {
            let report = direct.advise(request).map_err(|e| e.to_string())?;
            let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
            http::rankings_hash(json.as_bytes()).ok_or("report without rankings".to_string())
        })
        .collect::<Result<Vec<u64>, String>>()?;
    let connect = || Conn::connect(addr).map_err(|e| format!("connect the probe: {e}"));
    let mut conn = connect()?;
    let mut probe = Probe {
        overhead_us: Vec::new(),
        closed_loop_rps: 0.0,
        attempted: 0,
        mismatches: 0,
    };
    let started = Instant::now();
    for i in 0..PROBE_REQUESTS {
        if i >= requests.len() && started.elapsed() > PROBE_MAX {
            break;
        }
        let k = i % requests.len();
        let sent = Instant::now();
        let reply = conn
            .round_trip(&bodies[k])
            .map_err(|e| format!("probe round trip: {e}"))?;
        let round_trip = sent.elapsed();
        let called = Instant::now();
        direct.advise(&requests[k]).map_err(|e| e.to_string())?;
        let direct_time = called.elapsed();
        probe.attempted += 1;
        let matches = reply.status == 200 && http::rankings_hash(&reply.body) == Some(expected[k]);
        probe.mismatches += u64::from(!matches);
        probe
            .overhead_us
            .push((round_trip.as_secs_f64() - direct_time.as_secs_f64()) * 1e6);
    }

    let n = requests.len() as u32;
    let keys = [(0..n).collect(), (0..n).rev().collect()];
    let closed = http::closed_loop(&mut [connect()?, connect()?], bodies, &keys, CLOSED_LOOP_S);
    probe.closed_loop_rps = windowed_rate(&closed.done_s, CLOSED_LOOP_S, RATE_WINDOW_S);
    probe.attempted += closed.attempted;
    probe.mismatches += closed.failed
        + closed
            .replies
            .iter()
            .filter(|&&(key, hash)| hash != expected[key as usize])
            .count() as u64;
    Ok(probe)
}

/// Running totals of the replay.
#[derive(Default)]
struct Replay {
    candidates: usize,
    parsed_bytes: usize,
    /// Requests whose replayed predictions differ from the engine's.
    diverged: usize,
}

impl Replay {
    /// Replay one request: a cold-engine `Engine::advise` span, then one
    /// span per layer call under a `replay` root. Both share `request_id`.
    fn request(
        &mut self,
        rec: &mut Recorder,
        model: &TrainedModel,
        request: &AdviseRequest,
        request_id: u64,
    ) -> Result<(), String> {
        let cold = setup::gnn_engine(model);
        let report = rec
            .span(request_id, None, "engine.advise", |_, _| {
                cold.advise(request)
            })
            .map_err(|e| format!("advise {}: {e}", request.kernel.name()))?;
        let predictions = rec.span(request_id, None, "replay", |rec, root| {
            self.layers(rec, model, request, &report, request_id, root)
        })?;
        let mut replayed: Vec<f64> = predictions.into_iter().map(f64::from).collect();
        replayed.sort_by(f64::total_cmp);
        let engine: Vec<f64> = report.rankings.iter().map(|r| r.predicted_ms).collect();
        self.diverged += usize::from(replayed != engine);
        Ok(())
    }

    fn layers(
        &mut self,
        rec: &mut Recorder,
        model: &TrainedModel,
        request: &AdviseRequest,
        report: &AdviseReport,
        request_id: u64,
        root: u32,
    ) -> Result<Vec<f32>, String> {
        let span = |rec: &mut Recorder, name, body: &mut dyn FnMut()| {
            rec.span(request_id, Some(root), name, |_, _| body())
        };
        let mut instances = Vec::new();
        span(rec, "advisor.enumerate", &mut || {
            instances = enumerate(request)
        });
        // One legality probe per variant gates the variant's whole launch
        // sweep, as in the engine. A catalogue variant with a race is
        // dropped; a raw source is only diagnosed, having no alternative.
        let prunable = matches!(request.kernel, KernelSpec::Catalog(_));
        let mut admitted: Vec<KernelInstance> = Vec::with_capacity(instances.len());
        let mut gated: Option<(Variant, bool)> = None;
        for instance in instances {
            let race = match gated {
                Some((variant, race)) if variant == instance.variant => race,
                _ => {
                    let mut race = false;
                    span(rec, "analyze.assess", &mut || {
                        race =
                            matches!(assess_instance(&instance).verdict, LegalityVerdict::Race(_));
                    });
                    gated = Some((instance.variant, race));
                    race
                }
            };
            if !(race && prunable) {
                admitted.push(instance);
            }
        }

        let mut graphs = Vec::with_capacity(admitted.len());
        let mut ast: Option<(String, pg_frontend::Ast)> = None;
        for instance in &admitted {
            if ast.as_ref().map(|(source, _)| source) != Some(&instance.source) {
                let mut parsed = None;
                span(rec, "frontend.parse", &mut || {
                    parsed = Some(pg_frontend::parse_with_options(
                        &instance.source,
                        ParseOptions::default(),
                    ));
                });
                let parsed = parsed
                    .expect("the span ran its body")
                    .map_err(|e| format!("parse {}: {e}", instance.full_name()))?;
                self.parsed_bytes += instance.source.len();
                ast = Some((instance.source.clone(), parsed));
            }
            let (_, tree) = ast.as_ref().expect("parsed above");
            let launch = instance.launch;
            let config = model.builder_config(launch.teams, launch.threads);
            span(rec, "core.graph_build", &mut || {
                graphs.push(to_relational(&build(tree, &config)));
            });
        }
        self.candidates += graphs.len();

        let items: Vec<_> = graphs
            .iter()
            .zip(&admitted)
            .map(|(graph, instance)| (graph, instance.launch.teams, instance.launch.threads))
            .collect();
        let mut predictions = Vec::new();
        span(rec, "gnn.predict", &mut || {
            predictions = model.predict_relational_batch(&items);
        });
        span(rec, "serve.serialize", &mut || {
            std::hint::black_box(serde_json::to_string(report).map(|json| json.len()).ok());
        });
        Ok(predictions)
    }
}

/// The candidate instances the engine enumerates for `request` on
/// [`PLATFORM`], before the legality gate.
fn enumerate(request: &AdviseRequest) -> Vec<KernelInstance> {
    let gpu = PLATFORM.is_gpu();
    let sweep = |budget: &pg_advisor::ParallelismBudget| {
        if gpu {
            budget.gpu_launches()
        } else {
            budget.cpu_launches()
        }
    };
    let launches = match &request.budget {
        LaunchBudget::Fixed(launch) => vec![*launch],
        LaunchBudget::Sweep(budget) => sweep(budget),
        LaunchBudget::PlatformDefault => sweep(&PLATFORM.default_budget()),
    };
    match &request.kernel {
        KernelSpec::Catalog(name) => {
            let Some(kernel) = pg_kernels::find_kernel(name) else {
                return Vec::new();
            };
            let sizes = request
                .sizes
                .clone()
                .unwrap_or_else(|| kernel.default_sizes());
            Variant::applicable_variants(&kernel)
                .into_iter()
                .filter(|variant| variant.is_gpu() == gpu)
                .flat_map(|variant| {
                    launches
                        .iter()
                        .map(|&launch| instantiate(&kernel, variant, &sizes, launch))
                        .collect::<Vec<_>>()
                })
                .collect()
        }
        KernelSpec::Source { name, source } => {
            let (application, kernel) = name.split_once('/').unwrap_or((name, name));
            launches
                .into_iter()
                .map(|launch| KernelInstance {
                    application: application.to_string(),
                    kernel: kernel.to_string(),
                    variant: if gpu { Variant::Gpu } else { Variant::Cpu },
                    sizes: Default::default(),
                    launch,
                    source: source.clone(),
                    bytes_to_device: 0,
                    bytes_from_device: 0,
                })
                .collect()
        }
    }
}

/// Median microseconds of one `pg_perfsim::measure` over a seeded sample
/// of the Default-scale dataset plan.
fn perfsim_probe(seed: u64) -> Result<f64, String> {
    let mut instances = pg_dataset::instances_for(PLATFORM, DatasetScale::Default);
    Rng::new(seed, 99).shuffle(&mut instances);
    instances.truncate(PERFSIM_INSTANCES);
    let noise = NoiseModel {
        sigma: NOISE_SIGMA,
        seed,
    };
    let mut times = Vec::with_capacity(instances.len());
    for instance in &instances {
        let started = Instant::now();
        std::hint::black_box(pg_perfsim::measure(instance, PLATFORM, &noise))
            .map_err(|e| format!("measure {}: {e}", instance.describe()))?;
        times.push(started.elapsed().as_secs_f64() * 1e6);
    }
    Summary::of(&times)
        .map(|s| s.p50())
        .ok_or_else(|| "the dataset plan is empty".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enumeration_matches_the_engine_candidate_count() {
        let engine = setup::truth_engine();
        for request in [
            AdviseRequest::catalog("MM/matmul"),
            AdviseRequest::catalog("MV/matvec").with_launch(pg_advisor::LaunchConfig {
                teams: 80,
                threads: 128,
            }),
            AdviseRequest::source("gen/p1", pg_frontend::testing::generate_program(1)),
        ] {
            let report = engine.advise(&request).unwrap();
            assert_eq!(enumerate(&request).len(), report.candidates());
        }
    }
}
