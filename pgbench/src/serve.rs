//! The two HTTP workloads: `/advise` traffic against an in-process pg-serve.
//!
//! Both start a server over a GNN engine, warm it, then drive it for the
//! whole run from two connections, each on its own seeded Poisson schedule
//! (an open loop). They differ in what the requests cost and how much of
//! the frontend cache they reuse; see [`Traffic`]. The traced run adds a
//! closed-loop probe of the server's rate (see `layers`).

use crate::http::{self, Conn, Schedule};
use crate::layers::{self, Session};
use crate::measure::{self, report_tail, with_thread_sampler, Summary};
use crate::rng::Rng;
use crate::setup::{self, SETUP_REPS};
use crate::{Args, Run};
use pg_advisor::LaunchConfig;
use pg_dataset::DatasetScale;
use pg_engine::{AdviseRequest, Engine};
use pg_frontend::testing::{GenConfig, Generator};
use pg_gnn::TrainConfig;
use pg_serve::{ServeConfig, Server};
use std::collections::HashMap;
use std::sync::Arc;

/// Which request mix a serve workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// Every catalogue kernel at two fixed launches: 3–4 candidates per
    /// request, all cached after warm-up, so the serving tier dominates.
    Small,
    /// Every catalogue kernel over the platform's default launch sweep
    /// (18 or 36 candidates), with every 4th request a never-seen raw
    /// source: more candidate sources than the frontend cache holds, so
    /// parse, gate, graph build and GNN forward dominate.
    Sweep,
}

/// The fixed launches of [`Traffic::Small`].
const SMALL_LAUNCHES: [LaunchConfig; 2] = [
    LaunchConfig {
        teams: 80,
        threads: 128,
    },
    LaunchConfig {
        teams: 40,
        threads: 256,
    },
];

/// How many raw sources the per-layer replay and probe include.
const RAW_DISTINCT: usize = 8;

impl Traffic {
    /// Open-loop rate over both connections, requests per second. Each
    /// connection answers one request at a time, so this keeps each about
    /// 20% busy at the service times measured on a 2-core host (1 ms batch
    /// window plus compute for small requests, 7 ms for sweeps): queueing
    /// stays low enough that host jitter is not amplified into the median.
    fn rate_per_s(self) -> f64 {
        match self {
            Traffic::Small => 400.0,
            Traffic::Sweep => 60.0,
        }
    }

    /// Every n-th request is a fresh raw source (0: never).
    fn raw_every(self) -> usize {
        match self {
            Traffic::Small => 0,
            Traffic::Sweep => 4,
        }
    }

    /// The distinct catalogue requests.
    pub fn catalogue(self) -> Vec<AdviseRequest> {
        let kernels = setup::kernel_names();
        match self {
            Traffic::Small => kernels
                .iter()
                .flat_map(|k| {
                    SMALL_LAUNCHES
                        .iter()
                        .map(move |&launch| AdviseRequest::catalog(k.clone()).with_launch(launch))
                })
                .collect(),
            Traffic::Sweep => kernels.into_iter().map(AdviseRequest::catalog).collect(),
        }
    }
}

/// Every request a run may send, by key (index). Catalogue requests come
/// first; raw sources are appended as sequences draw them.
struct Table {
    requests: Vec<AdviseRequest>,
    bodies: Vec<Vec<u8>>,
    catalogue: usize,
}

impl Table {
    fn new(catalogue: Vec<AdviseRequest>) -> Table {
        let mut table = Table {
            requests: Vec::new(),
            bodies: Vec::new(),
            catalogue: catalogue.len(),
        };
        for request in catalogue {
            table.push(request);
        }
        table
    }

    fn push(&mut self, request: AdviseRequest) -> u32 {
        let body = serde_json::to_string(&request).expect("advise requests serialize");
        self.bodies.push(http::post("/advise", &body));
        self.requests.push(request);
        u32::try_from(self.requests.len() - 1).expect("fewer than 2^32 requests")
    }

    /// `n` request keys: the catalogue in seeded shuffled passes, so every
    /// seed sends the same mix, with every `raw_every`-th key a new
    /// generated program.
    fn sequence(&mut self, rng: &mut Rng, n: usize, raw_every: usize) -> Vec<u32> {
        let mut pass: Vec<u32> = Vec::new();
        (0..n)
            .map(|i| {
                if raw_every > 0 && i % raw_every == raw_every - 1 {
                    let program = rng.next_u64();
                    // One function per program, like every catalogue kernel:
                    // a request carries one kernel.
                    let config = GenConfig {
                        max_functions: 1,
                        ..GenConfig::default()
                    };
                    return self.push(AdviseRequest::source(
                        format!("gen/p{program:016x}"),
                        Generator::with_config(program, config).program(),
                    ));
                }
                if pass.is_empty() {
                    pass = (0..self.catalogue as u32).collect();
                    rng.shuffle(&mut pass);
                }
                pass.pop().expect("refilled above")
            })
            .collect()
    }
}

/// The rankings hash an advise reply must carry: the direct engine's answer
/// to the same request, serialized like the server serializes it.
fn expected_hash(direct: &Engine, request: &AdviseRequest) -> Result<u64, String> {
    let report = direct
        .advise(request)
        .map_err(|e| format!("direct advise of {}: {e}", request.kernel.name()))?;
    let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    http::rankings_hash(json.as_bytes()).ok_or_else(|| "report without rankings".to_string())
}

/// One round trip per body on a fresh connection; every reply must be 200.
fn warm(addr: std::net::SocketAddr, bodies: &[Vec<u8>]) -> std::io::Result<()> {
    let mut conn = Conn::connect(addr)?;
    for body in bodies {
        let reply = conn.round_trip(body)?;
        if reply.status != 200 {
            return Err(std::io::Error::other(format!(
                "warm-up request answered {}",
                reply.status
            )));
        }
    }
    Ok(())
}

/// Run one serve workload.
pub fn run(traffic: Traffic, args: &Args) -> Result<Run, String> {
    let mut table = Table::new(traffic.catalogue());
    let warm_bodies = table.bodies.clone();
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let ((fitted, engine, server), setup_s) = setup::timed(
        reps,
        || {
            let fitted = setup::fit(DatasetScale::Fast, &TrainConfig::fast());
            let engine = Arc::new(setup::gnn_engine(&fitted.model));
            let server = Server::start(Arc::clone(&engine), ServeConfig::default())
                .expect("the server binds an ephemeral localhost port");
            warm(server.addr(), &warm_bodies).expect("the server answers warm-up requests");
            (fitted, engine, server)
        },
        |(_, _, server)| {
            server.shutdown();
        },
    );

    // References: the direct engine answers every catalogue request once.
    let direct = setup::gnn_engine(&fitted.model);
    let catalogue_reports = table.requests[..table.catalogue]
        .iter()
        .map(|request| direct.advise(request).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, String>>()?;

    // One Poisson schedule per connection at half the rate.
    let mut plans: [Schedule; 2] = Default::default();
    for (t, plan) in plans.iter_mut().enumerate() {
        let mut rng = Rng::new(args.seed, t as u64);
        let mut due = rng.exp_gap(traffic.rate_per_s() / 2.0);
        while due < args.seconds {
            plan.due_s.push(due);
            due += rng.exp_gap(traffic.rate_per_s() / 2.0);
        }
        plan.keys = table.sequence(&mut rng, plan.due_s.len(), traffic.raw_every());
    }

    let addr = server.addr();
    let cache_before = engine.cache_counters();
    measure::reset_peak_heap();
    let (open, threads_max) = with_thread_sampler(args.trace, || {
        let mut conns = [
            Conn::connect(addr).expect("connect to the server"),
            Conn::connect(addr).expect("connect to the server"),
        ];
        http::open_loop(&mut conns, &table.bodies, &plans)
    });
    let cache = engine.cache_counters().since(cache_before);
    let peak_heap_mb = measure::peak_heap_mb();

    // Every 200 reply must carry the direct engine's rankings.
    let mut expected: HashMap<u32, u64> = HashMap::new();
    let mut mismatches = 0u64;
    for &(key, hash) in &open.replies {
        let want = match expected.get(&key) {
            Some(&want) => want,
            None => {
                let want = expected_hash(&direct, &table.requests[key as usize])?;
                expected.insert(key, want);
                want
            }
        };
        mismatches += u64::from(hash != want);
    }

    let lag = Summary::of(&open.lags_ms).map_or(0.0, |s| s.at(99.0));
    if lag > 1.0 {
        eprintln!("pgbench: generator send lag p99 {lag:.3} ms exceeds 1 ms; this run is invalid");
    }
    let latency = Summary::of(&open.latencies_ms).ok_or("no open-loop request succeeded")?;
    report_tail("open-loop latency", &latency);
    let truth = setup::truth_engine();
    let picks: Vec<_> = table.requests[..table.catalogue]
        .iter()
        .cloned()
        .zip(catalogue_reports.iter().map(|r| r.best().cloned()))
        .map(|(request, best)| best.map(|b| (request, b)))
        .collect::<Option<Vec<_>>>()
        .ok_or("a catalogue request ranked no candidate")?;
    let quality = setup::quality(&truth, &picks)?;

    let mut run = Run {
        attempted: open.attempted,
        failed: open.failed + mismatches,
        mismatches,
        values: vec![
            ("setup_s", setup_s),
            ("latency_ms", latency.p50()),
            ("regret", quality.regret),
            ("peak_heap_mb", peak_heap_mb),
        ],
    };
    if !args.trace {
        server.shutdown();
        return Ok(run);
    }

    let raw_keys = (table.catalogue..table.requests.len()).take(RAW_DISTINCT);
    let distinct: Vec<AdviseRequest> = (0..table.catalogue)
        .chain(raw_keys)
        .map(|key| table.requests[key].clone())
        .collect();
    run.values.extend([
        ("obs.traced_latency_ms", latency.p50()),
        ("engine.cache_hit_ratio", layers::hit_ratio(cache)),
        ("proc.threads_max", threads_max as f64),
        ("gnn.top1_hit_rate", quality.top1_hit_rate),
    ]);
    let session = Session {
        model: &fitted.model,
        engine: &engine,
        server: Some(server),
        requests: &distinct,
        generation: &fitted.generation,
        val_norm_rmse: fitted.val_norm_rmse,
    };
    layers::collect(session, args, &mut run)?;
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_sequences_put_a_fresh_raw_source_every_fourth_request() {
        let mut table = Table::new(Traffic::Sweep.catalogue());
        let catalogue = table.catalogue;
        let keys = table.sequence(&mut Rng::new(5, 0), 12, 4);
        for (i, &key) in keys.iter().enumerate() {
            assert_eq!(key as usize >= catalogue, i % 4 == 3, "position {i}");
        }
        assert_eq!(table.requests.len(), catalogue + 3);
        let again = Table::new(Traffic::Sweep.catalogue()).sequence(&mut Rng::new(5, 0), 12, 4);
        assert_eq!(keys, again, "sequences are a function of the seed");
    }

    #[test]
    fn catalogue_keys_come_in_shuffled_passes() {
        let catalogue = Traffic::Small.catalogue();
        let n = catalogue.len();
        assert_eq!(n, 2 * setup::kernel_names().len());
        let keys = Table::new(catalogue).sequence(&mut Rng::new(1, 0), 2 * n, 0);
        for pass in keys.chunks(n) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as u32).collect::<Vec<_>>());
        }
        assert_ne!(keys[..n], keys[n..], "each pass is shuffled afresh");
    }
}
