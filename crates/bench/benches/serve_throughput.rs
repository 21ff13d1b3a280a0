//! Closed-loop load generator for the serving tier.
//!
//! Starts an in-process `pg-serve` server over a GNN-backed engine and
//! hammers it with K keep-alive client threads, each issuing its next
//! request as soon as the previous response lands (closed loop). Two
//! server configurations are compared over identical traffic:
//!
//! * **batched** — the production micro-batcher at max-batch 64: requests
//!   that queue while a batch executes coalesce into the next shared
//!   `Engine::advise_many` call;
//! * **per-request** — max-batch 1: every request runs its own engine
//!   call, the pre-serving baseline shape.
//!
//! The run records p50/p99 latency and throughput to `BENCH_serve.json` at
//! the repository root (schema 2: the schema-1 16-client
//! batched/per-request comparison is kept verbatim, plus a `sweep` over
//! 16/256/4096 concurrent keep-alive connections against the event loop,
//! recording req/s, p50/p99, the coalesced-batch size histogram, and the
//! server thread count).
//! `PARAGRAPH_BENCH_SMOKE=1` runs tiny counts and skips the JSON rewrite.

use pg_advisor::LaunchConfig;
use pg_dataset::{collect_platform, DatasetScale, PipelineConfig};
use pg_engine::{AdviseRequest, Engine};
use pg_gnn::{GnnBackend, TrainConfig, TrainedModel};
use pg_perfsim::Platform;
use pg_serve::{BatchConfig, MetricsSnapshot, ServeConfig, Server, BATCH_SIZE_BUCKETS};
use serde::Serialize;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const PLATFORM: Platform = Platform::SummitV100;

fn smoke() -> bool {
    std::env::var("PARAGRAPH_BENCH_SMOKE").is_ok_and(|v| v == "1")
}

fn trained_bundle() -> TrainedModel {
    let ds = collect_platform(
        PLATFORM,
        &PipelineConfig {
            scale: DatasetScale::Fast,
            seed: 3,
            noise_sigma: 0.02,
        },
    );
    TrainedModel::fit(&ds, &TrainConfig::fast()).unwrap().0
}

fn request_bodies() -> Vec<String> {
    let launches = [
        LaunchConfig {
            teams: 80,
            threads: 128,
        },
        LaunchConfig {
            teams: 40,
            threads: 256,
        },
    ];
    ["MM/matmul", "MV/matvec", "Transpose/transpose"]
        .iter()
        .flat_map(|kernel| {
            launches.iter().map(|&launch| {
                serde_json::to_string(&AdviseRequest::catalog(*kernel).with_launch(launch)).unwrap()
            })
        })
        .collect()
}

/// One keep-alive connection issuing `count` requests; returns per-request
/// latencies in milliseconds.
fn closed_loop_client(addr: SocketAddr, bodies: &[String], count: usize) -> Vec<f64> {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut latencies = Vec::with_capacity(count);
    for i in 0..count {
        let body = &bodies[i % bodies.len()];
        let started = Instant::now();
        stream
            .write_all(
                format!(
                    "POST /advise HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        // Read the response: headers, then Content-Length body bytes.
        let mut length = 0usize;
        let mut status_ok = false;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end();
            if line.is_empty() {
                break;
            }
            if line.starts_with("HTTP/1.1") {
                status_ok = line.contains(" 200 ");
            }
            if let Some(v) = line.strip_prefix("Content-Length: ") {
                length = v.parse().unwrap();
            }
        }
        let mut payload = vec![0u8; length];
        reader.read_exact(&mut payload).unwrap();
        assert!(status_ok, "{}", String::from_utf8_lossy(&payload));
        latencies.push(started.elapsed().as_secs_f64() * 1e3);
    }
    latencies
}

struct LoadOutcome {
    latencies_ms: Vec<f64>,
    wall_s: f64,
    metrics: MetricsSnapshot,
    server_threads: usize,
}

/// Run `clients` closed-loop connections of `per_client` requests against
/// a fresh server with the given batch policy.
fn run_load(
    engine: &Arc<Engine>,
    batch: BatchConfig,
    clients: usize,
    per_client: usize,
) -> LoadOutcome {
    let server = Server::start(
        Arc::clone(engine),
        ServeConfig {
            max_inflight: clients * 2,
            max_connections: clients + 64,
            batch,
            ..ServeConfig::default()
        },
    )
    .expect("bench server starts");
    let server_threads = server.io_and_worker_threads();
    let addr = server.addr();
    let bodies = request_bodies();
    // Warm the engine's frontend cache so both configurations measure the
    // serving path, not first-parse noise.
    closed_loop_client(addr, &bodies, bodies.len());

    let started = Instant::now();
    let threads: Vec<_> = (0..clients)
        .map(|i| {
            let bodies = bodies.clone();
            // Offset each client's cycle so concurrent batches mix kernels.
            let bodies: Vec<String> = (0..bodies.len())
                .map(|j| bodies[(i + j) % bodies.len()].clone())
                .collect();
            // Small stacks keep a 4096-client sweep point affordable.
            std::thread::Builder::new()
                .stack_size(256 * 1024)
                .spawn(move || closed_loop_client(addr, &bodies, per_client))
                .expect("spawn bench client")
        })
        .collect();
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(clients * per_client);
    for thread in threads {
        latencies_ms.extend(thread.join().unwrap());
    }
    let wall_s = started.elapsed().as_secs_f64();
    let metrics = server.shutdown();
    LoadOutcome {
        latencies_ms,
        wall_s,
        metrics,
        server_threads,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

#[derive(Serialize)]
struct ConfigStats {
    requests: usize,
    p50_ms: f64,
    p99_ms: f64,
    req_per_s: f64,
    batches: u64,
    coalesced_batches: u64,
    max_batch_size: u64,
}

impl ConfigStats {
    fn of(outcome: &LoadOutcome) -> Self {
        let mut sorted = outcome.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self {
            requests: sorted.len(),
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            req_per_s: sorted.len() as f64 / outcome.wall_s.max(1e-9),
            batches: outcome.metrics.batches,
            coalesced_batches: outcome.metrics.coalesced_batches,
            max_batch_size: outcome.metrics.max_batch_size,
        }
    }
}

/// One point of the concurrency sweep: the batched event-loop server under
/// `clients` simultaneous keep-alive connections.
#[derive(Serialize)]
struct SweepPoint {
    clients: usize,
    requests: usize,
    req_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
    /// Coalesced-batch size histogram: count of batches with size <= the
    /// matching entry of `batch_size_bounds`; the final slot is overflow.
    batch_size_buckets: Vec<u64>,
    coalesced_batches: u64,
    max_batch_size: u64,
    /// Server-side threads (1 event-loop + fixed worker pool) — constant
    /// across the sweep; the connection count is carried by epoll, not
    /// threads.
    threads: usize,
    connections_opened: u64,
    connections_shed: u64,
}

impl SweepPoint {
    fn of(clients: usize, outcome: &LoadOutcome) -> Self {
        let mut sorted = outcome.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Self {
            clients,
            requests: sorted.len(),
            req_per_s: sorted.len() as f64 / outcome.wall_s.max(1e-9),
            p50_ms: percentile(&sorted, 0.50),
            p99_ms: percentile(&sorted, 0.99),
            batch_size_buckets: outcome.metrics.batch_size_buckets.clone(),
            coalesced_batches: outcome.metrics.coalesced_batches,
            max_batch_size: outcome.metrics.max_batch_size,
            threads: outcome.server_threads,
            connections_opened: outcome.metrics.connections_opened,
            connections_shed: outcome.metrics.connections_shed,
        }
    }
}

#[derive(Serialize)]
struct BenchReport {
    schema: u32,
    platform: String,
    backend: String,
    clients: usize,
    requests_per_client: usize,
    batched: ConfigStats,
    per_request: ConfigStats,
    throughput_speedup: f64,
    /// Bucket upper bounds for every `batch_size_buckets` vector below;
    /// the vectors carry one extra overflow slot.
    batch_size_bounds: Vec<u64>,
    sweep: Vec<SweepPoint>,
}

fn main() {
    let (clients, per_client) = if smoke() { (4, 5) } else { (16, 60) };
    let engine = Arc::new(
        Engine::builder()
            .platform(PLATFORM)
            .backend(GnnBackend::new(trained_bundle(), PLATFORM))
            .build(),
    );

    let batched = run_load(
        &engine,
        BatchConfig {
            max_batch: 64,
            queue_depth: 1024,
        },
        clients,
        per_client,
    );
    let per_request = run_load(
        &engine,
        BatchConfig {
            max_batch: 1,
            queue_depth: 1024,
        },
        clients,
        per_client,
    );
    assert!(
        batched.metrics.coalesced_batches > 0,
        "the batched configuration never coalesced — load generator too weak"
    );
    assert_eq!(per_request.metrics.max_batch_size, 1);

    // Concurrency sweep: same batched policy, rising connection counts.
    // Per-client request counts shrink as the client count grows so every
    // point issues a comparable total volume.
    let sweep_points: &[(usize, usize)] = if smoke() {
        &[(4, 5), (8, 4)]
    } else {
        &[(16, 60), (256, 16), (4096, 2)]
    };
    let sweep: Vec<SweepPoint> = sweep_points
        .iter()
        .map(|&(clients, per_client)| {
            let outcome = run_load(
                &engine,
                BatchConfig {
                    max_batch: 256,
                    queue_depth: (clients * 4).max(1024),
                },
                clients,
                per_client,
            );
            let point = SweepPoint::of(clients, &outcome);
            println!(
                "sweep {} clients: {:.0} req/s p50 {:.2}ms p99 {:.2}ms \
                 (max batch {}, {} threads)",
                point.clients,
                point.req_per_s,
                point.p50_ms,
                point.p99_ms,
                point.max_batch_size,
                point.threads,
            );
            point
        })
        .collect();

    let report = BenchReport {
        schema: 2,
        platform: PLATFORM.name().to_string(),
        backend: "gnn".to_string(),
        clients,
        requests_per_client: per_client,
        batched: ConfigStats::of(&batched),
        per_request: ConfigStats::of(&per_request),
        throughput_speedup: (batched.latencies_ms.len() as f64 / batched.wall_s)
            / (per_request.latencies_ms.len() as f64 / per_request.wall_s).max(1e-9),
        batch_size_bounds: BATCH_SIZE_BUCKETS.to_vec(),
        sweep,
    };
    println!(
        "serve load ({} clients x {} reqs): batched p50 {:.2}ms p99 {:.2}ms {:.0} req/s \
         (max batch {}), per-request p50 {:.2}ms p99 {:.2}ms {:.0} req/s -> {:.2}x throughput",
        report.clients,
        report.requests_per_client,
        report.batched.p50_ms,
        report.batched.p99_ms,
        report.batched.req_per_s,
        report.batched.max_batch_size,
        report.per_request.p50_ms,
        report.per_request.p99_ms,
        report.per_request.req_per_s,
        report.throughput_speedup,
    );
    if smoke() {
        // Smoke proves the harness runs end to end; timings are noise.
        return;
    }
    let json = serde_json::to_string(&report).expect("bench report serialises");
    std::fs::write(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json"),
        json,
    )
    .expect("write BENCH_serve.json at the repository root");
}
