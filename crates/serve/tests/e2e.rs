//! End-to-end acceptance: a server on an ephemeral port, serving a GNN
//! bundle hot-loaded through the model registry, hammered by concurrent
//! clients — every response must match a direct `Engine::advise` call
//! bit-for-bit, and the scheduler must actually coalesce.

mod gate;

use pg_advisor::LaunchConfig;
use pg_engine::{AdviseReport, AdviseRequest, Engine};
use pg_gnn::{ModelRegistry, TrainConfig, TrainedModel};
use pg_perfsim::Platform;
use pg_serve::{BatchConfig, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PLATFORM: Platform = Platform::SummitV100;

/// POST one advise request over a fresh connection, returning (status,
/// body).
fn post_advise(addr: SocketAddr, json: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /advise HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{json}",
                json.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

#[test]
fn concurrent_gnn_serving_is_bit_identical_to_direct_advise_and_coalesces() {
    // Train a small bundle, publish it to a registry directory, and load
    // it back — the server consumes the *persisted* model, exactly like a
    // process started with `--model`.
    let dataset = pg_dataset::collect_platform(
        PLATFORM,
        &pg_dataset::PipelineConfig {
            scale: pg_dataset::DatasetScale::Fast,
            seed: 3,
            noise_sigma: 0.02,
        },
    );
    let (bundle, _) = TrainedModel::fit(&dataset, &TrainConfig::fast()).unwrap();
    let dir = std::env::temp_dir().join(format!("pg-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = ModelRegistry::at(&dir);
    registry.publish(&bundle, PLATFORM).unwrap();
    let loaded = registry.load_platform(PLATFORM).unwrap();
    // The gate holds the first served batch, so the other clients' requests
    // queue behind it and coalesce however the threads are scheduled.
    let (backend, gate) = gate::gated(loaded.into_backend());

    let engine = Arc::new(
        Engine::builder()
            .platform(PLATFORM)
            .backend(backend)
            .build(),
    );
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                queue_depth: 256,
            },
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // Eight distinct requests, cycled over 32 concurrent clients.
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
    let distinct: Vec<AdviseRequest> = [
        "MM/matmul",
        "MV/matvec",
        "Transpose/transpose",
        "KNN/distances",
    ]
    .iter()
    .flat_map(|kernel| {
        launches
            .iter()
            .map(|&launch| AdviseRequest::catalog(*kernel).with_launch(launch))
    })
    .collect();
    assert!(pg_kernels_exist(&distinct, &engine));
    gate.arm();

    let clients: Vec<_> = (0..32)
        .map(|i| {
            let request = distinct[i % distinct.len()].clone();
            let json = serde_json::to_string(&request).unwrap();
            std::thread::spawn(move || {
                let (status, body) = post_advise(addr, &json);
                (request, status, body)
            })
        })
        .collect();
    // Release once every client is admitted: the first batch is held, the
    // other 31 requests are in the server behind it.
    let deadline = Instant::now() + Duration::from_secs(60);
    while server.metrics().in_flight < 32 {
        assert!(Instant::now() < deadline, "clients never all admitted");
        std::thread::yield_now();
    }
    gate.wait_held();
    gate.release();

    let mut served = 0;
    for client in clients {
        let (request, status, body) = client.join().unwrap();
        assert_eq!(status, 200, "request {:?} failed: {body}", request.kernel);
        let response: AdviseReport = serde_json::from_str(&body).unwrap();
        let direct = engine.advise(&request).unwrap();
        // Bit-for-bit: the ranked predictions (f64 bit patterns included —
        // JSON uses the shortest round-trippable form) and every
        // provenance field. Timing and batch-scoped cache accounting are
        // wall-clock- and coalescing-dependent by design, so they are the
        // only fields excluded.
        assert_eq!(response.rankings, direct.rankings);
        assert_eq!(response.failures, direct.failures);
        assert_eq!(response.kernel, direct.kernel);
        assert_eq!(response.platform, direct.platform);
        assert_eq!(response.backend, "gnn");
        for (a, b) in response.rankings.iter().zip(&direct.rankings) {
            assert_eq!(a.predicted_ms.to_bits(), b.predicted_ms.to_bits());
        }
        served += 1;
    }
    assert_eq!(served, 32);

    let metrics = server.shutdown();
    assert_eq!(metrics.advise_ok, 32);
    assert_eq!(metrics.batched_requests, 32);
    assert!(
        metrics.coalesced_batches >= 1 && metrics.max_batch_size > 1,
        "scheduler never coalesced: {metrics:?}"
    );
    assert!(metrics.batches < 32, "every request ran in its own batch");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Guard against catalogue renames silently weakening the test.
fn pg_kernels_exist(requests: &[AdviseRequest], engine: &Engine) -> bool {
    requests.iter().all(|r| engine.advise(r).is_ok())
}

/// POST one tune request over a fresh connection, returning (status, body).
fn post_tune(addr: SocketAddr, json: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(
            format!(
                "POST /tune HTTP/1.1\r\nHost: e2e\r\nContent-Length: {}\r\n\
                 Connection: close\r\n\r\n{json}",
                json.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// The serve-tier tune contract: a tuned request over HTTP is bit-for-bit
/// the direct `Engine::tune` answer (wall time excluded — the only
/// wall-clock-dependent field), every strategy included, and `/metrics`
/// exposes a `tune_requests_total` counter that counts exactly the `/tune`
/// requests received.
#[test]
fn tune_over_http_is_bit_identical_to_direct_engine_tune_and_counted() {
    use pg_tune::{Budget, StrategySpec, TuneEngine, TuneReport, TuneRequest};

    let engine = Arc::new(Engine::builder().platform(PLATFORM).build());
    let server = Server::start(Arc::clone(&engine), pg_serve::ServeConfig::default()).unwrap();
    let addr = server.addr();

    let requests = [
        TuneRequest::catalog("MM/matmul").with_strategy(StrategySpec::Exhaustive),
        TuneRequest::catalog("Transpose/transpose").with_strategy(StrategySpec::Beam {
            width: 2,
            patience: 1,
        }),
        TuneRequest::catalog("KNN/distances")
            .with_strategy(StrategySpec::Hillclimb {
                seed: 99,
                restarts: 1,
            })
            .with_limits(Budget::evaluations(64)),
    ];
    for (posted, request) in requests.iter().enumerate() {
        let json = serde_json::to_string(request).unwrap();
        let (status, body) = post_tune(addr, &json);
        assert_eq!(status, 200, "{:?}: body {body}", request.strategy);
        let served: TuneReport = serde_json::from_str(&body).unwrap();
        let direct = engine.tune(request).unwrap();
        assert_eq!(served.best, direct.best);
        assert_eq!(
            served.best.predicted_ms.to_bits(),
            direct.best.predicted_ms.to_bits()
        );
        assert_eq!(served.trajectory, direct.trajectory);
        assert_eq!(served.space, direct.space);
        assert_eq!(served.stop, direct.stop);
        assert_eq!(served.generations, direct.generations);
        assert_eq!(served.strategy, direct.strategy);
        assert_eq!(served.backend, direct.backend);
        assert_eq!(served.platform, direct.platform);
        assert_eq!(served.kernel, direct.kernel);

        // The counter is on /metrics and counts exactly the posts so far.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut metrics_text = String::new();
        stream.read_to_string(&mut metrics_text).unwrap();
        let expected = format!("paragraph_serve_tune_requests_total {}", posted + 1);
        assert!(
            metrics_text.contains(&expected),
            "metrics missing `{expected}`:\n{metrics_text}"
        );
    }

    let metrics = server.shutdown();
    assert_eq!(metrics.tune_requests, requests.len() as u64);
    assert_eq!(metrics.tune_ok, requests.len() as u64);
    assert_eq!(metrics.tune_failed, 0);
    assert_eq!(metrics.in_flight, 0);
}

/// The legality gate over the wire: a known-racy raw source POSTed to
/// `/advise` still answers with ranked variants (raw sources are
/// diagnosed, never pruned), the response carries the race diagnostics,
/// and `/metrics` exports the per-rule counter.
#[test]
fn racy_raw_source_advise_reports_diagnostics_over_http() {
    let engine = Arc::new(Engine::builder().platform(PLATFORM).build());
    let server = Server::start(Arc::clone(&engine), ServeConfig::default()).unwrap();
    let addr = server.addr();

    let request = AdviseRequest::source(
        "e2e/scan",
        "void scan(float *a) {\n\
         #pragma omp parallel for\n\
         for (int i = 1; i < 65536; i++) { a[i] = a[i - 1]; }\n}",
    );
    let json = serde_json::to_string(&request).unwrap();
    let (status, body) = post_advise(addr, &json);
    assert_eq!(status, 200, "{body}");
    let report: AdviseReport = serde_json::from_str(&body).unwrap();
    assert!(!report.rankings.is_empty());
    assert!(report.race_pruned.is_empty());
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == "loop-carried-dependence"),
        "diagnostics missing the race: {:?}",
        report.diagnostics
    );

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: e2e\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut metrics_text = String::new();
    stream.read_to_string(&mut metrics_text).unwrap();
    let line = metrics_text
        .lines()
        .find(|l| {
            l.starts_with("paragraph_serve_analyze_rule_total{rule=\"loop-carried-dependence\"}")
        })
        .unwrap_or_else(|| panic!("metrics missing the rule counter:\n{metrics_text}"));
    let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(count >= 1, "rule counter never incremented: {line}");

    let snapshot = server.shutdown();
    // Raw sources are never pruned, so the pruned counter stays at zero
    // even though diagnostics were recorded.
    assert_eq!(snapshot.analyze_race_pruned, 0);
}

/// The event loop's connection ceiling: 256 concurrent keep-alive sockets
/// — far beyond the worker pool — each sending its request in interleaved
/// fragments (every connection's first half lands before any second half),
/// then a second request on the same connections. Under
/// thread-per-connection this took 256 threads; here it is a handful.
#[test]
fn many_keep_alive_connections_with_interleaved_partial_writes() {
    let engine = Arc::new(Engine::builder().platform(PLATFORM).build());
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    assert!(
        server.io_and_worker_threads() <= 8,
        "connection count must not buy threads"
    );
    let addr = server.addr();

    const CONNS: usize = 256;
    let request = b"GET /healthz HTTP/1.1\r\nHost: many\r\n\r\n";
    let split = request.len() / 2;
    let mut sockets: Vec<TcpStream> = (0..CONNS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();

    for round in 0..2 {
        // Interleaved partial writes: all first fragments, then all second
        // fragments — every connection is mid-request at once, which a
        // blocking parser would need a thread apiece to survive.
        for socket in &mut sockets {
            socket.write_all(&request[..split]).unwrap();
        }
        for socket in &mut sockets {
            socket.write_all(&request[split..]).unwrap();
        }
        for (i, socket) in sockets.iter_mut().enumerate() {
            let mut header = Vec::new();
            let mut byte = [0u8; 1];
            while !header.ends_with(b"\r\n\r\n") {
                socket.read_exact(&mut byte).unwrap();
                header.push(byte[0]);
            }
            let head = String::from_utf8(header).unwrap();
            assert!(
                head.starts_with("HTTP/1.1 200"),
                "conn {i} round {round}: {head}"
            );
            let length: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            let mut body = vec![0u8; length];
            socket.read_exact(&mut body).unwrap();
        }
    }

    let live = server.metrics();
    assert_eq!(live.open_connections, CONNS as u64);
    assert_eq!(live.connections_opened, CONNS as u64);
    assert_eq!(live.http_requests, 2 * CONNS as u64);
    assert_eq!(live.connections_shed, 0);

    // Drain with all 256 still open: idle connections close immediately.
    let metrics = server.shutdown();
    assert_eq!(metrics.open_connections, 0);
    assert_eq!(metrics.http_requests, 2 * CONNS as u64);
}

/// Slow-loris robustness: a stalled half-request is cut off by the
/// header-read timeout without occupying a worker, a byte-at-a-time client
/// that stays under the timeout is served normally, and neither blocks a
/// concurrent well-behaved client.
#[test]
fn slow_loris_is_timed_out_and_does_not_block_others() {
    let engine = Arc::new(Engine::builder().platform(PLATFORM).build());
    let server = Server::start(
        Arc::clone(&engine),
        ServeConfig {
            workers: 1, // a single worker: any handler stall would show
            header_read_timeout: Duration::from_millis(500),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let addr = server.addr();

    // The stall: half a request line, then silence.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled.write_all(b"GET /hea").unwrap();
    let stalled_since = std::time::Instant::now();

    // The dribble: a full request at one byte per write.
    let dribbler = std::thread::spawn(move || {
        let mut socket = TcpStream::connect(addr).unwrap();
        for &byte in b"GET /healthz HTTP/1.1\r\nHost: drib\r\nConnection: close\r\n\r\n" {
            socket.write_all(&[byte]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut response = String::new();
        socket.read_to_string(&mut response).unwrap();
        response
    });

    // A normal client is served while both misbehave.
    let (status, body) = post_advise(
        addr,
        &serde_json::to_string(&AdviseRequest::catalog("MM/matmul")).unwrap(),
    );
    assert_eq!(status, 200, "well-behaved client starved: {body}");

    let dribbled = dribbler.join().unwrap();
    assert!(
        dribbled.starts_with("HTTP/1.1 200"),
        "byte-at-a-time client not served: {dribbled}"
    );

    // The stalled connection is closed by the server (EOF, no response)
    // once the header-read timeout expires — not left hanging.
    let mut leftover = String::new();
    stalled.read_to_string(&mut leftover).unwrap();
    assert_eq!(leftover, "", "a half request must not be answered");
    let stalled_for = stalled_since.elapsed();
    assert!(
        stalled_for >= Duration::from_millis(400),
        "cut off before the timeout: {stalled_for:?}"
    );
    assert!(
        stalled_for < Duration::from_secs(5),
        "timeout never fired: {stalled_for:?}"
    );

    let metrics = server.shutdown();
    assert!(
        metrics.conn_timeouts >= 1,
        "timeout not accounted: {metrics:?}"
    );
    assert_eq!(metrics.advise_ok, 1);
    assert_eq!(metrics.http_requests, 2);
}
