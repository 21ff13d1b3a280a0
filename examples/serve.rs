//! The ParaGraph advisor as a service.
//!
//! Starts the `pg-serve` HTTP tier over an engine and serves `POST
//! /advise`, `GET /healthz` and `GET /metrics` until SIGTERM/SIGINT, then
//! drains gracefully (admitted requests finish, the batcher flushes, all
//! threads join) and exits 0.
//!
//! ```text
//! cargo run --release --example serve                        # simulator backend
//! cargo run --release --example serve -- --addr 127.0.0.1:8970
//! cargo run --release --example serve -- --platform summit-v100 \
//!     --model target/models/summit-v100-<hash>.bundle.json    # hot-load a GNN bundle
//! cargo run --release --example serve -- --train-fast         # train a small GNN in-process
//! cargo run --release --example serve -- --workers 8 --max-batch 512 \
//!     --max-connections 16384                                 # event-loop sizing
//! ```
//!
//! A round trip:
//!
//! ```text
//! curl -s -X POST http://127.0.0.1:8970/advise \
//!   -d '{"kernel":{"Catalog":"MM/matmul"},"sizes":null,"budget":"PlatformDefault"}'
//! ```
//!
//! `PARAGRAPH_SERVE_MAX_SECONDS=<n>` bounds the lifetime (the CI smoke
//! step sets it so a wedged server cannot hang the pipeline; SIGTERM is
//! still the ordinary exit path).

use paragraph::engine::Engine;
use paragraph::gnn;
use paragraph::perfsim::Platform;
use paragraph::serve::{install_termination_handler, termination_requested, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let platform = match flag_value(&args, "--platform") {
        None => Platform::SummitV100,
        Some(slug) => Platform::from_slug(&slug).unwrap_or_else(|| {
            paragraph::obs::error!(
                "unknown platform",
                slug = slug,
                known = Platform::ALL.map(|p| p.slug()).join(", ")
            );
            std::process::exit(2);
        }),
    };

    let mut builder = Engine::builder().platform(platform);
    if let Some(path) = flag_value(&args, "--model") {
        let loaded = match gnn::load_bundle(std::path::Path::new(&path)) {
            Ok(loaded) => loaded,
            Err(error) => {
                paragraph::obs::error!("loading model bundle failed", path = path, error = error);
                std::process::exit(2);
            }
        };
        if loaded.trained_on != platform {
            paragraph::obs::error!(
                "bundle/platform mismatch",
                trained_on = loaded.trained_on.name(),
                platform = platform.name()
            );
            std::process::exit(2);
        }
        println!("loaded GNN bundle {} ({path})", loaded.fingerprint);
        builder = builder.backend(loaded.into_backend());
    } else if args.iter().any(|a| a == "--train-fast") {
        println!(
            "training a fast-scale GNN bundle for {}...",
            platform.name()
        );
        let dataset = paragraph::dataset::collect_platform(
            platform,
            &paragraph::dataset::PipelineConfig {
                scale: paragraph::dataset::DatasetScale::Fast,
                ..Default::default()
            },
        );
        let (bundle, _) = gnn::TrainedModel::fit(&dataset, &gnn::TrainConfig::fast())
            .expect("fast training succeeds");
        builder = builder.backend(gnn::GnnBackend::new(bundle, platform));
    }
    let engine = Arc::new(builder.build());

    let parsed_flag = |name: &str| -> Option<u64> {
        flag_value(&args, name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                paragraph::obs::error!("flag expects a number", flag = name, got = v);
                std::process::exit(2);
            })
        })
    };
    let mut config = ServeConfig {
        addr: flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:8970".to_string()),
        ..ServeConfig::default()
    };
    if let Some(workers) = parsed_flag("--workers") {
        config.workers = workers.max(1) as usize;
    }
    if let Some(max_batch) = parsed_flag("--max-batch") {
        config.batch.max_batch = max_batch.max(1) as usize;
        config.batch.queue_depth = config.batch.queue_depth.max(config.batch.max_batch * 4);
    }
    if let Some(max_connections) = parsed_flag("--max-connections") {
        config.max_connections = max_connections.max(1) as usize;
    }
    install_termination_handler();
    let backend_name = engine.backend_name().to_string();
    let server = match Server::start(engine, config) {
        Ok(server) => server,
        Err(error) => {
            paragraph::obs::error!("binding listener failed", error = error);
            std::process::exit(1);
        }
    };
    println!(
        "pg-serve listening on http://{} ({backend_name} backend, {})",
        server.addr(),
        platform.name()
    );

    let max_lifetime = std::env::var("PARAGRAPH_SERVE_MAX_SECONDS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map(Duration::from_secs);
    let started = Instant::now();
    loop {
        if termination_requested() {
            paragraph::obs::info!("signal received, draining");
            break;
        }
        if max_lifetime.is_some_and(|limit| started.elapsed() >= limit) {
            paragraph::obs::info!("PARAGRAPH_SERVE_MAX_SECONDS reached, draining");
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    let metrics = server.shutdown();
    println!(
        "drained cleanly: {} requests ({} advise ok, {} rejected, {} failed), \
         {} batches ({} coalesced, largest {})",
        metrics.http_requests,
        metrics.advise_ok,
        metrics.advise_rejected,
        metrics.advise_failed,
        metrics.batches,
        metrics.coalesced_batches,
        metrics.max_batch_size,
    );
}
