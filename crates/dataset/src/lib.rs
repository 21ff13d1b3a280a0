//! # pg-dataset
//!
//! End-to-end dataset pipeline of the ParaGraph paper (Figure 3): the six
//! kernel variants of every Table I kernel are generated by `pg-advisor`,
//! their runtimes are "measured" by the `pg-perfsim` accelerator simulator,
//! and the result is a labelled per-platform dataset with the paper's 9:1
//! train/validation split and Table II statistics.
//!
//! Dataset size is controlled by [`DatasetScale`] (`PARAGRAPH_FAST=1` /
//! `PARAGRAPH_FULL_DATASET=1` in the experiment harness).
//!
//! Generation is sharded and resumable: work is partitioned into
//! deterministic per-kernel [shards](shard) measured through a shared
//! [`pg_engine::Engine`], and completed shards persist in the
//! content-addressed [store] under `target/paragraph-cache/shards`,
//! so interrupted or repeated runs resume instead of recompute. See
//! [`pipeline::generate_platform`] for the run summary (shard-store hits,
//! frontend-cache activity) and `DESIGN.md` § "Dataset generation".

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datapoint;
pub mod pipeline;
pub mod shard;
pub mod stats;
pub mod store;

pub use datapoint::DataPoint;
pub use pipeline::{
    collect_platform, collect_platform_unsharded, generate_all, generate_platform, instances_for,
    merge_shard_points, DatasetScale, GenerationOutcome, GenerationSummary, PipelineConfig,
    PlatformDataset,
};
pub use shard::{Shard, ShardKey, ShardLabel, ShardPlan};
pub use stats::PlatformStats;
pub use store::ShardStore;
