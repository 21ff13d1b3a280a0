//! # pg-gnn
//!
//! The machine-learning half of the ParaGraph reproduction: a Relational
//! Graph Attention Network (RGAT) over the ParaGraph representation, the
//! full runtime-prediction model of the paper (three RGAT convolutions, a
//! side-feature embedding of the launch configuration, and a fully connected
//! head), the mini-batch Adam training loop and the evaluation metrics used
//! by the paper's tables and figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod batch;
pub mod bundle;
pub mod metrics;
pub mod model;
pub mod reference;
pub mod registry;
pub mod rgat;
pub mod train;

pub use backend::GnnBackend;
pub use batch::{BatchedGraph, PreparedGraph, PreparedRelation};
pub use bundle::TrainedModel;
pub use metrics::{binned_relative_error, per_application_error, per_variant_error, BinError};
pub use model::{ModelConfig, ParaGraphModel};
pub use registry::{
    load_bundle, save_bundle, BundleError, LoadedBundle, ModelRegistry, BUNDLE_FORMAT_VERSION,
};
pub use rgat::RgatLayer;
pub use train::{
    evaluate, prepare, summarize, train, train_prepared, EpochStats, PredictionRecord,
    PreparedDataset, SampleMeta, TrainConfig, TrainError, TrainedOutcome, TrainingHistory,
};
