//! The COMPOFF MLP as a `pg-engine` backend.
//!
//! Lives here (not in `pg-engine`) so the engine facade stays below every
//! model crate in the dependency graph — see `pg_gnn::backend` for the
//! full rationale.

use crate::CompoffModel;
use pg_advisor::KernelInstance;
use pg_engine::{EngineError, PredictionContext, RuntimePredictor};
use rayon::prelude::*;

/// The COMPOFF MLP baseline as a backend. GPU-only, as in the paper.
pub struct CompoffBackend {
    model: CompoffModel,
}

impl CompoffBackend {
    /// Serve predictions from a trained COMPOFF model.
    pub fn new(model: CompoffModel) -> Self {
        Self { model }
    }

    /// The underlying cost model.
    pub fn model(&self) -> &CompoffModel {
        &self.model
    }
}

impl RuntimePredictor for CompoffBackend {
    fn name(&self) -> &str {
        "compoff"
    }

    /// Candidates fanned out across the pool, each from its cached AST.
    fn predict_batch(
        &self,
        ctx: &PredictionContext<'_>,
        instances: &[KernelInstance],
    ) -> Vec<Result<f64, EngineError>> {
        if !ctx.platform().is_gpu() {
            let err = EngineError::BackendUnavailable(format!(
                "COMPOFF models GPU offloading only (paper Section V-D); engine serves {}",
                ctx.platform().name()
            ));
            return instances.iter().map(|_| Err(err.clone())).collect();
        }
        instances
            .par_iter()
            .map(|instance| {
                let ast = ctx.ast(&instance.source)?;
                Ok(f64::from(self.model.predict_ast(
                    &ast,
                    instance.launch.teams,
                    instance.launch.threads,
                )))
            })
            .collect()
    }
}
