//! Why a tuning run could not start or finish.

use pg_engine::EngineError;

/// Error of one tuning run.
#[derive(Debug, Clone, PartialEq)]
pub enum TuneError {
    /// The budget could not afford a single launch point, so the search
    /// evaluated nothing: either `max_generations` is zero, or
    /// `max_evaluations` is below the cost of one point (one prediction per
    /// admitted variant).
    NothingEvaluated {
        /// Cost of one launch point, in evaluations.
        point_cost: u64,
        /// The configured `max_evaluations`.
        max_evaluations: u64,
        /// The configured `max_generations`.
        max_generations: u64,
    },
    /// The engine could not build the space (unknown kernel, no applicable
    /// variant, empty budget, every variant a race) or every prediction at
    /// a grid point failed.
    Engine(EngineError),
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::NothingEvaluated {
                point_cost,
                max_evaluations,
                max_generations,
            } => {
                if *max_generations == 0 {
                    write!(f, "a generation budget of 0 cannot evaluate anything")
                } else {
                    write!(
                        f,
                        "budget of {max_evaluations} evaluations is below the {point_cost}-evaluation cost of a single launch point"
                    )
                }
            }
            TuneError::Engine(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Engine(error) => Some(error),
            _ => None,
        }
    }
}

impl From<EngineError> for TuneError {
    fn from(error: EngineError) -> Self {
        TuneError::Engine(error)
    }
}
