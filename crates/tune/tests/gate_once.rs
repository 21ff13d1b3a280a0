//! The legality gate runs once per variant of a tuning run, not once per
//! grid point: the space is gated when the engine builds it, and the
//! evaluator only prices instances of it.
//!
//! This file holds one test because it reads pg-obs's process-wide stage
//! histograms, which any other test in the same binary could move.

use pg_engine::Engine;
use pg_obs::{obs, Stage};
use pg_perfsim::Platform;
use pg_tune::{StrategySpec, TuneEngine, TuneRequest};

fn analyze_count() -> u64 {
    obs()
        .stage_snapshot()
        .into_iter()
        .find(|(stage, _)| *stage == Stage::Analyze)
        .map_or(0, |(_, histogram)| histogram.count)
}

#[test]
fn exhaustive_tuning_analyses_each_admitted_variant_once() {
    obs().set_enabled(true);
    let engine = Engine::builder().platform(Platform::SummitV100).build();
    let request = TuneRequest::catalog("MM/matmul")
        .with_budget(Platform::SummitV100.default_budget().densified(4))
        .with_strategy(StrategySpec::Exhaustive);
    let before = analyze_count();
    let report = engine.tune(&request).unwrap();
    let analyses = analyze_count() - before;
    assert_eq!(report.space.variants, 4);
    assert_eq!(report.space.evaluated, 324);
    assert_eq!(analyses, report.space.variants);
}
