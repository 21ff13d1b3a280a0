//! Launch invariance of the GNN path's graphs: the engine's graph memo
//! builds an instance's graph from the AST of its launch-free body (the
//! source with its own launch clause cut out) and the instance's launch in
//! the builder config, and that graph must equal the one built from the
//! full source, in every representation. Covered: every instance of the
//! four platforms' Default-scale dataset plans, and every catalogue
//! kernel's candidates over each platform's `default_budget().densified(4)`
//! grid at default sizes.

use paragraph::advisor::KernelInstance;
use paragraph::core::{build, to_relational, BuilderConfig, Representation};
use paragraph::dataset::{DatasetScale, PipelineConfig, ShardPlan};
use paragraph::engine::{Engine, FrontendCache, LaunchBudget};
use paragraph::obs::TraceHandle;
use paragraph::perfsim::Platform;
use std::borrow::Cow;

/// Asserts that every instance spells its launch, so the memo parses its
/// body, and that the memo's graph equals the full-source graph.
fn assert_body_graphs_equal_source_graphs(instances: &[KernelInstance]) {
    assert!(!instances.is_empty());
    let cache = FrontendCache::new(4096);
    for instance in instances {
        assert!(
            matches!(instance.body_key().text(), Cow::Owned(_)),
            "{} does not spell its launch",
            instance.describe()
        );
        let source_ast = paragraph::frontend::parse(&instance.source).unwrap();
        for representation in Representation::ALL {
            let config = BuilderConfig::for_representation(representation)
                .with_launch(instance.launch.teams, instance.launch.threads);
            let from_body = cache.relational_graph(instance, representation).unwrap();
            assert!(
                *from_body == to_relational(&build(&source_ast, &config)),
                "{} ({representation:?}): the body's graph differs from the source's",
                instance.describe()
            );
        }
    }
}

#[test]
fn default_scale_plans_build_the_same_graph_from_the_body() {
    for platform in Platform::ALL {
        let config = PipelineConfig {
            scale: DatasetScale::Default,
            ..PipelineConfig::default()
        };
        let plan = ShardPlan::plan(platform, &config);
        let instances: Vec<KernelInstance> = plan
            .shards
            .into_iter()
            .flat_map(|shard| shard.instances)
            .collect();
        assert_body_graphs_equal_source_graphs(&instances);
    }
}

#[test]
fn densified_launch_grids_build_the_same_graph_from_the_body() {
    for platform in Platform::ALL {
        let engine = Engine::builder().platform(platform).build();
        let budget = LaunchBudget::Sweep(platform.default_budget().densified(4));
        let instances: Vec<KernelInstance> = paragraph::kernels::all_kernels()
            .into_iter()
            .flat_map(|kernel| {
                engine
                    .template_space(kernel, None, &budget, &TraceHandle::disabled())
                    .unwrap()
                    .instances()
            })
            .collect();
        assert_body_graphs_equal_source_graphs(&instances);
    }
}
