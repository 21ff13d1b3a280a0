//! Roundtrip pins on the layers a tuner mutates.
//!
//! `pg-tune` explores the variant × launch space by instantiating each
//! variant's source; if variant naming or the pragma an instance spells ever
//! drifted, the search would silently explore a different space than it
//! reports. Two pins:
//!
//! * `Variant::from_name(v.name()) == Some(v)` for every variant (and junk
//!   names stay rejected) — the names are the wire/report identity of a
//!   tuning result.
//! * Parsing an `instantiate`d source (the source the engine prices) and
//!   extracting its pragma reproduces the exact clause set the variant
//!   asked for, on every catalogue kernel × applicable variant × a sweep of
//!   launch configurations.

use pg_advisor::{instantiate, LaunchConfig, Variant};
use pg_frontend::omp::MapDirection;
use pg_kernels::{all_kernels, TransferDirection};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn variant_names_roundtrip(idx in 0usize..6, salt in 0u64..1_000_000) {
        let variant = Variant::ALL[idx];
        prop_assert_eq!(Variant::from_name(variant.name()), Some(variant));
        // Perturbed names never resolve: the name space is exact, not fuzzy.
        let junk = format!("{}_{salt}", variant.name());
        prop_assert_eq!(Variant::from_name(&junk), None);
        let upper = variant.name().to_ascii_uppercase();
        if upper != variant.name() {
            prop_assert_eq!(Variant::from_name(&upper), None);
        }
    }
}

/// Instantiate each variant, parse its source, and check the extracted
/// directive carries exactly the clauses the variant describes.
#[test]
fn instantiated_sources_carry_every_variant_clause_set() {
    let launches = [
        LaunchConfig {
            teams: 40,
            threads: 64,
        },
        LaunchConfig {
            teams: 160,
            threads: 256,
        },
        LaunchConfig {
            teams: 1,
            threads: 22,
        },
    ];
    for kernel in all_kernels() {
        let sizes = kernel.default_sizes();
        for variant in Variant::applicable_variants(&kernel) {
            for launch in launches {
                let source = instantiate(&kernel, variant, &sizes, launch).source;
                let ast = pg_frontend::parse(&source).unwrap_or_else(|e| {
                    panic!(
                        "{} {}: instantiated source must parse: {e}",
                        kernel.full_name(),
                        variant.name()
                    )
                });
                let directive_id = ast
                    .preorder()
                    .into_iter()
                    .find(|&id| ast.kind(id).is_omp_directive())
                    .unwrap_or_else(|| {
                        panic!(
                            "{} {}: instantiated source has no directive",
                            kernel.full_name(),
                            variant.name()
                        )
                    });
                let directive = ast
                    .node(directive_id)
                    .data
                    .omp
                    .as_ref()
                    .expect("directive nodes carry their parsed pragma");

                // Kind: GPU variants offload, CPU variants fork/join.
                assert_eq!(
                    directive.kind.is_target(),
                    variant.is_gpu(),
                    "{} {}",
                    kernel.full_name(),
                    variant.name()
                );
                // Collapse clause mirrors the variant.
                let expected_depth = if variant.collapses() { 2 } else { 1 };
                assert_eq!(directive.collapse_depth(), expected_depth);
                // Launch clauses survive with their exact values.
                if variant.is_gpu() {
                    assert_eq!(directive.num_teams(), Some(launch.teams));
                    assert_eq!(directive.thread_limit(), Some(launch.threads));
                    assert_eq!(directive.num_threads(), None);
                } else {
                    assert_eq!(directive.num_threads(), Some(launch.threads));
                    assert_eq!(directive.num_teams(), None);
                }
                // Data-transfer clauses: `_mem` variants map exactly the
                // kernel's arrays, in the right directions; others map
                // nothing.
                assert_eq!(directive.has_data_transfer(), variant.has_data_transfer());
                if variant.has_data_transfer() {
                    let mapped = directive.map_items();
                    assert_eq!(
                        mapped.len(),
                        kernel.arrays.len(),
                        "{} {}: every array must be mapped",
                        kernel.full_name(),
                        variant.name()
                    );
                    for array in kernel.arrays {
                        let expected_direction = match array.direction {
                            TransferDirection::ToDevice => MapDirection::To,
                            TransferDirection::FromDevice => MapDirection::From,
                            TransferDirection::Both => MapDirection::ToFrom,
                        };
                        assert!(
                            mapped.iter().any(|(direction, item)| {
                                *direction == expected_direction && item.starts_with(array.name)
                            }),
                            "{} {}: array `{}` lost its {:?} map clause in {mapped:?}",
                            kernel.full_name(),
                            variant.name(),
                            array.name,
                            expected_direction
                        );
                    }
                }
            }
        }
    }
}
