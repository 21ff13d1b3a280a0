//! Golden acceptance suite for the legality gate: every shipped catalogue
//! kernel × variant must pass `pg_analyze` unchanged (Safe or
//! SafeWithClauses under the documented tolerances), hand-seeded race
//! mutants must be rejected with span-accurate diagnostics, and the
//! analyzer must stay panic-free and terminating on arbitrarily mutated
//! sources. This is the contract that lets the engine run the gate on by
//! default without perturbing a single ranking.

use pg_advisor::{instantiate, LaunchConfig, Variant};
use pg_analyze::{analyze_source, analyze_source_tolerant, catalogue_tolerances, Severity};
use pg_engine::{Engine, EngineError, LaunchBudget};
use pg_kernels::{all_kernels, find_kernel};
use pg_obs::TraceHandle;
use pg_perfsim::Platform;
use proptest::prelude::*;

/// The two catalogue kernels whose idioms the analysis cannot prove safe
/// and therefore tolerates (each documents the paper's own judgement call:
/// Gauss–Seidel sweeps are racy-by-construction relaxations, the particle
/// filter's resampling index is data-dependent).
const TOLERATED: [&str; 2] = ["Gauss Seidel/sweep", "ParticleFilter/move_particles"];

/// Every shipped variant of every catalogue kernel is admissible, warnings
/// appear only on the two tolerated kernels, and the verdict is invariant
/// under the launch configuration (legality never depends on num_teams /
/// thread_limit).
#[test]
fn golden_catalogue_sweep_every_variant_is_admissible() {
    let launches = [
        LaunchConfig {
            teams: 80,
            threads: 128,
        },
        LaunchConfig {
            teams: 8,
            threads: 32,
        },
    ];
    let mut swept = 0usize;
    for kernel in all_kernels() {
        let full_name = kernel.full_name();
        let tolerated = catalogue_tolerances(&full_name);
        let sizes = kernel.default_sizes();
        for variant in Variant::applicable_variants(&kernel) {
            let reports: Vec<_> = launches
                .iter()
                .map(|&launch| {
                    let instance = instantiate(&kernel, variant, &sizes, launch);
                    analyze_source_tolerant(&instance.source, tolerated)
                })
                .collect();
            for report in &reports {
                assert!(
                    report.verdict.is_admissible(),
                    "{full_name} [{}] failed the gate: {:?}",
                    variant.name(),
                    report.verdict
                );
                let warnings = report
                    .diagnostics
                    .iter()
                    .filter(|d| d.severity == Severity::Warning)
                    .count();
                if warnings > 0 {
                    assert!(
                        TOLERATED.contains(&full_name.as_str()),
                        "{full_name} [{}] warned outside the tolerance table: {:?}",
                        variant.name(),
                        report.diagnostics
                    );
                }
            }
            assert_eq!(
                reports[0].verdict,
                reports[1].verdict,
                "{full_name} [{}]: verdict changed with the launch config",
                variant.name()
            );
            swept += 1;
        }
    }
    // Both tolerated kernels actually exercise their tolerance.
    for name in TOLERATED {
        assert!(
            !catalogue_tolerances(name).is_empty(),
            "{name} lost its tolerance entry"
        );
    }
    assert!(swept >= 34, "catalogue shrank: only {swept} variants swept");
}

/// Seeded race mutants of clean catalogue kernels are rejected, and the
/// dependence diagnostic lands on the exact line of the seeded statement.
#[test]
fn seeded_race_mutants_are_rejected_with_span_accurate_diagnostics() {
    // Maps a kernel's instantiated (N, M) sizes to (original statement,
    // racy replacement).
    type SeedFn = fn(i64, i64) -> (String, String);
    let seeds: [(&str, SeedFn); 2] = [
        // matmul: the store reads the next parallel row of c.
        ("MM/matmul", |n, _m| {
            (
                "= sum;".to_string(),
                format!("= sum + c[(i + 1) * {n} + j];"),
            )
        }),
        // matvec: the store reads the previous parallel row of y.
        ("MV/matvec", |_n, _m| {
            (
                "y[i] = sum;".to_string(),
                "y[i] = sum + y[i - 1];".to_string(),
            )
        }),
    ];
    for (name, seed) in seeds {
        let kernel = find_kernel(name).unwrap();
        let sizes = kernel.default_sizes();
        let (n, m) = (
            sizes.get("N").copied().unwrap_or(0),
            sizes.get("M").copied().unwrap_or(0),
        );
        let (needle, replacement) = seed(n, m);
        for variant in Variant::applicable_variants(&kernel) {
            let instance = instantiate(
                &kernel,
                variant,
                &sizes,
                LaunchConfig {
                    teams: 80,
                    threads: 128,
                },
            );
            assert!(
                instance.source.contains(&needle),
                "{name}: seed needle `{needle}` not found — template drifted"
            );
            let mutated = instance.source.replace(&needle, &replacement);
            let report = analyze_source_tolerant(&mutated, catalogue_tolerances(name));
            assert!(
                report.verdict.is_race(),
                "{name} [{}] mutant passed the gate: {:?}",
                variant.name(),
                report.diagnostics
            );
            // Span accuracy: the diagnostic points at the seeded line.
            let seeded_line = 1 + mutated
                .lines()
                .position(|l| l.contains(replacement.as_str()))
                .expect("seeded statement present");
            let dep = report
                .errors()
                .find(|d| d.rule == "loop-carried-dependence")
                .expect("dependence diagnostic");
            assert_eq!(
                dep.span.map(|s| s.line),
                Some(seeded_line as u32),
                "{name} [{}]: diagnostic span off target",
                variant.name()
            );
        }
    }
}

/// The same mutant at the search-space level: the engine refuses to build
/// the candidate space that `advise` and `pg_tune` share when every variant
/// is a provable race, naming the rule.
#[test]
fn race_mutant_template_cannot_enter_the_search_space() {
    let mut mutant = find_kernel("MV/matvec").unwrap();
    mutant.source = Box::leak(
        mutant
            .source
            .replace("y[i] = sum;", "y[i] = sum + y[i - 1];")
            .into_boxed_str(),
    );
    for platform in [Platform::SummitV100, Platform::SummitPower9] {
        let err = Engine::builder()
            .platform(platform)
            .build()
            .template_space(
                mutant,
                None,
                &LaunchBudget::PlatformDefault,
                &TraceHandle::disabled(),
            )
            .unwrap_err();
        match err {
            EngineError::AllVariantsRace { kernel, reason } => {
                assert_eq!(kernel, "MV/matvec");
                assert!(reason.contains("loop-carried-dependence"), "{reason}");
            }
            other => panic!("expected AllVariantsRace on {platform:?}, got {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The analyzer is total: on truncated, junk-spliced catalogue sources
    /// it terminates without panicking and returns a bounded diagnostic
    /// stream. (Garbage in, conservative verdict out — never a crash.)
    #[test]
    fn analyzer_is_panic_free_and_terminating_on_mutated_sources(
        kernel_idx in 0usize..17,
        variant_idx in 0usize..4,
        cut in 0usize..8192,
        junk_pick in 0usize..6,
        junk_pos in 0usize..8192,
    ) {
        let kernels = all_kernels();
        let kernel = &kernels[kernel_idx % kernels.len()];
        let variants = Variant::applicable_variants(kernel);
        let variant = variants[variant_idx % variants.len()];
        let instance = instantiate(
            kernel,
            variant,
            &kernel.default_sizes(),
            LaunchConfig { teams: 80, threads: 128 },
        );
        let mut source = instance.source;
        let mut cut = cut % (source.len() + 1);
        while !source.is_char_boundary(cut) {
            cut -= 1;
        }
        source.truncate(cut);
        let junk = [
            "#pragma omp ",
            "[i + 1]",
            "}}{{",
            "for (int q = 0; ",
            "+= a[i * j];",
            "\u{0}\u{7f}",
        ][junk_pick];
        let mut pos = junk_pos % (source.len() + 1);
        while !source.is_char_boundary(pos) {
            pos -= 1;
        }
        source.insert_str(pos, junk);
        let report = analyze_source(&source);
        prop_assert!(report.diagnostics.len() < 10_000);
    }
}
