//! Integration tests running the frontend over a corpus of realistic OpenMP
//! kernels (beyond the unit-test snippets): parsing, symbol resolution and
//! loop analysis must all hold together.

use pg_frontend::analysis::{self, ConstEnv};
use pg_frontend::{parse, symbols, AstKind};

/// A small corpus of kernels in the style of the paper's benchmarks.
const CORPUS: &[(&str, &str)] = &[
    (
        "stencil2d",
        r#"
        void stencil(float *in, float *out) {
            #pragma omp target teams distribute parallel for collapse(2) num_teams(80) thread_limit(128) map(to: in[0:1048576]) map(from: out[0:1048576])
            for (int i = 1; i < 1023; i++) {
                for (int j = 1; j < 1023; j++) {
                    out[i * 1024 + j] = 0.2 * (in[i * 1024 + j] + in[(i - 1) * 1024 + j] + in[(i + 1) * 1024 + j] + in[i * 1024 + j - 1] + in[i * 1024 + j + 1]);
                }
            }
        }
        "#,
    ),
    (
        "reduction_style",
        r#"
        void dot(float *a, float *b, float *result) {
            float acc = 0.0;
            #pragma omp parallel for reduction(+: acc) num_threads(16)
            for (int i = 0; i < 65536; i++) {
                acc += a[i] * b[i];
            }
            result[0] = acc;
        }
        "#,
    ),
    (
        "branchy_kernel",
        r#"
        void clamp_scale(float *data, float lo, float hi) {
            #pragma omp parallel for
            for (int i = 0; i < 100000; i++) {
                float v = data[i];
                if (v < lo) {
                    data[i] = lo;
                } else {
                    if (v > hi) {
                        data[i] = hi;
                    } else {
                        data[i] = v * 1.5;
                    }
                }
            }
        }
        "#,
    ),
    (
        "triangular_loop",
        r#"
        void lower_triangle(float *m, float *v, float *out) {
            #pragma omp parallel for num_threads(8) schedule(static)
            for (int i = 0; i < 512; i++) {
                float acc = 0.0;
                for (int j = 0; j <= i; j++) {
                    acc += m[i * 512 + j] * v[j];
                }
                out[i] = acc;
            }
        }
        "#,
    ),
    (
        "multi_function_unit",
        r#"
        float scale(float x, float f) { return x * f; }
        void apply(float *data, float factor) {
            #pragma omp parallel for
            for (int i = 0; i < 4096; i++) {
                data[i] = scale(data[i], factor);
            }
        }
        "#,
    ),
    (
        "while_convergence",
        r#"
        void converge(float *x) {
            int iter = 0;
            float err = 1.0;
            while (err > 0.001) {
                err = 0.0;
                for (int i = 1; i < 1023; i++) {
                    float next = 0.5 * (x[i - 1] + x[i + 1]);
                    float d = next - x[i];
                    if (d < 0.0) { d = -d; }
                    if (d > err) { err = d; }
                    x[i] = next;
                }
                iter = iter + 1;
            }
        }
        "#,
    ),
];

#[test]
fn corpus_parses_and_validates() {
    for (name, src) in CORPUS {
        let ast = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        ast.validate()
            .unwrap_or_else(|e| panic!("{name}: invalid AST: {e}"));
        assert!(
            ast.len() > 20,
            "{name}: suspiciously small AST ({})",
            ast.len()
        );
    }
}

#[test]
fn corpus_symbols_resolve_except_library_calls() {
    for (name, src) in CORPUS {
        let ast = parse(src).unwrap();
        let table = symbols::resolve(&ast);
        // Every unresolved reference must be a call target (library function),
        // never a plain variable.
        for &unresolved in table.unresolved() {
            let ident = ast.node(unresolved).data.name.clone().unwrap_or_default();
            assert!(
                ["sqrt", "exp", "fabs", "pow", "log"].contains(&ident.as_str()),
                "{name}: unexpected unresolved identifier '{ident}'"
            );
        }
    }
}

#[test]
fn corpus_outer_parallel_loops_have_trip_counts() {
    let env = ConstEnv::new();
    for (name, src) in CORPUS {
        let ast = parse(src).unwrap();
        // Find the loop associated with the OpenMP directive (if any).
        let directive = ast
            .preorder()
            .into_iter()
            .find(|&id| ast.kind(id).is_omp_directive());
        let Some(d) = directive else { continue };
        let for_stmt = ast
            .preorder_from(d)
            .into_iter()
            .find(|&id| ast.kind(id) == AstKind::ForStmt)
            .unwrap_or_else(|| panic!("{name}: directive without a loop"));
        let trip = analysis::trip_count(&ast, for_stmt, &env);
        assert!(
            trip.is_some() && trip.unwrap() > 0,
            "{name}: outer parallel loop has no static trip count"
        );
    }
}

#[test]
fn corpus_work_estimates_are_positive_and_loop_aware() {
    let env = ConstEnv::new();
    for (name, src) in CORPUS {
        let ast = parse(src).unwrap();
        let work = analysis::estimate_work(&ast, ast.root(), &env);
        assert!(work.arithmetic_ops() > 0.0, "{name}: no arithmetic counted");
        assert!(work.memory_ops() > 0.0, "{name}: no memory traffic counted");
        assert!(work.iterations > 0.0, "{name}: no iterations counted");
        assert!(work.max_loop_depth >= 1, "{name}: loop depth not detected");
    }
}
