//! Seeded, deterministic fuzz harness for the frontend's untrusted-input
//! boundary.
//!
//! Three properties are exercised, each over `PARAGRAPH_FUZZ_ITERS`
//! iterations (default 300 for local runs; CI's fuzz-smoke step runs 10k):
//!
//! 1. **Formatting independence** — every generated (valid-by-construction)
//!    program parses, and so does its `reformat` twin (same tokens, other
//!    whitespace and comments), to the same AST.
//! 2. **No panic** — every mutated program either parses or returns a typed
//!    [`FrontendError`]; the parser never panics, whatever the bytes.
//! 3. **Limits** — under a deliberately tight [`ParseOptions`] budget every
//!    rejection is a typed limit/syntax error, and nesting bombs
//!    specifically report `NestingTooDeep`.
//!
//! Failures print the seed (and the offending input), so any crash
//! reproduces with `PARAGRAPH_FUZZ_SEED=<seed>`-style pinning in a local
//! regression (see `regressions.rs` and `tests/corpus/`).

use pg_frontend::testing::{generate_program, mutate, nesting_bomb, reformat, Rng};
use pg_frontend::{
    parse, parse_with_options, Ast, AstKind, FrontendErrorKind, NodeId, ParseOptions,
};

fn fuzz_iters() -> u64 {
    std::env::var("PARAGRAPH_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300)
}

/// One signature entry: (kind, name, opcode, int value, float bits).
type NodeSignature = (
    AstKind,
    Option<String>,
    Option<String>,
    Option<i64>,
    Option<u64>,
);

/// Preorder structural signature of every node.
fn signature(ast: &Ast) -> Vec<NodeSignature> {
    let mut out = Vec::new();
    let mut stack: Vec<NodeId> = vec![ast.root()];
    while let Some(id) = stack.pop() {
        let node = ast.node(id);
        out.push((
            node.kind,
            node.data.name.clone(),
            node.data.opcode.clone(),
            node.data.int_value,
            node.data.float_value.map(f64::to_bits),
        ));
        // Push children reversed so the walk is preorder left-to-right.
        for &c in node.children.iter().rev() {
            stack.push(c);
        }
    }
    out
}

#[test]
fn fuzz_generated_programs_parse_like_their_reformat_twins() {
    let iters = fuzz_iters();
    for seed in 0..iters {
        let src = generate_program(seed);
        let ast1 = match parse(&src) {
            Ok(a) => a,
            Err(e) => panic!("seed {seed}: generated program failed to parse: {e}\n---\n{src}"),
        };
        let twin = reformat(&src, &mut Rng::new(seed.wrapping_mul(31)));
        let ast2 = match parse(&twin) {
            Ok(a) => a,
            Err(e) => panic!(
                "seed {seed}: reformat twin failed to parse: {e}\n--- original\n{src}\n--- twin\n{twin}"
            ),
        };
        assert_eq!(
            signature(&ast1),
            signature(&ast2),
            "seed {seed}: AST changed under reformatting\n--- original\n{src}\n--- twin\n{twin}"
        );
    }
}

#[test]
fn fuzz_mutated_programs_never_panic() {
    let iters = fuzz_iters();
    for seed in 0..iters {
        let src = generate_program(seed);
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9));
        let mut mutated = src;
        for round in 0..(1 + rng.below(3)) {
            mutated = mutate(&mutated, &mut rng);
            let input = mutated.clone();
            let outcome = std::panic::catch_unwind(move || {
                let _ = parse(&input);
            });
            if outcome.is_err() {
                panic!(
                    "seed {seed} round {round}: parser panicked on mutated input\n---\n{mutated}"
                );
            }
        }
    }
}

#[test]
fn fuzz_limits_enforced_under_tight_budget() {
    let iters = fuzz_iters();
    let tight = ParseOptions::default()
        .with_max_source_bytes(4096)
        .with_max_tokens(512)
        .with_max_nesting_depth(16)
        .with_max_ast_nodes(256);
    for seed in 0..iters {
        let src = generate_program(seed);
        // Any outcome is fine as long as errors are typed and no panic
        // escapes; limit errors must be flagged as such.
        match parse_with_options(&src, tight) {
            Ok(_) => {}
            Err(e) => {
                if e.is_limit() {
                    assert!(
                        !matches!(e.kind, FrontendErrorKind::Syntax),
                        "seed {seed}: is_limit error carries Syntax kind"
                    );
                }
            }
        }
    }
}

#[test]
fn fuzz_nesting_bombs_report_typed_error_at_any_depth() {
    let mut rng = Rng::new(7);
    for _ in 0..64 {
        let depth = 129 + rng.below(20_000);
        let err = parse(&nesting_bomb(depth)).unwrap_err();
        assert!(
            matches!(err.kind, FrontendErrorKind::NestingTooDeep { limit: 128 }),
            "depth {depth}: expected NestingTooDeep, got {:?}",
            err.kind
        );
    }
}
