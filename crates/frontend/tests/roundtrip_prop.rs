//! Property test over the structured program generator: the
//! formatting-independence of downstream analysis inputs.
//!
//! This complements `fuzz_smoke.rs`, whose harness compares each generated
//! program with its `reformat` twin node for node over the first seeds;
//! here proptest draws program and style seeds from wide ranges and
//! compares the counts of the node kinds the analyses read.

use pg_frontend::testing::{reformat, Generator, Rng as FuzzRng};
use pg_frontend::{parse, AstKind};
use proptest::prelude::*;

const STRUCTURAL_KINDS: [AstKind; 10] = [
    AstKind::FunctionDecl,
    AstKind::VarDecl,
    AstKind::ForStmt,
    AstKind::WhileStmt,
    AstKind::IfStmt,
    AstKind::BinaryOperator,
    AstKind::CompoundAssignOperator,
    AstKind::ConditionalOperator,
    AstKind::ArraySubscriptExpr,
    AstKind::OmpParallelForDirective,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn reformatting_never_changes_the_parsed_structure(
        seed in 0u64..1_000_000u64,
        style_seed in 0u64..1_000u64,
    ) {
        let src = Generator::new(seed).program();
        let mut style = FuzzRng::new(style_seed);
        let twin = reformat(&src, &mut style);
        let ast1 = parse(&src).expect("original parses");
        let ast2 = parse(&twin).expect("whitespace/comment twin parses");
        for kind in STRUCTURAL_KINDS {
            prop_assert_eq!(
                ast1.find_all(kind).len(),
                ast2.find_all(kind).len(),
                "count of {:?} changed under reformatting (seed {})",
                kind,
                seed
            );
        }
    }
}
