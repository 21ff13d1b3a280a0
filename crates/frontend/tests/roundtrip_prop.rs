//! Property test over the structured program generator: the
//! formatting-independence of downstream analysis inputs.
//!
//! This is the wide-range sampler of `fuzz_smoke.rs`'s reformat-twin check:
//! that harness walks the first seeds, each with one style; here proptest
//! draws program and style seeds from wide ranges. Both compare a program
//! with its `reformat` twin node for node, by `signature`.

use pg_frontend::parse;
use pg_frontend::testing::{reformat, signature, Generator, Rng as FuzzRng};
use proptest::prelude::*;

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
        prop_assert_eq!(
            signature(&ast1),
            signature(&ast2),
            "AST changed under reformatting (seed {}, style seed {})",
            seed,
            style_seed
        );
    }
}
