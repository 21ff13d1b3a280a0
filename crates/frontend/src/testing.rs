//! Structured C/OpenMP program generator and mutators for fuzzing.
//!
//! This module is the input side of the frontend's untrusted-input test
//! story: [`Generator`] produces programs that are valid by construction
//! (so formatting-independence and differential properties can be
//! asserted), and [`mutate`] corrupts them — byte flips, truncation, token
//! splicing, OpenMP directive scrambling, deep-nesting bombs — so the parser's
//! "typed error, never a panic" contract can be exercised over the whole
//! input space. Everything is driven by a deterministic [`Rng`], so a fuzz
//! failure reproduces from its reported seed alone.
//!
//! The module lives in the library (not a dev-crate) so that downstream
//! crates — `pg-analyze`'s differential tests, `pg-serve`'s parse-bomb
//! tests, the ingest benchmarks — can reuse the same generator without a
//! new dependency edge.

use crate::ast::{Ast, AstKind, NodeId};
use std::fmt::Write as _;

/// Deterministic xorshift64* PRNG.
///
/// Not cryptographic; chosen because it is a handful of lines, has no
/// dependencies, and makes every fuzz case reproducible from a `u64` seed.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed (any value, including 0, is fine).
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform value in `0..n` (`n == 0` returns 0).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            (self.next_u64() % n as u64) as usize
        }
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u32, den: u32) -> bool {
        den != 0 && (self.next_u64() % den as u64) < num as u64
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Size knobs for the program generator.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Number of function definitions per program (at least 1).
    pub max_functions: usize,
    /// Statements per block.
    pub max_stmts_per_block: usize,
    /// Maximum block/statement nesting depth.
    pub max_block_depth: usize,
    /// Maximum expression nesting depth.
    pub max_expr_depth: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        Self {
            max_functions: 3,
            max_stmts_per_block: 5,
            max_block_depth: 4,
            max_expr_depth: 4,
        }
    }
}

/// Valid-by-construction C/OpenMP program generator.
///
/// The output uses exactly the constructs the parser supports (the paper's
/// benchmark subset): functions with scalar/pointer parameters, `for` /
/// `while` / `if` statements, OpenMP pragmas attached to loops, and the
/// usual expression grammar. Avoids string/char literals, which
/// [`reformat`] would re-space, so every program's reformat twin has the
/// same tokens and the fuzz harness can compare their ASTs node for node.
pub struct Generator {
    rng: Rng,
    config: GenConfig,
    fresh: usize,
    scalars: Vec<String>,
    arrays: Vec<String>,
}

impl Generator {
    /// Create a generator with the given seed and default size knobs.
    pub fn new(seed: u64) -> Self {
        Self::with_config(seed, GenConfig::default())
    }

    /// Create a generator with explicit size knobs.
    pub fn with_config(seed: u64, config: GenConfig) -> Self {
        Self {
            rng: Rng::new(seed),
            config,
            fresh: 0,
            scalars: Vec::new(),
            arrays: Vec::new(),
        }
    }

    fn fresh_name(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    /// Generate one complete translation unit.
    pub fn program(&mut self) -> String {
        self.scalars.clear();
        self.arrays.clear();
        let mut out = String::new();
        if self.rng.chance(1, 2) {
            let _ = writeln!(out, "#define N {}", 64 << self.rng.below(5));
        }
        if self.rng.chance(1, 3) {
            let g = self.fresh_name("g");
            let _ = writeln!(out, "int {g} = {};", self.rng.below(1000));
            self.scalars.push(g);
        }
        let nfuncs = 1 + self.rng.below(self.config.max_functions);
        for f in 0..nfuncs {
            self.emit_function(&mut out, f);
        }
        out
    }

    fn emit_function(&mut self, out: &mut String, index: usize) {
        // Globals stay in scope; function locals are reset per function.
        let globals = self.scalars.clone();
        self.scalars = globals.clone();
        self.arrays.clear();

        let a = self.fresh_name("a");
        let b = self.fresh_name("b");
        let n = self.fresh_name("n");
        let _ = write!(out, "void kernel{index}(float *{a}, float *{b}, int {n}) ");
        self.arrays.push(a);
        self.arrays.push(b);
        self.scalars.push(n);
        self.emit_block(out, 0);
        out.push('\n');
        self.scalars = globals;
    }

    fn emit_block(&mut self, out: &mut String, depth: usize) {
        out.push_str("{\n");
        let scalars_mark = self.scalars.len();
        let nstmts = 1 + self.rng.below(self.config.max_stmts_per_block);
        for _ in 0..nstmts {
            self.emit_statement(out, depth);
        }
        out.push_str("}\n");
        self.scalars.truncate(scalars_mark);
    }

    fn emit_statement(&mut self, out: &mut String, depth: usize) {
        let at_limit = depth + 1 >= self.config.max_block_depth;
        match self.rng.below(if at_limit { 3 } else { 6 }) {
            0 => {
                // Declaration with initialiser.
                let ty = *self.rng.pick(&["int", "float", "double", "long"]);
                let name = self.fresh_name("v");
                let init = self.expr(0);
                let _ = writeln!(out, "{ty} {name} = {init};");
                self.scalars.push(name);
            }
            1 => {
                // Assignment (scalar or array element).
                let lhs = self.lvalue();
                let op = *self.rng.pick(&["=", "+=", "-=", "*="]);
                let rhs = self.expr(0);
                let _ = writeln!(out, "{lhs} {op} {rhs};");
            }
            2 => {
                // Null statement / postfix increment.
                if self.scalars.is_empty() || self.rng.chance(1, 4) {
                    out.push_str(";\n");
                } else {
                    let v = self.rng.pick(&self.scalars).clone();
                    let _ = writeln!(out, "{v}++;");
                }
            }
            3 => self.emit_for(out, depth),
            4 => {
                let cond = self.expr(0);
                let _ = write!(out, "if ({cond}) ");
                self.emit_block(out, depth + 1);
                if self.rng.chance(1, 2) {
                    out.push_str("else ");
                    self.emit_block(out, depth + 1);
                }
            }
            _ => {
                let bound = self.rng.below(8);
                let v = self.fresh_name("w");
                let _ = writeln!(out, "int {v} = 0;");
                let _ = write!(out, "while ({v} < {bound}) ");
                self.scalars.push(v.clone());
                let mark = self.scalars.len();
                out.push_str("{\n");
                let _ = writeln!(out, "{v} = {v} + 1;");
                self.emit_statement(out, depth + 1);
                out.push_str("}\n");
                self.scalars.truncate(mark);
            }
        }
    }

    fn emit_for(&mut self, out: &mut String, depth: usize) {
        if self.rng.chance(1, 2) {
            out.push_str(self.pragma().as_str());
            out.push('\n');
        }
        let i = self.fresh_name("i");
        let bound = match self.rng.below(3) {
            0 => format!("{}", 1 + self.rng.below(4096)),
            1 if !self.scalars.is_empty() => self.rng.pick(&self.scalars).clone(),
            _ => "100".to_string(),
        };
        let _ = write!(out, "for (int {i} = 0; {i} < {bound}; {i}++) ");
        self.scalars.push(i);
        self.emit_block(out, depth + 1);
        self.scalars.pop();
    }

    fn pragma(&mut self) -> String {
        let mut p = String::from("#pragma omp ");
        const FORMS: [&str; 4] = [
            "parallel for",
            "parallel for simd",
            "simd",
            "target teams distribute parallel for",
        ];
        let form = *self.rng.pick(&FORMS);
        p.push_str(form);
        if self.rng.chance(1, 2) {
            match self.rng.below(4) {
                0 => p.push_str(" schedule(static)"),
                1 => p.push_str(" schedule(dynamic, 64)"),
                2 => {
                    if let Some(v) = self.scalars.last() {
                        let _ = write!(p, " private({v})");
                    }
                }
                _ => p.push_str(" collapse(2)"),
            }
        }
        if self.rng.chance(1, 4) {
            if let Some(v) = self.scalars.first() {
                let _ = write!(p, " reduction(+:{v})");
            }
        }
        p
    }

    fn lvalue(&mut self) -> String {
        if !self.arrays.is_empty() && self.rng.chance(1, 2) {
            let a = self.rng.pick(&self.arrays).clone();
            let idx = self.expr(self.config.max_expr_depth.saturating_sub(1));
            format!("{a}[{idx}]")
        } else if let Some(v) = self.scalars.last() {
            v.clone()
        } else {
            let name = self.fresh_name("v");
            // No scalar in scope: fall back to a literal-free declaration-
            // style target is impossible mid-expression, so synthesise a
            // self-assigned fresh name — still valid C once declared below.
            self.scalars.push(name.clone());
            name
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth >= self.config.max_expr_depth {
            return self.atom();
        }
        match self.rng.below(8) {
            0..=2 => self.atom(),
            3 => {
                let op = *self
                    .rng
                    .pick(&["+", "-", "*", "/", "%", "<", ">", "==", "&&"]);
                format!("{} {op} {}", self.expr(depth + 1), self.expr(depth + 1))
            }
            4 => format!("({})", self.expr(depth + 1)),
            5 => {
                let op = *self.rng.pick(&["-", "!", "~"]);
                format!("{op}{}", self.expr(depth + 1))
            }
            6 if !self.arrays.is_empty() => {
                let a = self.rng.pick(&self.arrays).clone();
                format!("{a}[{}]", self.expr(depth + 1))
            }
            _ => format!(
                "{} ? {} : {}",
                self.expr(depth + 1),
                self.expr(depth + 1),
                self.expr(depth + 1)
            ),
        }
    }

    fn atom(&mut self) -> String {
        match self.rng.below(4) {
            0 if !self.scalars.is_empty() => self.rng.pick(&self.scalars).clone(),
            1 => format!("{}.{}", self.rng.below(100), self.rng.below(10)),
            _ => format!("{}", self.rng.below(10_000)),
        }
    }
}

/// Generate one program with default knobs — the common fuzz entry point.
pub fn generate_program(seed: u64) -> String {
    Generator::new(seed).program()
}

/// The mutation strategies applied by [`mutate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Flip random bits in random bytes (output re-validated as UTF-8
    /// lossily, so the parser also sees replacement characters).
    ByteFlip,
    /// Cut the input at a random char boundary.
    Truncate,
    /// Swap / duplicate / delete rough token spans within a line, and
    /// occasionally whole lines.
    TokenSplice,
    /// Corrupt `#pragma` lines specifically.
    DirectiveScramble,
    /// Append a parenthesis/brace bomb far beyond any sane nesting depth.
    DeepNesting,
}

/// All mutation strategies, for iteration in harnesses.
pub const ALL_MUTATIONS: [Mutation; 5] = [
    Mutation::ByteFlip,
    Mutation::Truncate,
    Mutation::TokenSplice,
    Mutation::DirectiveScramble,
    Mutation::DeepNesting,
];

/// Apply one randomly-chosen mutation.
pub fn mutate(source: &str, rng: &mut Rng) -> String {
    let m = *rng.pick(&ALL_MUTATIONS);
    mutate_with(source, m, rng)
}

/// Apply a specific mutation strategy.
pub fn mutate_with(source: &str, mutation: Mutation, rng: &mut Rng) -> String {
    match mutation {
        Mutation::ByteFlip => byte_flip(source, rng),
        Mutation::Truncate => truncate(source, rng),
        Mutation::TokenSplice => token_splice(source, rng),
        Mutation::DirectiveScramble => directive_scramble(source, rng),
        Mutation::DeepNesting => format!("{source}\n{}", nesting_bomb(64 + rng.below(4096))),
    }
}

fn byte_flip(source: &str, rng: &mut Rng) -> String {
    if source.is_empty() {
        return String::new();
    }
    let mut bytes = source.as_bytes().to_vec();
    let flips = 1 + rng.below(8);
    for _ in 0..flips {
        let pos = rng.below(bytes.len());
        bytes[pos] ^= 1 << rng.below(8);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn truncate(source: &str, rng: &mut Rng) -> String {
    if source.is_empty() {
        return String::new();
    }
    let mut cut = rng.below(source.len());
    while cut > 0 && !source.is_char_boundary(cut) {
        cut -= 1;
    }
    source[..cut].to_string()
}

/// Split a line into rough lexical tokens: identifier/number runs, single
/// punctuation characters. Whitespace separates but is not kept.
fn rough_tokens(line: &str) -> Vec<String> {
    let mut toks = Vec::new();
    let mut current = String::new();
    for c in line.chars() {
        if c.is_alphanumeric() || c == '_' || c == '.' {
            current.push(c);
        } else {
            if !current.is_empty() {
                toks.push(std::mem::take(&mut current));
            }
            if !c.is_whitespace() {
                toks.push(c.to_string());
            }
        }
    }
    if !current.is_empty() {
        toks.push(current);
    }
    toks
}

fn token_splice(source: &str, rng: &mut Rng) -> String {
    let mut lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
    if lines.is_empty() {
        return source.to_string();
    }
    match rng.below(4) {
        0 if lines.len() >= 2 => {
            // Swap two whole lines.
            let a = rng.below(lines.len());
            let b = rng.below(lines.len());
            lines.swap(a, b);
        }
        1 => {
            // Duplicate a line.
            let a = rng.below(lines.len());
            let line = lines[a].clone();
            lines.insert(a, line);
        }
        2 => {
            // Delete a line.
            let a = rng.below(lines.len());
            lines.remove(a);
        }
        _ => {
            // Splice tokens within one line.
            let a = rng.below(lines.len());
            let mut toks = rough_tokens(&lines[a]);
            if toks.len() >= 2 {
                match rng.below(3) {
                    0 => {
                        let i = rng.below(toks.len());
                        let j = rng.below(toks.len());
                        toks.swap(i, j);
                    }
                    1 => {
                        let i = rng.below(toks.len());
                        let t = toks[i].clone();
                        toks.insert(rng.below(toks.len()), t);
                    }
                    _ => {
                        let i = rng.below(toks.len());
                        toks.remove(i);
                    }
                }
                lines[a] = toks.join(" ");
            }
        }
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

fn directive_scramble(source: &str, rng: &mut Rng) -> String {
    const GARBAGE: [&str; 8] = [
        "#pragma omp",
        "#pragma omp parallel for collapse(-1)",
        "#pragma omp parallel for schedule(",
        "#pragma omp target data map(",
        "#pragma omp simd simd simd",
        "#pragma omp parallel for reduction(:)",
        "#pragma omp \u{fffd}\u{fffd}",
        "#pragma not_omp_at_all weird(stuff",
    ];
    let mut lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
    let pragma_idx: Vec<usize> = lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.trim_start().starts_with("#pragma"))
        .map(|(i, _)| i)
        .collect();
    if pragma_idx.is_empty() {
        // No pragma present: inject a scrambled one at a random line.
        let at = rng.below(lines.len() + 1);
        lines.insert(at, rng.pick(&GARBAGE).to_string());
    } else {
        let at = *rng.pick(&pragma_idx);
        lines[at] = match rng.below(3) {
            0 => rng.pick(&GARBAGE).to_string(),
            1 => {
                // Shuffle the words of the existing pragma.
                let mut toks = rough_tokens(&lines[at]);
                if toks.len() >= 2 {
                    let i = rng.below(toks.len());
                    let j = rng.below(toks.len());
                    toks.swap(i, j);
                }
                toks.join(" ")
            }
            _ => format!("{} garbage_clause({}", lines[at], rng.below(100)),
        };
    }
    let mut out = lines.join("\n");
    out.push('\n');
    out
}

/// A deep-nesting parse bomb: a single declaration whose initialiser is
/// wrapped in `depth` parentheses. With `depth` above
/// [`ParseOptions::max_nesting_depth`](crate::ParseOptions), parsing must
/// return a `NestingTooDeep` error rather than overflow the stack.
pub fn nesting_bomb(depth: usize) -> String {
    let mut s = String::with_capacity(depth * 2 + 32);
    s.push_str("void bomb() { int x = ");
    for _ in 0..depth {
        s.push('(');
    }
    s.push('1');
    for _ in 0..depth {
        s.push(')');
    }
    s.push_str("; }\n");
    s
}

/// Like [`rough_tokens`], but keeps multi-character operators (`<=`, `++`,
/// `&&`, ...) intact so the token stream survives re-spacing unchanged.
fn operator_preserving_tokens(line: &str) -> Vec<String> {
    const TWO_CHAR: [&str; 16] = [
        "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "++", "--",
        "->",
    ];
    let mut toks = Vec::new();
    let mut current = String::new();
    let chars: Vec<char> = line.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_alphanumeric() || c == '_' || c == '.' {
            current.push(c);
            i += 1;
            continue;
        }
        if !current.is_empty() {
            toks.push(std::mem::take(&mut current));
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        let pair: String = chars[i..(i + 2).min(chars.len())].iter().collect();
        if TWO_CHAR.contains(&pair.as_str()) {
            toks.push(pair);
            i += 2;
        } else {
            toks.push(c.to_string());
            i += 1;
        }
    }
    if !current.is_empty() {
        toks.push(current);
    }
    toks
}

/// One [`signature`] entry: (kind, name, opcode, int value, float bits).
pub type NodeSignature = (
    AstKind,
    Option<String>,
    Option<String>,
    Option<i64>,
    Option<u64>,
);

/// Preorder structural signature of every node of `ast`: two programs with
/// equal signatures parse to the same tree, node for node. The
/// formatting-independence tests compare a program with its [`reformat`]
/// twin through it.
pub fn signature(ast: &Ast) -> Vec<NodeSignature> {
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

/// Produce a semantically-identical twin of `source` that differs only in
/// whitespace and comments. Preprocessor lines are line-delimited, so
/// inserting newlines into them would change meaning: they keep their text,
/// and some `#pragma` lines gain a trailing `/* */` or `//` comment, which C
/// removes before it reads the directive (one block comment runs past the
/// line's end). Everywhere else, random spaces, newlines, and `/* */`
/// comments are inserted between rough tokens.
///
/// Used by the differential test: `analyze` verdicts must be identical for
/// `source` and `reformat(source, ..)`.
pub fn reformat(source: &str, rng: &mut Rng) -> String {
    let mut out = String::with_capacity(source.len() * 2);
    for line in source.lines() {
        let trimmed = line.trim_start();
        if trimmed.starts_with('#') {
            out.push_str(line);
            if trimmed.starts_with("#pragma") {
                out.push_str([" /* noise */", " // noise", " /* noise\n */", ""][rng.below(4)]);
            }
            out.push('\n');
            continue;
        }
        let toks = operator_preserving_tokens(line);
        for (i, t) in toks.iter().enumerate() {
            if i > 0 {
                match rng.below(6) {
                    0 => out.push_str("  "),
                    1 => out.push('\t'),
                    2 => out.push_str(" /* noise */ "),
                    3 => out.push('\n'),
                    _ => out.push(' '),
                }
            }
            out.push_str(t);
        }
        if rng.chance(1, 5) {
            out.push_str(" /* trailing */");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn generated_programs_parse() {
        for seed in 0..200 {
            let src = generate_program(seed);
            if let Err(e) = parse(&src) {
                panic!("seed {seed} generated an unparseable program: {e}\n{src}");
            }
        }
    }

    #[test]
    fn generated_programs_vary_with_seed() {
        assert_ne!(generate_program(1), generate_program(2));
        // And are reproducible for the same seed.
        assert_eq!(generate_program(7), generate_program(7));
    }

    #[test]
    fn reformat_only_touches_whitespace_and_comments() {
        for seed in 0..50 {
            let src = generate_program(seed);
            let mut rng = Rng::new(seed.wrapping_mul(31));
            let twin = reformat(&src, &mut rng);
            let strip = |s: &str| {
                // Token stream must be identical after removing whitespace
                // and the injected comments.
                let no_comments = s
                    .replace("/* noise */", " ")
                    .replace("/* noise\n */", " ")
                    .replace("// noise", " ")
                    .replace("/* trailing */", " ");
                no_comments.split_whitespace().collect::<Vec<_>>().join(" ")
            };
            assert_eq!(
                strip(&src).replace(' ', ""),
                strip(&twin).replace(' ', ""),
                "seed {seed}: reformat changed token content"
            );
        }
    }

    #[test]
    fn nesting_bomb_is_balanced() {
        let bomb = nesting_bomb(8);
        assert_eq!(bomb.matches('(').count(), bomb.matches(')').count());
        // Below the default cap it even parses.
        parse(&bomb).unwrap();
    }

    #[test]
    fn mutations_produce_strings_without_panicking() {
        let src = generate_program(99);
        let mut rng = Rng::new(1234);
        for m in ALL_MUTATIONS {
            for _ in 0..20 {
                let _ = mutate_with(&src, m, &mut rng);
            }
        }
    }
}
