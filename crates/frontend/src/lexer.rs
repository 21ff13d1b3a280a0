//! Hand-written lexer for the C subset used by the ParaGraph benchmark
//! kernels, including `#pragma omp` lines and simple object-like `#define`
//! macros (used to inject problem sizes into kernel templates).
//!
//! The lexer is part of the untrusted-input boundary: token production is
//! capped by [`ParseOptions::max_tokens`], macro bodies are lexed exactly
//! once at their `#define` (so a large replacement used many times costs
//! clones, not re-lexing), and preprocessor lines are consumed iteratively
//! so a flood of directives cannot grow the call stack.

use crate::error::{FrontendError, FrontendErrorKind};
use crate::limits::ParseOptions;
use crate::token::{Keyword, Punct, SourceLocation, Token, TokenKind};
use std::collections::HashMap;
use std::ops::Range;

/// Lexer state over a source string.
pub struct Lexer<'src> {
    src: &'src str,
    pos: usize,
    line: u32,
    column: u32,
    options: ParseOptions,
    /// Object-like macros collected from `#define NAME value` lines
    /// (name -> raw replacement text).
    macros: HashMap<String, String>,
    /// Replacement token lists, lexed once at the `#define`. A malformed
    /// body stores its error, surfaced lazily on first *use* (an unused
    /// bad define is not an error, matching the re-lex-on-use behaviour
    /// this cache replaced).
    macro_tokens: HashMap<String, Result<Vec<Token>, FrontendError>>,
}

impl<'src> Lexer<'src> {
    /// Create a lexer over the given source text with default limits.
    pub fn new(source: &'src str) -> Self {
        Self::with_options(source, ParseOptions::default())
    }

    /// Create a lexer over the given source text with an explicit budget.
    pub fn with_options(source: &'src str, options: ParseOptions) -> Self {
        Self {
            src: source,
            pos: 0,
            line: 1,
            column: 1,
            options,
            macros: HashMap::new(),
            macro_tokens: HashMap::new(),
        }
    }

    /// Tokenise the whole input. The returned vector always ends with an
    /// [`TokenKind::Eof`] token.
    pub fn tokenize(mut self) -> Result<Vec<Token>, FrontendError> {
        let mut tokens = Vec::new();
        loop {
            let token = self.next_token()?;
            let eof = token.is_eof();
            // Apply object-like macro substitution on identifiers.
            let token = self.substitute_macro(token)?;
            if let Some(ts) = token {
                tokens.extend(ts)
            }
            if tokens.len() > self.options.max_tokens {
                return Err(FrontendError::lex(
                    self.location(),
                    format!("input exceeds the {}-token budget", self.options.max_tokens),
                )
                .with_kind(FrontendErrorKind::TooManyTokens {
                    limit: self.options.max_tokens,
                }));
            }
            if eof {
                break;
            }
        }
        Ok(tokens)
    }

    /// Macros defined so far (name -> replacement text).
    pub fn macros(&self) -> &HashMap<String, String> {
        &self.macros
    }

    fn substitute_macro(&self, token: Token) -> Result<Option<Vec<Token>>, FrontendError> {
        if let TokenKind::Identifier(name) = &token.kind {
            if let Some(prelexed) = self.macro_tokens.get(name) {
                let mut toks = prelexed.clone()?;
                for t in &mut toks {
                    t.location = token.location;
                }
                return Ok(Some(toks));
            }
        }
        Ok(Some(vec![token]))
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek_ahead(&self, offset: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + offset).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.column = 1;
        } else {
            self.column += 1;
        }
        Some(c)
    }

    fn location(&self) -> SourceLocation {
        SourceLocation {
            line: self.line,
            column: self.column,
        }
    }

    fn skip_whitespace_and_comments(&mut self) -> Result<(), FrontendError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek_ahead(1) == Some(b'/') => {
                    let end = line_comment_end(self.src, self.pos);
                    while self.pos < end {
                        self.bump();
                    }
                }
                Some(b'/') if self.peek_ahead(1) == Some(b'*') => {
                    let start = self.location();
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek_ahead(1) == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            Some(_) => {
                                self.bump();
                            }
                            None => {
                                return Err(FrontendError::lex(
                                    start,
                                    "unterminated block comment",
                                )
                                .with_kind(FrontendErrorKind::UnterminatedComment));
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// The text of the directive that starts here, just past its `#`, with
    /// each comment read as one space and each line splice as nothing (see
    /// [`scan_directive`]).
    fn read_directive(&mut self) -> Result<String, FrontendError> {
        let scanned = scan_directive(self.src, self.pos);
        let to = scanned.as_ref().map_or_else(|&comment| comment, |d| d.end);
        while self.pos < to {
            self.bump();
        }
        scanned.map(|d| d.text(self.src)).map_err(|_| {
            FrontendError::lex(self.location(), "unterminated block comment")
                .with_kind(FrontendErrorKind::UnterminatedComment)
        })
    }

    fn next_token(&mut self) -> Result<Token, FrontendError> {
        // Iterative so that a flood of ignored preprocessor lines consumes
        // no call-stack depth (the old `return self.next_token()` recursion
        // overflowed on ~100k consecutive `#define`/`#include` lines).
        loop {
            self.skip_whitespace_and_comments()?;
            let loc = self.location();
            let Some(c) = self.peek() else {
                return Ok(Token {
                    kind: TokenKind::Eof,
                    location: loc,
                });
            };

            // Preprocessor lines.
            if c == b'#' {
                self.bump();
                let line = self.read_directive()?;
                let trimmed = line.trim();
                if let Some(rest) = trimmed.strip_prefix("pragma") {
                    let rest = rest.trim();
                    if let Some(omp) = rest.strip_prefix("omp") {
                        return Ok(Token {
                            kind: TokenKind::OmpPragma(omp.trim().to_string()),
                            location: loc,
                        });
                    }
                    // Non-OpenMP pragmas are ignored.
                    continue;
                }
                if let Some(rest) = trimmed.strip_prefix("define") {
                    let rest = rest.trim();
                    let mut parts = rest.splitn(2, char::is_whitespace);
                    if let Some(name) = parts.next() {
                        // Function-like macros are not supported; store only
                        // object-like ones (a bare name followed by a value).
                        if !name.contains('(') {
                            let value = parts.next().unwrap_or("").trim().to_string();
                            if !name.is_empty() && !value.is_empty() {
                                self.define_macro(name, value);
                            }
                        }
                    }
                    continue;
                }
                // #include and other directives are ignored.
                continue;
            }

            return self.lex_nonpreprocessor(loc, c);
        }
    }

    /// Record an object-like macro: the replacement text is lexed here,
    /// exactly once, with a fresh macro table (macros do not nest in our
    /// subset — `#define B A` leaves `A` an identifier even if `A` is also
    /// a macro, matching the old re-lex-per-use behaviour).
    fn define_macro(&mut self, name: &str, value: String) {
        let sub = Lexer::with_options(&value, self.options);
        let prelexed = sub.tokenize().map(|mut toks| {
            toks.retain(|t| !t.is_eof());
            toks
        });
        self.macro_tokens.insert(name.to_string(), prelexed);
        self.macros.insert(name.to_string(), value);
    }

    fn lex_nonpreprocessor(&mut self, loc: SourceLocation, c: u8) -> Result<Token, FrontendError> {
        // Identifiers and keywords.
        if c.is_ascii_alphabetic() || c == b'_' {
            let mut ident = String::new();
            while let Some(c) = self.peek() {
                if c.is_ascii_alphanumeric() || c == b'_' {
                    ident.push(self.bump().unwrap() as char);
                } else {
                    break;
                }
            }
            let kind = match Keyword::from_str(&ident) {
                Some(kw) => TokenKind::Keyword(kw),
                None => TokenKind::Identifier(ident),
            };
            return Ok(Token {
                kind,
                location: loc,
            });
        }

        // Numeric literals.
        if c.is_ascii_digit()
            || (c == b'.' && self.peek_ahead(1).is_some_and(|d| d.is_ascii_digit()))
        {
            return self.lex_number(loc);
        }

        // String literals.
        if c == b'"' {
            self.bump();
            let mut s = String::new();
            loop {
                match self.bump() {
                    Some(b'"') => break,
                    Some(b'\\') => {
                        if let Some(next) = self.bump() {
                            s.push('\\');
                            s.push(next as char);
                        }
                    }
                    Some(other) => s.push(other as char),
                    None => {
                        return Err(FrontendError::lex(loc, "unterminated string literal")
                            .with_kind(FrontendErrorKind::UnterminatedLiteral))
                    }
                }
            }
            return Ok(Token {
                kind: TokenKind::StringLiteral(s),
                location: loc,
            });
        }

        // Character literals.
        if c == b'\'' {
            self.bump();
            let ch = match self.bump() {
                Some(b'\\') => {
                    let esc = self.bump().ok_or_else(|| {
                        FrontendError::lex(loc, "unterminated char literal")
                            .with_kind(FrontendErrorKind::UnterminatedLiteral)
                    })?;
                    match esc {
                        b'n' => '\n',
                        b't' => '\t',
                        b'0' => '\0',
                        b'\\' => '\\',
                        b'\'' => '\'',
                        other => other as char,
                    }
                }
                Some(other) => other as char,
                None => {
                    return Err(FrontendError::lex(loc, "unterminated char literal")
                        .with_kind(FrontendErrorKind::UnterminatedLiteral))
                }
            };
            if self.bump() != Some(b'\'') {
                return Err(FrontendError::lex(loc, "unterminated char literal")
                    .with_kind(FrontendErrorKind::UnterminatedLiteral));
            }
            return Ok(Token {
                kind: TokenKind::CharLiteral(ch),
                location: loc,
            });
        }

        // Punctuation and operators (longest match first).
        let two = |a: u8, b: u8| -> bool { c == a && self.peek_ahead(1) == Some(b) };
        let punct = if two(b'-', b'>') {
            Some((Punct::Arrow, 2))
        } else if two(b'+', b'+') {
            Some((Punct::PlusPlus, 2))
        } else if two(b'-', b'-') {
            Some((Punct::MinusMinus, 2))
        } else if two(b'+', b'=') {
            Some((Punct::PlusAssign, 2))
        } else if two(b'-', b'=') {
            Some((Punct::MinusAssign, 2))
        } else if two(b'*', b'=') {
            Some((Punct::StarAssign, 2))
        } else if two(b'/', b'=') {
            Some((Punct::SlashAssign, 2))
        } else if two(b'%', b'=') {
            Some((Punct::PercentAssign, 2))
        } else if two(b'=', b'=') {
            Some((Punct::Eq, 2))
        } else if two(b'!', b'=') {
            Some((Punct::Ne, 2))
        } else if two(b'<', b'=') {
            Some((Punct::Le, 2))
        } else if two(b'>', b'=') {
            Some((Punct::Ge, 2))
        } else if two(b'<', b'<') {
            Some((Punct::Shl, 2))
        } else if two(b'>', b'>') {
            Some((Punct::Shr, 2))
        } else if two(b'&', b'&') {
            Some((Punct::AndAnd, 2))
        } else if two(b'|', b'|') {
            Some((Punct::OrOr, 2))
        } else {
            let single = match c {
                b'(' => Some(Punct::LParen),
                b')' => Some(Punct::RParen),
                b'{' => Some(Punct::LBrace),
                b'}' => Some(Punct::RBrace),
                b'[' => Some(Punct::LBracket),
                b']' => Some(Punct::RBracket),
                b';' => Some(Punct::Semicolon),
                b',' => Some(Punct::Comma),
                b'.' => Some(Punct::Dot),
                b'+' => Some(Punct::Plus),
                b'-' => Some(Punct::Minus),
                b'*' => Some(Punct::Star),
                b'/' => Some(Punct::Slash),
                b'%' => Some(Punct::Percent),
                b'=' => Some(Punct::Assign),
                b'<' => Some(Punct::Lt),
                b'>' => Some(Punct::Gt),
                b'!' => Some(Punct::Not),
                b'&' => Some(Punct::Amp),
                b'|' => Some(Punct::Pipe),
                b'^' => Some(Punct::Caret),
                b'~' => Some(Punct::Tilde),
                b'?' => Some(Punct::Question),
                b':' => Some(Punct::Colon),
                _ => None,
            };
            single.map(|p| (p, 1))
        };

        match punct {
            Some((p, len)) => {
                for _ in 0..len {
                    self.bump();
                }
                Ok(Token {
                    kind: TokenKind::Punct(p),
                    location: loc,
                })
            }
            None => Err(
                FrontendError::lex(loc, format!("unexpected character '{}'", c as char))
                    .with_kind(FrontendErrorKind::UnexpectedCharacter),
            ),
        }
    }

    fn lex_number(&mut self, loc: SourceLocation) -> Result<Token, FrontendError> {
        let mut text = String::new();
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => text.push(self.bump().unwrap() as char),
                b'.' => {
                    is_float = true;
                    text.push(self.bump().unwrap() as char);
                }
                b'e' | b'E' => {
                    is_float = true;
                    text.push(self.bump().unwrap() as char);
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        text.push(self.bump().unwrap() as char);
                    }
                }
                // Suffixes are consumed but ignored.
                b'f' | b'F' => {
                    is_float = true;
                    self.bump();
                }
                b'l' | b'L' | b'u' | b'U' => {
                    self.bump();
                }
                b'x' | b'X' if text == "0" => {
                    // Hexadecimal integer.
                    self.bump();
                    let mut hex = String::new();
                    while let Some(h) = self.peek() {
                        if h.is_ascii_hexdigit() {
                            hex.push(self.bump().unwrap() as char);
                        } else {
                            break;
                        }
                    }
                    let value = i64::from_str_radix(&hex, 16).map_err(|_| {
                        FrontendError::lex(loc, "invalid hexadecimal literal")
                            .with_kind(FrontendErrorKind::InvalidLiteral)
                    })?;
                    return Ok(Token {
                        kind: TokenKind::IntLiteral(value),
                        location: loc,
                    });
                }
                _ => break,
            }
        }
        let kind = if is_float {
            let value: f64 = text.parse().map_err(|_| {
                FrontendError::lex(loc, format!("invalid float literal '{text}'"))
                    .with_kind(FrontendErrorKind::InvalidLiteral)
            })?;
            TokenKind::FloatLiteral(value)
        } else {
            let value: i64 = text.parse().map_err(|_| {
                FrontendError::lex(loc, format!("invalid integer literal '{text}'"))
                    .with_kind(FrontendErrorKind::InvalidLiteral)
            })?;
            TokenKind::IntLiteral(value)
        };
        Ok(Token {
            kind,
            location: loc,
        })
    }
}

/// A preprocessing directive as C reads it: each backslash-newline is
/// deleted (translation phase 2), then comments are removed (phase 3),
/// before directives are processed (phase 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directive {
    /// Byte ranges of the directive's code in the source, in order. Between
    /// two of them lies a comment, which reads as one space, or a line
    /// splice, which reads as nothing.
    pub code: Vec<Range<usize>>,
    /// Byte offset just past the directive: its closing newline, or the end
    /// of the source.
    pub end: usize,
}

impl Directive {
    /// The directive's code as one string, a space in place of each comment
    /// and nothing in place of each line splice. `source` is the text it
    /// was scanned from.
    pub fn text(&self, source: &str) -> String {
        let mut text = String::new();
        let mut after = None;
        for range in &self.code {
            if after.is_some_and(|end| &source[end..range.start] != "\\\n") {
                text.push(' ');
            }
            text.push_str(&source[range.clone()]);
            after = Some(range.end);
        }
        text
    }
}

/// Byte offset of the newline that ends the `//` comment starting at byte
/// `start` of `source`, or the source's length when no newline does. C
/// deletes each backslash-newline before it removes comments, so the comment
/// runs to the first newline that no backslash splices.
pub fn line_comment_end(source: &str, start: usize) -> usize {
    let bytes = source.as_bytes();
    (start + 2..bytes.len())
        .find(|&j| bytes[j] == b'\n' && bytes[j - 1] != b'\\')
        .unwrap_or(bytes.len())
}

/// Scans the directive whose text starts at byte `start` of `source`, just
/// past its `#`. The directive runs to the end of its line, and a
/// backslash-newline continues it, also inside a comment or a literal. A
/// `//` comment ends it; a `/* … */` comment is one space, also when it
/// closes on a later line, where the directive goes on. A `//` or `/*`
/// inside a string or character literal is text.
///
/// Errors with the byte offset of a block comment that never closes.
pub fn scan_directive(source: &str, start: usize) -> Result<Directive, usize> {
    let bytes = source.as_bytes();
    let mut code = Vec::new();
    let mut from = start;
    let mut quote = None;
    let mut i = start;
    while i < bytes.len() && bytes[i] != b'\n' {
        match (quote, bytes[i], bytes.get(i + 1)) {
            (_, b'\\', Some(b'\n')) => {
                code.push(from..i);
                i += 2;
                from = i;
            }
            (Some(_), b'\\', _) => i = (i + 2).min(bytes.len()),
            (Some(open), c, _) => {
                quote = (c != open).then_some(open);
                i += 1;
            }
            (None, c @ (b'"' | b'\''), _) => {
                quote = Some(c);
                i += 1;
            }
            (None, b'/', Some(b'/')) => {
                code.push(from..i);
                // The comment ends the directive.
                let end = line_comment_end(source, i);
                return Ok(Directive { code, end });
            }
            (None, b'/', Some(b'*')) => {
                code.push(from..i);
                let close = source[i + 2..].find("*/").ok_or(i)?;
                i += 2 + close + 2;
                from = i;
            }
            _ => i += 1,
        }
    }
    code.push(from..i);
    Ok(Directive { code, end: i })
}

/// Convenience function: lex a full source string with default limits.
pub fn tokenize(source: &str) -> Result<Vec<Token>, FrontendError> {
    Lexer::new(source).tokenize()
}

/// Lex a full source string under an explicit budget.
pub fn tokenize_with_options(
    source: &str,
    options: ParseOptions,
) -> Result<Vec<Token>, FrontendError> {
    Lexer::with_options(source, options).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        let toks = kinds("int x = 50;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Keyword(Keyword::Int),
                TokenKind::Identifier("x".into()),
                TokenKind::Punct(Punct::Assign),
                TokenKind::IntLiteral(50),
                TokenKind::Punct(Punct::Semicolon),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_float_literals_and_suffixes() {
        let toks = kinds("double d = 1.5e-3; float f = 2.0f; long n = 10L;");
        assert!(toks.contains(&TokenKind::FloatLiteral(1.5e-3)));
        assert!(toks.contains(&TokenKind::FloatLiteral(2.0)));
        assert!(toks.contains(&TokenKind::IntLiteral(10)));
    }

    #[test]
    fn lexes_hex_literals() {
        let toks = kinds("int mask = 0xFF;");
        assert!(toks.contains(&TokenKind::IntLiteral(255)));
    }

    #[test]
    fn skips_comments() {
        let toks = kinds("// a comment\nint x; /* multi\nline */ int y;");
        let idents: Vec<_> = toks
            .iter()
            .filter_map(|t| match t {
                TokenKind::Identifier(n) => Some(n.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(idents, vec!["x", "y"]);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(tokenize("int x; /* oops").is_err());
    }

    #[test]
    fn multi_character_operators() {
        let toks = kinds("a <= b && c != d; i++; j += 2; x >> 1;");
        assert!(toks.contains(&TokenKind::Punct(Punct::Le)));
        assert!(toks.contains(&TokenKind::Punct(Punct::AndAnd)));
        assert!(toks.contains(&TokenKind::Punct(Punct::Ne)));
        assert!(toks.contains(&TokenKind::Punct(Punct::PlusPlus)));
        assert!(toks.contains(&TokenKind::Punct(Punct::PlusAssign)));
        assert!(toks.contains(&TokenKind::Punct(Punct::Shr)));
    }

    #[test]
    fn omp_pragma_becomes_a_single_token() {
        let toks = kinds("#pragma omp parallel for collapse(2)\nfor(;;){}");
        assert_eq!(
            toks[0],
            TokenKind::OmpPragma("parallel for collapse(2)".into())
        );
    }

    #[test]
    fn pragma_line_continuation_is_joined() {
        let toks = kinds("#pragma omp target teams distribute \\\n parallel for\nint x;");
        match &toks[0] {
            TokenKind::OmpPragma(text) => {
                assert!(text.contains("target teams distribute"));
                assert!(text.contains("parallel for"));
            }
            other => panic!("expected pragma, got {other:?}"),
        }
    }

    #[test]
    fn a_line_splice_is_deleted_before_comments_and_directives() {
        // In a directive, a splice reads as nothing: `N` is `10`.
        assert_eq!(kinds("#define N 1\\\n0\nint a = N;"), kinds("int a = 10;"));
        assert_eq!(
            kinds("#pragma omp parallel for \\\nnum_threads(4)\n")[0],
            TokenKind::OmpPragma("parallel for num_threads(4)".into())
        );
        // A `//` comment runs on past a spliced newline.
        assert_eq!(
            kinds("int x = 1; // note \\\nint y = 2;"),
            kinds("int x = 1;")
        );
    }

    #[test]
    fn a_comment_on_a_directive_line_is_a_comment() {
        use crate::omp::{parse_pragma, OmpClause};
        let body = "for (int i = 0; i < 64; i++) { a[i] = 0.0; }\n}\n";
        let clauses = |pragma: &str| {
            let source = format!("void f(float *a) {{\n{pragma}\n{body}");
            crate::parse(&source).unwrap();
            let text = tokenize(&source)
                .unwrap()
                .into_iter()
                .find_map(|t| match t.kind {
                    TokenKind::OmpPragma(text) => Some(text),
                    _ => None,
                });
            parse_pragma(&text.expect("one pragma")).clauses
        };
        // `//` ends the directive.
        assert_eq!(
            clauses("#pragma omp parallel for // num_threads(8)"),
            vec![]
        );
        // `/* … */` is one space, also when it runs past the newline, and the
        // directive goes on after it.
        assert_eq!(
            clauses("#pragma omp parallel for /* collapse(2) */"),
            vec![]
        );
        assert_eq!(
            clauses("#pragma omp parallel for /* collapse(2)\n */"),
            vec![]
        );
        assert_eq!(
            clauses("#pragma omp parallel for /* collapse(2)\n */ num_threads(4)"),
            vec![OmpClause::NumThreads(4)]
        );
        assert_eq!(
            clauses("#pragma omp parallel/**/for num_threads(4) // \\\n collapse(2)"),
            vec![OmpClause::NumThreads(4)]
        );

        // On a `#define` line too.
        let toks = kinds("#define N 64 /* the size\n */\nint a[N];");
        assert!(toks.contains(&TokenKind::IntLiteral(64)));
        assert!(!toks.contains(&TokenKind::Identifier("N".into())));
        // Inside a literal, a comment opener is text.
        let toks = kinds("#define URL \"http://x/*\" // the page\nchar *s = URL;");
        assert!(toks.contains(&TokenKind::StringLiteral("http://x/*".into())));

        // A comment that never closes is still an error, at its opening.
        let err = tokenize("int x;\n#pragma omp parallel for /* collapse(2)\nint y;").unwrap_err();
        assert_eq!(err.kind, FrontendErrorKind::UnterminatedComment);
        assert_eq!(
            err.location,
            SourceLocation {
                line: 2,
                column: 26
            }
        );
    }

    #[test]
    fn include_lines_are_ignored() {
        let toks = kinds("#include <stdio.h>\nint x;");
        assert_eq!(toks[0], TokenKind::Keyword(Keyword::Int));
    }

    #[test]
    fn object_like_defines_are_substituted() {
        let toks = kinds("#define N 1024\nint a[N];");
        assert!(toks.contains(&TokenKind::IntLiteral(1024)));
        // The macro name itself must not survive as an identifier.
        assert!(!toks.contains(&TokenKind::Identifier("N".into())));
    }

    #[test]
    fn string_and_char_literals() {
        let toks = kinds("char c = 'a'; char n = '\\n';");
        assert!(toks.contains(&TokenKind::CharLiteral('a')));
        assert!(toks.contains(&TokenKind::CharLiteral('\n')));
        let toks = kinds(r#"const char *s = "hello world";"#);
        assert!(toks.contains(&TokenKind::StringLiteral("hello world".into())));
    }

    #[test]
    fn unknown_character_is_an_error() {
        assert!(tokenize("int x = `;").is_err());
    }

    #[test]
    fn token_budget_is_enforced() {
        let options = ParseOptions::default().with_max_tokens(8);
        let err = tokenize_with_options("int a; int b; int c; int d;", options).unwrap_err();
        assert_eq!(
            err.kind,
            FrontendErrorKind::TooManyTokens { limit: 8 },
            "{err}"
        );
        // Macro expansion counts against the same budget.
        let err = tokenize_with_options("#define V 1 + 2 + 3 + 4\nint x = V; int y = V;", options)
            .unwrap_err();
        assert!(err.is_limit());
    }

    #[test]
    fn preprocessor_flood_lexes_iteratively() {
        // 100k consecutive ignored directives used to recurse once per line
        // and overflow the stack; the loop form must finish.
        let mut src = String::new();
        for i in 0..100_000 {
            src.push_str(&format!("#define M{i} {i}\n"));
        }
        src.push_str("int x;");
        let toks = tokenize(&src).unwrap();
        assert!(toks
            .iter()
            .any(|t| t.kind == TokenKind::Keyword(Keyword::Int)));
    }

    #[test]
    fn self_referential_macro_expands_once_and_terminates() {
        // `#define N N` must not loop: the replacement is lexed with a fresh
        // macro table, so the expansion is the identifier `N` itself.
        let toks = kinds("#define N N\nint a[N];");
        assert!(toks.contains(&TokenKind::Identifier("N".into())));
    }

    #[test]
    fn bad_macro_body_errors_on_use_not_define() {
        // Unused malformed define: fine.
        assert!(tokenize("#define BAD \"unterminated\nint x;").is_ok());
        // Used malformed define: the stored lex error surfaces.
        let err = tokenize("#define BAD \"unterminated\nint x = BAD;").unwrap_err();
        assert_eq!(err.kind, FrontendErrorKind::UnterminatedLiteral);
    }

    #[test]
    fn locations_track_lines_and_columns() {
        let toks = tokenize("int x;\n  float y;").unwrap();
        // `float` starts on line 2, column 3.
        let float_tok = toks
            .iter()
            .find(|t| t.kind == TokenKind::Keyword(Keyword::Float))
            .unwrap();
        assert_eq!(float_tok.location.line, 2);
        assert_eq!(float_tok.location.column, 3);
    }
}
