//! Hard per-request parse budgets.
//!
//! The frontend is an untrusted-input boundary: the serving tier hands it
//! arbitrary bytes from the network. Every resource the lexer and parser can
//! consume — input bytes, tokens, recursion depth, arena nodes — is capped by
//! a [`ParseOptions`] budget, and exceeding a cap is a typed
//! [`FrontendError`](crate::FrontendError) (see
//! [`FrontendErrorKind`](crate::error::FrontendErrorKind)), never a panic or
//! a stack overflow.
//!
//! The defaults are sized so that every catalogue kernel parses with two
//! orders of magnitude of headroom, while a hostile request (a parenthesis
//! bomb, a megabyte of `#define` lines, a macro that expands quadratically)
//! is rejected in bounded time and memory.

/// Resource budget for one parse request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseOptions {
    /// Maximum source length in bytes; longer inputs are rejected before
    /// lexing starts.
    pub max_source_bytes: usize,
    /// Maximum number of tokens the lexer may produce, counting macro
    /// expansions.
    pub max_tokens: usize,
    /// Maximum combined statement/expression nesting depth. This bounds the
    /// parser's recursion — and, transitively, the recursion of every
    /// downstream consumer that walks the AST (analyses, symbol resolution,
    /// graph construction).
    pub max_nesting_depth: usize,
    /// Maximum number of AST arena nodes.
    pub max_ast_nodes: usize,
}

impl ParseOptions {
    /// Default input-size cap: 1 MiB, matching the serve tier's request-body
    /// cap so a body that clears HTTP admission cannot be rejected for size
    /// alone at the frontend.
    pub const DEFAULT_MAX_SOURCE_BYTES: usize = 1 << 20;
    /// Default token cap.
    pub const DEFAULT_MAX_TOKENS: usize = 1 << 18;
    /// Default nesting-depth cap. Catalogue kernels stay below 30 combined
    /// levels; 128 leaves room for generated code while keeping worst-case
    /// parser stack usage far under a thread's stack.
    pub const DEFAULT_MAX_NESTING_DEPTH: usize = 128;
    /// Default AST node cap.
    pub const DEFAULT_MAX_AST_NODES: usize = 1 << 19;

    /// The budget with no caps, for trusted in-process inputs (tests that
    /// deliberately build enormous trees).
    pub fn unlimited() -> Self {
        Self {
            max_source_bytes: usize::MAX,
            max_tokens: usize::MAX,
            max_nesting_depth: usize::MAX,
            max_ast_nodes: usize::MAX,
        }
    }

    /// Replace the source-byte cap.
    pub fn with_max_source_bytes(mut self, cap: usize) -> Self {
        self.max_source_bytes = cap;
        self
    }

    /// Replace the token cap.
    pub fn with_max_tokens(mut self, cap: usize) -> Self {
        self.max_tokens = cap;
        self
    }

    /// Replace the nesting-depth cap.
    pub fn with_max_nesting_depth(mut self, cap: usize) -> Self {
        self.max_nesting_depth = cap;
        self
    }

    /// Replace the AST node cap.
    pub fn with_max_ast_nodes(mut self, cap: usize) -> Self {
        self.max_ast_nodes = cap;
        self
    }
}

impl Default for ParseOptions {
    fn default() -> Self {
        Self {
            max_source_bytes: Self::DEFAULT_MAX_SOURCE_BYTES,
            max_tokens: Self::DEFAULT_MAX_TOKENS,
            max_nesting_depth: Self::DEFAULT_MAX_NESTING_DEPTH,
            max_ast_nodes: Self::DEFAULT_MAX_AST_NODES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_and_builders() {
        let opts = ParseOptions::default();
        assert_eq!(opts.max_source_bytes, 1 << 20);
        assert_eq!(opts.max_nesting_depth, 128);
        let tight = ParseOptions::default()
            .with_max_source_bytes(64)
            .with_max_tokens(16)
            .with_max_nesting_depth(4)
            .with_max_ast_nodes(8);
        assert_eq!(tight.max_source_bytes, 64);
        assert_eq!(tight.max_tokens, 16);
        assert_eq!(tight.max_nesting_depth, 4);
        assert_eq!(tight.max_ast_nodes, 8);
        let open = ParseOptions::unlimited();
        assert_eq!(open.max_tokens, usize::MAX);
    }
}
