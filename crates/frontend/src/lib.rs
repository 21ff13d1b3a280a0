//! # pg-frontend
//!
//! A from-scratch compiler frontend for the C subset + OpenMP directives used
//! by the ParaGraph benchmark kernels. It stands in for Clang in the paper's
//! pipeline (Figure 3): kernels are lexed, parsed into a Clang-style AST,
//! symbol references are resolved, and loop/trip-count analyses expose the
//! information ParaGraph encodes as edge weights.
//!
//! ```
//! use pg_frontend::{parse, analysis, symbols};
//!
//! let ast = parse("void axpy(float *x, float *y, int n) {\n  #pragma omp parallel for\n  for (int i = 0; i < 1024; i++) { y[i] = y[i] + 2.0 * x[i]; }\n}").unwrap();
//! let table = symbols::resolve(&ast);
//! assert!(table.resolved_count() > 0);
//! let for_stmt = ast.find_first(pg_frontend::AstKind::ForStmt).unwrap();
//! assert_eq!(analysis::trip_count(&ast, for_stmt, &Default::default()), Some(1024));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod ast;
pub mod error;
pub mod lexer;
pub mod limits;
pub mod omp;
pub mod parser;
pub mod symbols;
pub mod testing;
pub mod token;

pub use analysis::{classify_for, LoopInfo, LoopShape};
pub use ast::{Ast, AstKind, AstNode, NodeData, NodeId};
pub use error::{FrontendError, FrontendErrorKind};
pub use limits::ParseOptions;
pub use omp::{MapDirection, OmpClause, OmpDirective, OmpDirectiveKind, ScheduleKind};
pub use parser::{parse, parse_with_options};
pub use symbols::{resolve, SymbolTable};
pub use token::SourceLocation;
