//! Static analyses over the AST:
//!
//! * constant evaluation of integer expressions,
//! * canonical-loop recognition and trip-count computation (the information
//!   ParaGraph encodes as edge weights),
//! * loop-nest discovery (used for `collapse(2)` legality checks and the
//!   distributed iteration space), and
//! * a loop-aware work estimate (floating point operations, loads, stores)
//!   used by the performance simulator and the COMPOFF baseline features.

use crate::ast::{Ast, AstKind, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Environment binding variable names to known integer constants
/// (problem sizes, macro-substituted parameters, ...).
pub type ConstEnv = HashMap<String, i64>;

/// Evaluate an integer-valued expression if it is a compile-time constant
/// under the given environment.
pub fn const_eval(ast: &Ast, node: NodeId, env: &ConstEnv) -> Option<i64> {
    let n = ast.node(node);
    match n.kind {
        AstKind::IntegerLiteral => n.data.int_value,
        AstKind::FloatingLiteral => n.data.float_value.map(|f| f as i64),
        AstKind::CharacterLiteral => n.data.int_value,
        AstKind::DeclRefExpr => n.data.name.as_ref().and_then(|name| env.get(name).copied()),
        AstKind::ImplicitCastExpr | AstKind::ParenExpr | AstKind::CStyleCastExpr => {
            n.children.first().and_then(|&c| const_eval(ast, c, env))
        }
        AstKind::UnaryOperator => {
            let value = n.children.first().and_then(|&c| const_eval(ast, c, env))?;
            match n.data.opcode.as_deref() {
                // checked_neg: `-(i64::MIN)` has no i64 representation.
                Some("-") => value.checked_neg(),
                Some("+") => Some(value),
                Some("~") => Some(!value),
                Some("!") => Some(i64::from(value == 0)),
                _ => None,
            }
        }
        AstKind::BinaryOperator => {
            let lhs = const_eval(ast, *n.children.first()?, env)?;
            let rhs = const_eval(ast, *n.children.get(1)?, env)?;
            match n.data.opcode.as_deref() {
                Some("+") => lhs.checked_add(rhs),
                Some("-") => lhs.checked_sub(rhs),
                Some("*") => lhs.checked_mul(rhs),
                // checked_div/checked_rem: rejects both rhs == 0 and the
                // i64::MIN / -1 overflow case.
                Some("/") => lhs.checked_div(rhs),
                Some("%") => lhs.checked_rem(rhs),
                Some("<<") => Some(lhs << (rhs & 63)),
                Some(">>") => Some(lhs >> (rhs & 63)),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Canonical-loop description extracted from a `ForStmt`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopInfo {
    /// The `ForStmt` node.
    pub for_stmt: NodeId,
    /// Loop counter variable name.
    pub counter: String,
    /// Initial counter value, when constant.
    pub start: Option<i64>,
    /// Loop bound (the value the counter is compared against), when constant.
    pub bound: Option<i64>,
    /// Comparison operator spelling (`<`, `<=`, `>`, `>=`).
    pub comparison: String,
    /// Counter step per iteration (positive for increments).
    pub step: i64,
    /// Number of iterations, when it can be computed statically.
    pub trip_count: Option<u64>,
}

/// Why a loop was rejected by canonical-form recognition.
///
/// Carried alongside `Option<LoopInfo>` so analyses and diagnostics can say
/// *why* a loop is opaque instead of just that it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoopShape {
    /// The node is not a `ForStmt` at all.
    NotAForLoop,
    /// The `ForStmt` is missing one of its `init`/`cond`/`body`/`inc` parts.
    MissingClause,
    /// The init is neither `int i = <expr>` nor `i = <expr>`.
    NonCanonicalInit,
    /// The condition is not a comparison (`<`, `<=`, `>`, `>=`, `!=`).
    NonCanonicalCondition,
    /// The condition is a comparison, but neither side is the loop counter.
    CounterNotInCondition,
    /// The increment is not `i++`/`i--`/`i += c`/`i -= c`/`i = i ± c` with a
    /// constant `c`.
    NonConstantStride,
}

impl LoopShape {
    /// Human-readable reason, phrased for diagnostics.
    pub fn reason(self) -> &'static str {
        match self {
            LoopShape::NotAForLoop => "not a for loop",
            LoopShape::MissingClause => "for statement is missing an init, condition or increment",
            LoopShape::NonCanonicalInit => "loop init is not `i = <expr>` or `int i = <expr>`",
            LoopShape::NonCanonicalCondition => "loop condition is not a simple comparison",
            LoopShape::CounterNotInCondition => "loop condition does not test the loop counter",
            LoopShape::NonConstantStride => "loop increment is not a constant stride",
        }
    }
}

impl std::fmt::Display for LoopShape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.reason())
    }
}

/// Recognise the canonical `for (init; cond; inc)` form of a loop and compute
/// its trip count under `env`. Returns `None` when the loop is not canonical;
/// use [`classify_for`] to learn why.
pub fn analyze_for(ast: &Ast, for_stmt: NodeId, env: &ConstEnv) -> Option<LoopInfo> {
    classify_for(ast, for_stmt, env).ok()
}

/// [`analyze_for`] with a reason on rejection: recognise the canonical
/// `for (init; cond; inc)` form or report the [`LoopShape`] defect that
/// blocked recognition.
pub fn classify_for(ast: &Ast, for_stmt: NodeId, env: &ConstEnv) -> Result<LoopInfo, LoopShape> {
    if ast.kind(for_stmt) != AstKind::ForStmt {
        return Err(LoopShape::NotAForLoop);
    }
    let children = ast.children(for_stmt);
    if children.len() != 4 {
        return Err(LoopShape::MissingClause);
    }
    // Paper child order: [init, cond, body, inc].
    let (init, cond, _body, inc) = (children[0], children[1], children[2], children[3]);

    // --- init: `int i = <expr>` or `i = <expr>` --------------------------------
    let (counter, start) = extract_init(ast, init, env).ok_or(LoopShape::NonCanonicalInit)?;

    // --- cond: `i < bound` style comparison ------------------------------------
    let cond_node = ast.node(cond);
    if cond_node.kind != AstKind::BinaryOperator {
        return Err(LoopShape::NonCanonicalCondition);
    }
    let comparison = cond_node
        .data
        .opcode
        .clone()
        .ok_or(LoopShape::NonCanonicalCondition)?;
    if !matches!(comparison.as_str(), "<" | "<=" | ">" | ">=" | "!=") {
        return Err(LoopShape::NonCanonicalCondition);
    }
    let lhs = *cond_node
        .children
        .first()
        .ok_or(LoopShape::NonCanonicalCondition)?;
    let rhs = *cond_node
        .children
        .get(1)
        .ok_or(LoopShape::NonCanonicalCondition)?;
    let (bound_expr, counter_on_left) =
        if referenced_name(ast, lhs).as_deref() == Some(counter.as_str()) {
            (rhs, true)
        } else if referenced_name(ast, rhs).as_deref() == Some(counter.as_str()) {
            (lhs, false)
        } else {
            return Err(LoopShape::CounterNotInCondition);
        };
    let bound = const_eval(ast, bound_expr, env);

    // --- increment --------------------------------------------------------------
    let step = extract_step(ast, inc, &counter, env).ok_or(LoopShape::NonConstantStride)?;

    // --- trip count --------------------------------------------------------------
    let trip_count = match (start, bound) {
        (Some(s), Some(b)) => compute_trip_count(s, b, &comparison, counter_on_left, step),
        _ => None,
    };

    Ok(LoopInfo {
        for_stmt,
        counter,
        start,
        bound,
        comparison,
        step,
        trip_count,
    })
}

/// Convenience wrapper returning only the trip count of a loop.
pub fn trip_count(ast: &Ast, for_stmt: NodeId, env: &ConstEnv) -> Option<u64> {
    analyze_for(ast, for_stmt, env).and_then(|info| info.trip_count)
}

fn extract_init(ast: &Ast, init: NodeId, env: &ConstEnv) -> Option<(String, Option<i64>)> {
    let node = ast.node(init);
    match node.kind {
        AstKind::DeclStmt => {
            let var = *node.children.first()?;
            let var_node = ast.node(var);
            if var_node.kind != AstKind::VarDecl {
                return None;
            }
            let name = var_node.data.name.clone()?;
            let start = var_node
                .children
                .first()
                .and_then(|&c| const_eval(ast, c, env));
            Some((name, start))
        }
        AstKind::BinaryOperator if node.data.opcode.as_deref() == Some("=") => {
            let lhs = *node.children.first()?;
            let name = referenced_name(ast, lhs)?;
            let start = node.children.get(1).and_then(|&c| const_eval(ast, c, env));
            Some((name, start))
        }
        _ => None,
    }
}

fn extract_step(ast: &Ast, inc: NodeId, counter: &str, env: &ConstEnv) -> Option<i64> {
    let node = ast.node(inc);
    match node.kind {
        AstKind::UnaryOperator => {
            let operand = *node.children.first()?;
            if referenced_name(ast, operand).as_deref() != Some(counter) {
                return None;
            }
            match node.data.opcode.as_deref() {
                Some("++") => Some(1),
                Some("--") => Some(-1),
                _ => None,
            }
        }
        AstKind::CompoundAssignOperator => {
            let lhs = *node.children.first()?;
            if referenced_name(ast, lhs).as_deref() != Some(counter) {
                return None;
            }
            let amount = const_eval(ast, *node.children.get(1)?, env)?;
            match node.data.opcode.as_deref() {
                Some("+=") => Some(amount),
                Some("-=") => Some(-amount),
                Some("*=") => None,
                _ => None,
            }
        }
        AstKind::BinaryOperator if node.data.opcode.as_deref() == Some("=") => {
            // `i = i + c` or `i = i - c`
            let lhs = *node.children.first()?;
            if referenced_name(ast, lhs).as_deref() != Some(counter) {
                return None;
            }
            let rhs = ast.node(*node.children.get(1)?);
            if rhs.kind != AstKind::BinaryOperator {
                return None;
            }
            let a = *rhs.children.first()?;
            let b = *rhs.children.get(1)?;
            let amount = if referenced_name(ast, a).as_deref() == Some(counter) {
                const_eval(ast, b, env)?
            } else if referenced_name(ast, b).as_deref() == Some(counter) {
                const_eval(ast, a, env)?
            } else {
                return None;
            };
            match rhs.data.opcode.as_deref() {
                Some("+") => Some(amount),
                Some("-") => Some(-amount),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Name of the variable referenced by an expression consisting only of a
/// (possibly cast/parenthesised) `DeclRefExpr`.
pub fn referenced_name(ast: &Ast, node: NodeId) -> Option<String> {
    let n = ast.node(node);
    match n.kind {
        AstKind::DeclRefExpr => n.data.name.clone(),
        AstKind::ImplicitCastExpr | AstKind::ParenExpr | AstKind::CStyleCastExpr => {
            n.children.first().and_then(|&c| referenced_name(ast, c))
        }
        _ => None,
    }
}

fn compute_trip_count(
    start: i64,
    bound: i64,
    comparison: &str,
    counter_on_left: bool,
    step: i64,
) -> Option<u64> {
    if step == 0 {
        return None;
    }
    // Normalise so the comparison reads `counter OP bound`.
    let comparison = if counter_on_left {
        comparison.to_string()
    } else {
        match comparison {
            "<" => ">".to_string(),
            "<=" => ">=".to_string(),
            ">" => "<".to_string(),
            ">=" => "<=".to_string(),
            other => other.to_string(),
        }
    };
    // All arithmetic is checked: hostile inputs can place start/bound/step
    // anywhere in i64, and a trip count that does not fit is "unknown", not
    // a debug-overflow panic.
    let (lo, hi, step_abs) = match (comparison.as_str(), step > 0) {
        ("<", true) => (start, bound.checked_sub(1)?, step),
        ("<=", true) => (start, bound, step),
        (">", false) => (bound.checked_add(1)?, start, step.checked_neg()?),
        (">=", false) => (bound, start, step.checked_neg()?),
        ("!=", true) => (start, bound.checked_sub(1)?, step),
        ("!=", false) => (bound.checked_add(1)?, start, step.checked_neg()?),
        _ => return Some(0),
    };
    if hi < lo {
        return Some(0);
    }
    let span = hi.checked_sub(lo)?;
    Some((span / step_abs).checked_add(1)? as u64)
}

/// One loop in a loop nest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopNestLevel {
    /// The `ForStmt` node of this level.
    pub for_stmt: NodeId,
    /// Nesting depth relative to the outermost loop of the nest (0-based).
    pub depth: usize,
    /// Canonical-loop information, when the loop is canonical.
    pub info: Option<LoopInfo>,
    /// Why recognition failed, when `info` is `None`.
    pub shape: Option<LoopShape>,
}

/// Find the loop nest rooted at `outer_for`: the outer loop plus every loop
/// that is *perfectly or imperfectly* nested inside its body, ordered by
/// depth.
pub fn loop_nest(ast: &Ast, outer_for: NodeId, env: &ConstEnv) -> Vec<LoopNestLevel> {
    let mut levels = Vec::new();
    collect_nest(ast, outer_for, 0, env, &mut levels);
    levels
}

fn collect_nest(
    ast: &Ast,
    for_stmt: NodeId,
    depth: usize,
    env: &ConstEnv,
    out: &mut Vec<LoopNestLevel>,
) {
    if ast.kind(for_stmt) != AstKind::ForStmt {
        return;
    }
    let (info, shape) = match classify_for(ast, for_stmt, env) {
        Ok(info) => (Some(info), None),
        Err(shape) => (None, Some(shape)),
    };
    out.push(LoopNestLevel {
        for_stmt,
        depth,
        info,
        shape,
    });
    // Recurse only into the body (child 2), not the init/cond/inc.
    if let Some(&body) = ast.children(for_stmt).get(2) {
        for id in ast.preorder_from(body) {
            if ast.kind(id) == AstKind::ForStmt {
                // Only direct next-level loops: skip loops nested deeper than
                // one level here; they are handled by recursion.
                let is_direct = ast
                    .ancestors(id)
                    .into_iter()
                    .take_while(|&a| a != for_stmt)
                    .all(|a| ast.kind(a) != AstKind::ForStmt);
                if is_direct {
                    collect_nest(ast, id, depth + 1, env, out);
                }
            }
        }
    }
}

/// Iterations of the loop space that the first OpenMP directive of `ast`
/// distributes: the trip counts of the first `collapse` levels of the nest
/// rooted at the directive's loop, multiplied in nest order, with
/// [`DEFAULT_UNKNOWN_TRIP_COUNT`] for a trip count that is not static, and
/// at least 1. Without a directive the first loop is distributed; without a
/// loop, one iteration.
pub fn distributed_iterations(ast: &Ast, env: &ConstEnv) -> f64 {
    let directive = ast
        .preorder()
        .into_iter()
        .find(|&id| ast.kind(id).is_omp_directive());
    let (loop_node, collapse) = match directive {
        Some(d) => {
            let collapse = ast
                .node(d)
                .data
                .omp
                .as_ref()
                .map_or(1, |o| o.collapse_depth());
            let associated = ast
                .preorder_from(d)
                .into_iter()
                .find(|&id| ast.kind(id) == AstKind::ForStmt);
            (associated, collapse)
        }
        None => (ast.find_first(AstKind::ForStmt), 1),
    };
    let Some(outer) = loop_node else {
        return 1.0;
    };
    loop_nest(ast, outer, env)
        .iter()
        .take(collapse as usize)
        .map(|level| {
            level
                .info
                .as_ref()
                .and_then(|i| i.trip_count)
                .unwrap_or(DEFAULT_UNKNOWN_TRIP_COUNT) as f64
        })
        .product::<f64>()
        .max(1.0)
}

/// Whether the loop nest rooted at `outer_for` can legally be collapsed with
/// `collapse(2)`: it must contain a second loop directly (perfectly) nested in
/// the outer loop's body.
pub fn is_collapsible(ast: &Ast, outer_for: NodeId) -> bool {
    let Some(&body) = ast.children(outer_for).get(2) else {
        return false;
    };
    // The body must contain exactly one top-level statement that is itself a
    // for loop (possibly wrapped in a compound statement).
    let body_stmts: Vec<NodeId> = match ast.kind(body) {
        AstKind::CompoundStmt => ast.children(body).to_vec(),
        _ => vec![body],
    };
    let non_null: Vec<&NodeId> = body_stmts
        .iter()
        .filter(|&&s| ast.kind(s) != AstKind::NullStmt)
        .collect();
    non_null.len() == 1 && ast.kind(*non_null[0]) == AstKind::ForStmt
}

/// Loop-aware operation estimate for a subtree.
///
/// All counts are *dynamic* estimates: statement counts are multiplied by the
/// trip counts of enclosing loops, and `if` branches are weighted by a ½
/// probability, mirroring the edge-weight rules of ParaGraph itself.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WorkEstimate {
    /// Floating-point arithmetic operations.
    pub flops: f64,
    /// Integer arithmetic operations (includes address arithmetic).
    pub int_ops: f64,
    /// Array-element reads.
    pub loads: f64,
    /// Array-element writes.
    pub stores: f64,
    /// Comparison operations.
    pub compares: f64,
    /// Function calls (intrinsics such as `sqrt`, `exp` count here).
    pub calls: f64,
    /// Total loop iterations executed (product-summed over loop nests).
    pub iterations: f64,
    /// Maximum loop nest depth in the subtree.
    pub max_loop_depth: usize,
}

impl WorkEstimate {
    /// Combined memory operations.
    pub fn memory_ops(&self) -> f64 {
        self.loads + self.stores
    }

    /// Total arithmetic operations.
    pub fn arithmetic_ops(&self) -> f64 {
        self.flops + self.int_ops
    }

    fn add_scaled(&mut self, other: &WorkEstimate, scale: f64) {
        self.flops += other.flops * scale;
        self.int_ops += other.int_ops * scale;
        self.loads += other.loads * scale;
        self.stores += other.stores * scale;
        self.compares += other.compares * scale;
        self.calls += other.calls * scale;
        self.iterations += other.iterations * scale;
        self.max_loop_depth = self.max_loop_depth.max(other.max_loop_depth);
    }
}

/// Trip count assumed for loops whose bounds cannot be determined statically.
pub const DEFAULT_UNKNOWN_TRIP_COUNT: u64 = 64;

/// Estimate the dynamic work performed by the subtree rooted at `node`.
pub fn estimate_work(ast: &Ast, node: NodeId, env: &ConstEnv) -> WorkEstimate {
    // Names of variables declared with a floating-point type, used to decide
    // whether an arithmetic operation is a flop or an integer op.
    let float_vars: std::collections::HashSet<String> = ast
        .iter()
        .filter(|(_, n)| matches!(n.kind, AstKind::VarDecl | AstKind::ParmVarDecl))
        .filter(|(_, n)| {
            n.data
                .ty
                .as_deref()
                .is_some_and(|t| t.contains("float") || t.contains("double"))
        })
        .filter_map(|(_, n)| n.data.name.clone())
        .collect();
    let ctx = WorkContext { env, float_vars };
    estimate_rec(ast, node, &ctx, true)
}

struct WorkContext<'a> {
    env: &'a ConstEnv,
    float_vars: std::collections::HashSet<String>,
}

fn estimate_rec(
    ast: &Ast,
    node: NodeId,
    ctx: &WorkContext<'_>,
    is_store_context: bool,
) -> WorkEstimate {
    let n = ast.node(node);
    let mut acc = WorkEstimate::default();
    match n.kind {
        AstKind::ForStmt => {
            let children = ast.children(node);
            let trips = trip_count(ast, node, ctx.env).unwrap_or(DEFAULT_UNKNOWN_TRIP_COUNT) as f64;
            // init runs once; cond runs trips+1 times; body and inc run trips times.
            if let Some(&init) = children.first() {
                acc.add_scaled(&estimate_rec(ast, init, ctx, true), 1.0);
            }
            if let Some(&cond) = children.get(1) {
                acc.add_scaled(&estimate_rec(ast, cond, ctx, true), trips + 1.0);
            }
            if let Some(&body) = children.get(2) {
                let body_work = estimate_rec(ast, body, ctx, true);
                acc.add_scaled(&body_work, trips);
                acc.max_loop_depth = acc.max_loop_depth.max(body_work.max_loop_depth + 1);
            }
            if let Some(&inc) = children.get(3) {
                acc.add_scaled(&estimate_rec(ast, inc, ctx, true), trips);
            }
            acc.iterations += trips;
        }
        AstKind::WhileStmt => {
            let trips = DEFAULT_UNKNOWN_TRIP_COUNT as f64;
            for &child in &n.children {
                acc.add_scaled(&estimate_rec(ast, child, ctx, true), trips);
            }
            acc.iterations += trips;
            acc.max_loop_depth = acc.max_loop_depth.max(1);
        }
        AstKind::IfStmt => {
            let children = ast.children(node);
            if let Some(&cond) = children.first() {
                acc.add_scaled(&estimate_rec(ast, cond, ctx, true), 1.0);
            }
            // Each branch executes with probability 1/2 (the paper's rule).
            for &branch in children.iter().skip(1) {
                acc.add_scaled(&estimate_rec(ast, branch, ctx, true), 0.5);
            }
        }
        AstKind::BinaryOperator | AstKind::CompoundAssignOperator => {
            let opcode = n.data.opcode.as_deref().unwrap_or("");
            let is_assign = opcode == "=";
            let is_compare = matches!(opcode, "<" | ">" | "<=" | ">=" | "==" | "!=");
            let float_ctx = subtree_touches_float(ast, node, ctx);
            if is_compare {
                acc.compares += 1.0;
            } else if !is_assign {
                if float_ctx {
                    acc.flops += 1.0;
                } else {
                    acc.int_ops += 1.0;
                }
            }
            // For assignments, the left-hand side is a store target.
            let children = ast.children(node);
            if (is_assign || n.kind == AstKind::CompoundAssignOperator) && !children.is_empty() {
                let lhs = children[0];
                if contains_kind(ast, lhs, AstKind::ArraySubscriptExpr) {
                    acc.stores += 1.0;
                }
                acc.add_scaled(&estimate_rec(ast, lhs, ctx, false), 1.0);
                for &c in &children[1..] {
                    acc.add_scaled(&estimate_rec(ast, c, ctx, true), 1.0);
                }
                return acc;
            }
            for &c in children {
                acc.add_scaled(&estimate_rec(ast, c, ctx, is_store_context), 1.0);
            }
        }
        AstKind::UnaryOperator => {
            if matches!(
                n.data.opcode.as_deref(),
                Some("++") | Some("--") | Some("-") | Some("~")
            ) {
                acc.int_ops += 1.0;
            }
            for &c in &n.children {
                acc.add_scaled(&estimate_rec(ast, c, ctx, is_store_context), 1.0);
            }
        }
        AstKind::ArraySubscriptExpr => {
            // Address arithmetic plus a load (stores were accounted for at the
            // assignment node above).
            acc.int_ops += 1.0;
            if is_store_context {
                acc.loads += 1.0;
            }
            for &c in &n.children {
                acc.add_scaled(&estimate_rec(ast, c, ctx, true), 1.0);
            }
        }
        AstKind::CallExpr => {
            acc.calls += 1.0;
            // Intrinsic math calls are expensive: count them as several flops.
            if let Some(callee) = n.children.first() {
                if let Some(name) = referenced_name(ast, *callee) {
                    let intrinsic_cost = match name.as_str() {
                        "sqrt" | "sqrtf" | "fabs" | "abs" => 4.0,
                        "exp" | "expf" | "log" | "logf" => 8.0,
                        "pow" | "powf" | "sin" | "cos" | "tan" => 12.0,
                        _ => 0.0,
                    };
                    acc.flops += intrinsic_cost;
                }
            }
            for &c in n.children.iter().skip(1) {
                acc.add_scaled(&estimate_rec(ast, c, ctx, true), 1.0);
            }
        }
        _ => {
            for &c in &n.children {
                acc.add_scaled(&estimate_rec(ast, c, ctx, is_store_context), 1.0);
            }
        }
    }
    acc
}

fn contains_kind(ast: &Ast, node: NodeId, kind: AstKind) -> bool {
    ast.preorder_from(node)
        .into_iter()
        .any(|id| ast.kind(id) == kind)
}

fn subtree_touches_float(ast: &Ast, node: NodeId, ctx: &WorkContext<'_>) -> bool {
    ast.preorder_from(node).into_iter().any(|id| {
        let n = ast.node(id);
        matches!(n.kind, AstKind::FloatingLiteral)
            || n.data
                .ty
                .as_deref()
                .is_some_and(|t| t.contains("float") || t.contains("double"))
            || (n.kind == AstKind::DeclRefExpr
                && n.data
                    .name
                    .as_ref()
                    .is_some_and(|name| ctx.float_vars.contains(name)))
    })
}

/// Build a constant environment from the declarations in the AST itself:
/// every variable declared with a constant initialiser contributes a binding.
pub fn collect_const_env(ast: &Ast) -> ConstEnv {
    let mut env = ConstEnv::new();
    for (id, node) in ast.iter() {
        if node.kind == AstKind::VarDecl {
            if let (Some(name), Some(&init)) = (node.data.name.clone(), node.children.first()) {
                if let Some(value) = const_eval(ast, init, &env) {
                    env.insert(name, value);
                }
            }
        }
        let _ = id;
    }
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn first_for(ast: &Ast) -> NodeId {
        ast.find_first(AstKind::ForStmt).unwrap()
    }

    #[test]
    fn const_eval_handles_arithmetic() {
        let ast = parse("void f() { int x = (2 + 3) * 4 - 6 / 2; }").unwrap();
        let var = ast.find_first(AstKind::VarDecl).unwrap();
        let init = ast.children(var)[0];
        assert_eq!(const_eval(&ast, init, &ConstEnv::new()), Some(17));
    }

    #[test]
    fn const_eval_uses_environment() {
        let ast = parse("void f(int n) { int x = n * 2; }").unwrap();
        let var = ast.find_first(AstKind::VarDecl).unwrap();
        let init = ast.children(var)[0];
        assert_eq!(const_eval(&ast, init, &ConstEnv::new()), None);
        let mut env = ConstEnv::new();
        env.insert("n".to_string(), 21);
        assert_eq!(const_eval(&ast, init, &env), Some(42));
    }

    #[test]
    fn const_eval_overflow_is_none_not_panic() {
        // Each of these used to panic under debug assertions (the test
        // profile) before const_eval switched to checked arithmetic.
        let cases = [
            // -(i64::MIN): i64::MIN is spelled -(9223372036854775807) - 1.
            "void f() { int x = -(-9223372036854775807 - 1); }",
            "void f() { int x = (-9223372036854775807 - 1) / -1; }",
            "void f() { int x = (-9223372036854775807 - 1) % -1; }",
            "void f() { int x = 1 / 0; }",
            "void f() { int x = 1 % 0; }",
        ];
        for src in cases {
            let ast = parse(src).unwrap();
            let var = ast.find_first(AstKind::VarDecl).unwrap();
            let init = ast.children(var)[0];
            assert_eq!(const_eval(&ast, init, &ConstEnv::new()), None, "{src}");
        }
        // i64::MIN itself still evaluates.
        let ast = parse("void f() { int x = -9223372036854775807 - 1; }").unwrap();
        let var = ast.find_first(AstKind::VarDecl).unwrap();
        let init = ast.children(var)[0];
        assert_eq!(const_eval(&ast, init, &ConstEnv::new()), Some(i64::MIN));
    }

    #[test]
    fn trip_count_extreme_bounds_do_not_overflow() {
        // bound - 1 underflows for `!=`/`<` at i64::MIN; step negation
        // overflows at i64::MIN; the span can exceed i64. All must yield
        // None or a clamped count, never a panic.
        let cases = [
            "void f() { for (long i = 0; i < -9223372036854775807 - 1; i++) { } }",
            "void f() { for (long i = 9223372036854775807; i > 0; i += -9223372036854775807 - 1) { } }",
            "void f() { for (long i = -9223372036854775807 - 1; i < 9223372036854775807; i++) { } }",
            "void f() { for (long i = 0; i != -9223372036854775807 - 1; i++) { } }",
        ];
        for src in cases {
            let ast = parse(src).unwrap();
            // Must not panic; the resulting trip count may be anything.
            let _ = analyze_for(&ast, first_for(&ast), &ConstEnv::new());
        }
    }

    #[test]
    fn canonical_loop_trip_count_literal_bound() {
        let ast = parse("void f() { for (int i = 0; i < 50; i++) { } }").unwrap();
        let info = analyze_for(&ast, first_for(&ast), &ConstEnv::new()).unwrap();
        assert_eq!(info.counter, "i");
        assert_eq!(info.start, Some(0));
        assert_eq!(info.bound, Some(50));
        assert_eq!(info.step, 1);
        assert_eq!(info.trip_count, Some(50));
    }

    #[test]
    fn trip_count_inclusive_bound_and_steps() {
        let ast = parse("void f() { for (int i = 1; i <= 100; i += 2) { } }").unwrap();
        assert_eq!(
            trip_count(&ast, first_for(&ast), &ConstEnv::new()),
            Some(50)
        );

        let ast = parse("void f() { for (int i = 10; i > 0; i--) { } }").unwrap();
        assert_eq!(
            trip_count(&ast, first_for(&ast), &ConstEnv::new()),
            Some(10)
        );

        let ast = parse("void f() { for (int i = 99; i >= 0; i -= 3) { } }").unwrap();
        assert_eq!(
            trip_count(&ast, first_for(&ast), &ConstEnv::new()),
            Some(34)
        );
    }

    #[test]
    fn trip_count_with_variable_bound_uses_env() {
        let ast = parse("void f(int n) { for (int i = 0; i < n; i++) { } }").unwrap();
        assert_eq!(trip_count(&ast, first_for(&ast), &ConstEnv::new()), None);
        let mut env = ConstEnv::new();
        env.insert("n".to_string(), 2048);
        assert_eq!(trip_count(&ast, first_for(&ast), &env), Some(2048));
    }

    #[test]
    fn trip_count_i_equals_i_plus_c_form() {
        let ast = parse("void f() { for (int i = 0; i < 16; i = i + 4) { } }").unwrap();
        assert_eq!(trip_count(&ast, first_for(&ast), &ConstEnv::new()), Some(4));
    }

    #[test]
    fn trip_count_reversed_comparison() {
        let ast = parse("void f() { for (int i = 0; 50 > i; i++) { } }").unwrap();
        assert_eq!(
            trip_count(&ast, first_for(&ast), &ConstEnv::new()),
            Some(50)
        );
    }

    #[test]
    fn zero_trip_loop() {
        let ast = parse("void f() { for (int i = 10; i < 5; i++) { } }").unwrap();
        assert_eq!(trip_count(&ast, first_for(&ast), &ConstEnv::new()), Some(0));
    }

    #[test]
    fn non_canonical_loop_returns_none() {
        let ast = parse("void f(int n) { for (int i = 0; i * i < n; i++) { } }").unwrap();
        assert!(analyze_for(&ast, first_for(&ast), &ConstEnv::new()).is_none());
    }

    #[test]
    fn classify_for_names_the_defect() {
        let env = ConstEnv::new();
        let cases: &[(&str, LoopShape)] = &[
            (
                "void f(int n) { for (int i = 0; i * i < n; i++) { } }",
                LoopShape::CounterNotInCondition,
            ),
            (
                "void f(int n, int *done) { for (int i = 0; done[i]; i++) { } }",
                LoopShape::NonCanonicalCondition,
            ),
            (
                "void f(int n) { for (int i = 1; i < n; i *= 2) { } }",
                LoopShape::NonConstantStride,
            ),
            (
                "void f(int n, int m) { for (int i = 0; i < n; i += m) { } }",
                LoopShape::NonConstantStride,
            ),
        ];
        for (src, expected) in cases {
            let ast = parse(src).unwrap();
            assert_eq!(
                classify_for(&ast, first_for(&ast), &env),
                Err(*expected),
                "{src}"
            );
        }
        let ok = parse("void f() { for (int i = 0; i < 8; i++) { } }").unwrap();
        assert!(classify_for(&ok, first_for(&ok), &env).is_ok());
        // Non-ForStmt nodes classify as NotAForLoop rather than panicking.
        let root = ok.root();
        assert_eq!(classify_for(&ok, root, &env), Err(LoopShape::NotAForLoop));
    }

    #[test]
    fn loop_nest_records_shape_for_opaque_levels() {
        let src = r#"
            void f(int n, int m) {
                for (int i = 0; i < 8; i++) {
                    for (int j = 0; j < n; j += m) { }
                }
            }
        "#;
        let ast = parse(src).unwrap();
        let nest = loop_nest(&ast, first_for(&ast), &ConstEnv::new());
        assert_eq!(nest.len(), 2);
        assert!(nest[0].info.is_some() && nest[0].shape.is_none());
        assert!(nest[1].info.is_none());
        assert_eq!(nest[1].shape, Some(LoopShape::NonConstantStride));
    }

    #[test]
    fn loop_nest_discovery() {
        let src = r#"
            void f(int n, int m) {
                for (int i = 0; i < 8; i++) {
                    for (int j = 0; j < 16; j++) {
                        for (int k = 0; k < 32; k++) { }
                    }
                }
            }
        "#;
        let ast = parse(src).unwrap();
        let nest = loop_nest(&ast, first_for(&ast), &ConstEnv::new());
        assert_eq!(nest.len(), 3);
        assert_eq!(nest[0].depth, 0);
        assert_eq!(nest[1].depth, 1);
        assert_eq!(nest[2].depth, 2);
        assert_eq!(nest[0].info.as_ref().unwrap().trip_count, Some(8));
        assert_eq!(nest[2].info.as_ref().unwrap().trip_count, Some(32));
    }

    #[test]
    fn distributed_iterations_follow_the_directive_and_its_collapse() {
        let iterations = |src: &str| distributed_iterations(&parse(src).unwrap(), &ConstEnv::new());
        let nest = "for (int i = 0; i < 8; i++) { for (int j = 0; j < n; j++) { } }";
        // No directive: the first loop alone.
        assert_eq!(iterations(&format!("void f(int n) {{ {nest} }}")), 8.0);
        // `collapse(2)` multiplies in the second level; its bound is not
        // static, so it counts as the default trip count.
        let collapsed =
            format!("void f(int n) {{\n#pragma omp parallel for collapse(2)\n{nest}\n}}");
        assert_eq!(
            iterations(&collapsed),
            8.0 * DEFAULT_UNKNOWN_TRIP_COUNT as f64
        );
        // No loop at all: one iteration.
        assert_eq!(iterations("void f() { int x = 1; }"), 1.0);
    }

    #[test]
    fn collapsibility_detection() {
        let collapsible = parse(
            "void f(int n) { for (int i = 0; i < n; i++) { for (int j = 0; j < n; j++) { } } }",
        )
        .unwrap();
        assert!(is_collapsible(&collapsible, first_for(&collapsible)));

        let not_collapsible = parse(
            "void f(int n, float *a) { for (int i = 0; i < n; i++) { a[i] = 0.0; for (int j = 0; j < n; j++) { } } }",
        )
        .unwrap();
        assert!(!is_collapsible(
            &not_collapsible,
            first_for(&not_collapsible)
        ));

        let flat = parse("void f(int n, float *a) { for (int i = 0; i < n; i++) { a[i] = 1.0; } }")
            .unwrap();
        assert!(!is_collapsible(&flat, first_for(&flat)));
    }

    #[test]
    fn work_estimate_scales_with_loop_bounds() {
        let small = parse(
            "void f(float *a, float *b) { for (int i = 0; i < 10; i++) { a[i] = a[i] + b[i]; } }",
        )
        .unwrap();
        let large = parse(
            "void f(float *a, float *b) { for (int i = 0; i < 1000; i++) { a[i] = a[i] + b[i]; } }",
        )
        .unwrap();
        let env = ConstEnv::new();
        let ws = estimate_work(&small, small.root(), &env);
        let wl = estimate_work(&large, large.root(), &env);
        assert!(
            wl.flops > ws.flops * 50.0,
            "flops must scale with trip count"
        );
        assert!(wl.loads > ws.loads * 50.0);
        assert!(wl.stores > ws.stores * 50.0);
        assert!(ws.stores > 0.0);
        assert!(ws.max_loop_depth == 1);
    }

    #[test]
    fn work_estimate_matmul_is_cubic() {
        let src = r#"
            void mm(float *a, float *b, float *c, int n) {
                for (int i = 0; i < n; i++) {
                    for (int j = 0; j < n; j++) {
                        float sum = 0.0;
                        for (int k = 0; k < n; k++) {
                            sum += a[i * n + k] * b[k * n + j];
                        }
                        c[i * n + j] = sum;
                    }
                }
            }
        "#;
        let ast = parse(src).unwrap();
        let mut env = ConstEnv::new();
        env.insert("n".to_string(), 64);
        let w = estimate_work(&ast, ast.root(), &env);
        let n3 = 64.0f64.powi(3);
        // 2 flops per innermost iteration (multiply + add).
        assert!(
            w.flops > 1.5 * n3 && w.flops < 3.0 * n3,
            "flops = {}",
            w.flops
        );
        assert_eq!(w.max_loop_depth, 3);
        assert!(w.loads >= 2.0 * n3);
    }

    #[test]
    fn if_branches_are_half_weighted() {
        let src_then_only = parse(
            "void f(float *a) { for (int i = 0; i < 100; i++) { if (i > 50) { a[i] = a[i] * 2.0; } } }",
        )
        .unwrap();
        let src_unconditional =
            parse("void f(float *a) { for (int i = 0; i < 100; i++) { a[i] = a[i] * 2.0; } }")
                .unwrap();
        let env = ConstEnv::new();
        let w_if = estimate_work(&src_then_only, src_then_only.root(), &env);
        let w_all = estimate_work(&src_unconditional, src_unconditional.root(), &env);
        // The conditional version should do roughly half the multiplications.
        assert!(w_if.flops < w_all.flops * 0.75);
        assert!(w_if.flops > w_all.flops * 0.25);
    }

    #[test]
    fn intrinsic_calls_add_flops() {
        let with_sqrt =
            parse("void f(float *a) { for (int i = 0; i < 10; i++) { a[i] = sqrt(a[i]); } }")
                .unwrap();
        let plain =
            parse("void f(float *a) { for (int i = 0; i < 10; i++) { a[i] = a[i]; } }").unwrap();
        let env = ConstEnv::new();
        let w_sqrt = estimate_work(&with_sqrt, with_sqrt.root(), &env);
        let w_plain = estimate_work(&plain, plain.root(), &env);
        assert!(w_sqrt.calls > 0.0);
        assert!(w_sqrt.flops > w_plain.flops);
    }

    #[test]
    fn collect_const_env_picks_up_constant_declarations() {
        let ast = parse("void f() { int n = 128; int m = n * 2; for (int i = 0; i < m; i++) { } }")
            .unwrap();
        let env = collect_const_env(&ast);
        assert_eq!(env.get("n"), Some(&128));
        assert_eq!(env.get("m"), Some(&256));
        assert_eq!(trip_count(&ast, first_for(&ast), &env), Some(256));
    }
}
