//! Clang-style abstract syntax tree.
//!
//! Nodes live in an arena ([`Ast`]) and reference each other by [`NodeId`].
//! The node-kind vocabulary deliberately mirrors Clang's AST class names
//! because ParaGraph's construction rules (Section III of the paper) are
//! phrased in terms of those classes (`ForStmt`, `IfStmt`, `DeclRefExpr`,
//! `CompoundStmt`, ...).
//!
//! Child ordering conventions (used by the ParaGraph builder and the
//! analyses):
//!
//! * `ForStmt` children: `[init, cond, body, increment]` — the order used in
//!   Figure 2 of the paper (ForExec: init→cond, cond→body; ForNext:
//!   body→inc, inc→cond).
//! * `IfStmt` children: `[cond, then, else?]`.
//! * `OMP*Directive` children: `[associated statement]`.

use crate::omp::OmpDirective;
use crate::token::SourceLocation;
use serde::{Deserialize, Serialize};

/// Index of a node inside an [`Ast`] arena.
pub type NodeId = usize;

/// Clang-style AST node kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum AstKind {
    TranslationUnitDecl,
    FunctionDecl,
    ParmVarDecl,
    VarDecl,
    CompoundStmt,
    DeclStmt,
    ForStmt,
    WhileStmt,
    IfStmt,
    ReturnStmt,
    BreakStmt,
    ContinueStmt,
    NullStmt,
    CallExpr,
    ArraySubscriptExpr,
    BinaryOperator,
    CompoundAssignOperator,
    UnaryOperator,
    ConditionalOperator,
    ImplicitCastExpr,
    CStyleCastExpr,
    DeclRefExpr,
    IntegerLiteral,
    FloatingLiteral,
    StringLiteral,
    CharacterLiteral,
    ParenExpr,
    MemberExpr,
    InitListExpr,
    OmpParallelForDirective,
    OmpTargetTeamsDistributeParallelForDirective,
    OmpTargetDataDirective,
    OmpSimdDirective,
    OmpUnknownDirective,
}

impl AstKind {
    /// All kinds, in a fixed order used for one-hot node-feature encoding.
    pub const ALL: [AstKind; 34] = [
        AstKind::TranslationUnitDecl,
        AstKind::FunctionDecl,
        AstKind::ParmVarDecl,
        AstKind::VarDecl,
        AstKind::CompoundStmt,
        AstKind::DeclStmt,
        AstKind::ForStmt,
        AstKind::WhileStmt,
        AstKind::IfStmt,
        AstKind::ReturnStmt,
        AstKind::BreakStmt,
        AstKind::ContinueStmt,
        AstKind::NullStmt,
        AstKind::CallExpr,
        AstKind::ArraySubscriptExpr,
        AstKind::BinaryOperator,
        AstKind::CompoundAssignOperator,
        AstKind::UnaryOperator,
        AstKind::ConditionalOperator,
        AstKind::ImplicitCastExpr,
        AstKind::CStyleCastExpr,
        AstKind::DeclRefExpr,
        AstKind::IntegerLiteral,
        AstKind::FloatingLiteral,
        AstKind::StringLiteral,
        AstKind::CharacterLiteral,
        AstKind::ParenExpr,
        AstKind::MemberExpr,
        AstKind::InitListExpr,
        AstKind::OmpParallelForDirective,
        AstKind::OmpTargetTeamsDistributeParallelForDirective,
        AstKind::OmpTargetDataDirective,
        AstKind::OmpSimdDirective,
        AstKind::OmpUnknownDirective,
    ];

    /// Stable index of this kind within [`AstKind::ALL`].
    pub fn index(self) -> usize {
        AstKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("kind missing from AstKind::ALL")
    }

    /// Clang-style class name.
    pub fn name(self) -> &'static str {
        match self {
            AstKind::TranslationUnitDecl => "TranslationUnitDecl",
            AstKind::FunctionDecl => "FunctionDecl",
            AstKind::ParmVarDecl => "ParmVarDecl",
            AstKind::VarDecl => "VarDecl",
            AstKind::CompoundStmt => "CompoundStmt",
            AstKind::DeclStmt => "DeclStmt",
            AstKind::ForStmt => "ForStmt",
            AstKind::WhileStmt => "WhileStmt",
            AstKind::IfStmt => "IfStmt",
            AstKind::ReturnStmt => "ReturnStmt",
            AstKind::BreakStmt => "BreakStmt",
            AstKind::ContinueStmt => "ContinueStmt",
            AstKind::NullStmt => "NullStmt",
            AstKind::CallExpr => "CallExpr",
            AstKind::ArraySubscriptExpr => "ArraySubscriptExpr",
            AstKind::BinaryOperator => "BinaryOperator",
            AstKind::CompoundAssignOperator => "CompoundAssignOperator",
            AstKind::UnaryOperator => "UnaryOperator",
            AstKind::ConditionalOperator => "ConditionalOperator",
            AstKind::ImplicitCastExpr => "ImplicitCastExpr",
            AstKind::CStyleCastExpr => "CStyleCastExpr",
            AstKind::DeclRefExpr => "DeclRefExpr",
            AstKind::IntegerLiteral => "IntegerLiteral",
            AstKind::FloatingLiteral => "FloatingLiteral",
            AstKind::StringLiteral => "StringLiteral",
            AstKind::CharacterLiteral => "CharacterLiteral",
            AstKind::ParenExpr => "ParenExpr",
            AstKind::MemberExpr => "MemberExpr",
            AstKind::InitListExpr => "InitListExpr",
            AstKind::OmpParallelForDirective => "OMPParallelForDirective",
            AstKind::OmpTargetTeamsDistributeParallelForDirective => {
                "OMPTargetTeamsDistributeParallelForDirective"
            }
            AstKind::OmpTargetDataDirective => "OMPTargetDataDirective",
            AstKind::OmpSimdDirective => "OMPSimdDirective",
            AstKind::OmpUnknownDirective => "OMPUnknownDirective",
        }
    }

    /// True for declaration nodes.
    pub fn is_decl(self) -> bool {
        matches!(
            self,
            AstKind::TranslationUnitDecl
                | AstKind::FunctionDecl
                | AstKind::ParmVarDecl
                | AstKind::VarDecl
        )
    }

    /// True for expression nodes.
    pub fn is_expr(self) -> bool {
        matches!(
            self,
            AstKind::CallExpr
                | AstKind::ArraySubscriptExpr
                | AstKind::BinaryOperator
                | AstKind::CompoundAssignOperator
                | AstKind::UnaryOperator
                | AstKind::ConditionalOperator
                | AstKind::ImplicitCastExpr
                | AstKind::CStyleCastExpr
                | AstKind::DeclRefExpr
                | AstKind::IntegerLiteral
                | AstKind::FloatingLiteral
                | AstKind::StringLiteral
                | AstKind::CharacterLiteral
                | AstKind::ParenExpr
                | AstKind::MemberExpr
                | AstKind::InitListExpr
        )
    }

    /// True for OpenMP executable-directive nodes.
    pub fn is_omp_directive(self) -> bool {
        matches!(
            self,
            AstKind::OmpParallelForDirective
                | AstKind::OmpTargetTeamsDistributeParallelForDirective
                | AstKind::OmpTargetDataDirective
                | AstKind::OmpSimdDirective
                | AstKind::OmpUnknownDirective
        )
    }
}

/// Data attached to a node, depending on its kind.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct NodeData {
    /// Identifier name (functions, variables, parameters, DeclRefExpr, members).
    pub name: Option<String>,
    /// Declared type spelling (declarations) or cast target type.
    pub ty: Option<String>,
    /// Operator spelling for BinaryOperator / UnaryOperator / CompoundAssignOperator.
    pub opcode: Option<String>,
    /// Integer literal value.
    pub int_value: Option<i64>,
    /// Floating-point literal value.
    pub float_value: Option<f64>,
    /// String or character literal spelling.
    pub literal: Option<String>,
    /// Array dimensions for array declarations (constant sizes where known).
    pub array_dims: Vec<Option<i64>>,
    /// OpenMP directive payload for `Omp*Directive` nodes.
    pub omp: Option<OmpDirective>,
    /// True for unary/compound operators in postfix position (`i++`).
    pub postfix: bool,
    /// Source location of the token that introduced the node, when the
    /// parser recorded one. Used by diagnostics to point at the offending
    /// construct.
    pub loc: Option<SourceLocation>,
}

/// One AST node in the arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AstNode {
    /// Node kind.
    pub kind: AstKind,
    /// Children in source order (see module docs for per-kind conventions).
    pub children: Vec<NodeId>,
    /// Parent node, `None` only for the root.
    pub parent: Option<NodeId>,
    /// Kind-specific payload.
    pub data: NodeData,
}

/// AST arena for one translation unit (typically: one kernel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ast {
    nodes: Vec<AstNode>,
    root: NodeId,
}

impl Ast {
    /// Create an AST containing only a `TranslationUnitDecl` root.
    pub fn new() -> Self {
        let root = AstNode {
            kind: AstKind::TranslationUnitDecl,
            children: Vec::new(),
            parent: None,
            data: NodeData::default(),
        };
        Self {
            nodes: vec![root],
            root: 0,
        }
    }

    /// Root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the AST only contains the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &AstNode {
        &self.nodes[id]
    }

    /// Mutably borrow a node.
    pub fn node_mut(&mut self, id: NodeId) -> &mut AstNode {
        &mut self.nodes[id]
    }

    /// Append a new node (initially unattached) and return its id.
    pub fn add_node(&mut self, kind: AstKind, data: NodeData) -> NodeId {
        self.nodes.push(AstNode {
            kind,
            children: Vec::new(),
            parent: None,
            data,
        });
        self.nodes.len() - 1
    }

    /// Append a node with default data.
    pub fn add_simple(&mut self, kind: AstKind) -> NodeId {
        self.add_node(kind, NodeData::default())
    }

    /// Attach `child` as the last child of `parent`.
    ///
    /// # Panics
    /// Panics if the child already has a parent (nodes form a tree).
    pub fn attach(&mut self, parent: NodeId, child: NodeId) {
        assert!(
            self.nodes[child].parent.is_none(),
            "node {child} already has a parent"
        );
        assert_ne!(parent, child, "a node cannot be its own parent");
        self.nodes[child].parent = Some(parent);
        self.nodes[parent].children.push(child);
    }

    /// Children of a node.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id].children
    }

    /// Kind of a node.
    pub fn kind(&self, id: NodeId) -> AstKind {
        self.nodes[id].kind
    }

    /// True when the node has no children (a syntax *token* in the paper's
    /// terminology, as opposed to a syntax *node*).
    pub fn is_terminal(&self, id: NodeId) -> bool {
        self.nodes[id].children.is_empty()
    }

    /// Pre-order (depth-first, children in source order) traversal from the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        self.preorder_from(self.root)
    }

    /// Pre-order traversal from an arbitrary node.
    pub fn preorder_from(&self, start: NodeId) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![start];
        while let Some(id) = stack.pop() {
            order.push(id);
            // Push children in reverse so they pop in source order.
            for &c in self.nodes[id].children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// All node ids whose kind matches `kind`, in pre-order.
    pub fn find_all(&self, kind: AstKind) -> Vec<NodeId> {
        self.preorder()
            .into_iter()
            .filter(|&id| self.nodes[id].kind == kind)
            .collect()
    }

    /// First node of the given kind in pre-order, if any.
    pub fn find_first(&self, kind: AstKind) -> Option<NodeId> {
        self.preorder()
            .into_iter()
            .find(|&id| self.nodes[id].kind == kind)
    }

    /// Depth of a node (root is 0).
    pub fn depth(&self, id: NodeId) -> usize {
        let mut depth = 0;
        let mut current = id;
        while let Some(parent) = self.nodes[current].parent {
            depth += 1;
            current = parent;
        }
        depth
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.preorder_from(id).len()
    }

    /// Enclosing ancestors of a node, nearest first (excluding the node itself).
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut current = id;
        while let Some(parent) = self.nodes[current].parent {
            out.push(parent);
            current = parent;
        }
        out
    }

    /// Validate structural invariants of the tree. Used by property tests and
    /// debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("AST has no nodes".into());
        }
        if self.nodes[self.root].parent.is_some() {
            return Err("root must not have a parent".into());
        }
        let mut seen_as_child = vec![false; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                if c >= self.nodes.len() {
                    return Err(format!("node {id} has out-of-range child {c}"));
                }
                if self.nodes[c].parent != Some(id) {
                    return Err(format!("child {c} of {id} has inconsistent parent link"));
                }
                if seen_as_child[c] {
                    return Err(format!("node {c} appears as a child more than once"));
                }
                seen_as_child[c] = true;
            }
        }
        // Every non-root node must be reachable from the root.
        let reachable = self.preorder().len();
        let attached = seen_as_child.iter().filter(|&&s| s).count() + 1;
        if reachable != attached {
            return Err(format!(
                "reachable nodes ({reachable}) differ from attached nodes ({attached})"
            ));
        }
        Ok(())
    }

    /// Iterate over `(id, node)` pairs in arena order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &AstNode)> {
        self.nodes.iter().enumerate()
    }
}

impl Default for Ast {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience builders for node payloads.
impl NodeData {
    /// Payload carrying just a name.
    pub fn named(name: impl Into<String>) -> Self {
        NodeData {
            name: Some(name.into()),
            ..NodeData::default()
        }
    }

    /// Payload for a variable/parameter declaration.
    pub fn decl(name: impl Into<String>, ty: impl Into<String>) -> Self {
        NodeData {
            name: Some(name.into()),
            ty: Some(ty.into()),
            ..NodeData::default()
        }
    }

    /// Payload for an operator node.
    pub fn op(opcode: impl Into<String>) -> Self {
        NodeData {
            opcode: Some(opcode.into()),
            ..NodeData::default()
        }
    }

    /// Payload for an integer literal.
    pub fn int(value: i64) -> Self {
        NodeData {
            int_value: Some(value),
            literal: Some(value.to_string()),
            ..NodeData::default()
        }
    }

    /// Payload for a floating literal.
    pub fn float(value: f64) -> Self {
        NodeData {
            float_value: Some(value),
            literal: Some(format!("{value}")),
            ..NodeData::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> Ast {
        // int x; x = 50;
        let mut ast = Ast::new();
        let func = ast.add_node(AstKind::FunctionDecl, NodeData::named("main"));
        ast.attach(ast.root(), func);
        let body = ast.add_simple(AstKind::CompoundStmt);
        ast.attach(func, body);
        let decl_stmt = ast.add_simple(AstKind::DeclStmt);
        ast.attach(body, decl_stmt);
        let var = ast.add_node(AstKind::VarDecl, NodeData::decl("x", "int"));
        ast.attach(decl_stmt, var);
        let assign = ast.add_node(AstKind::BinaryOperator, NodeData::op("="));
        ast.attach(body, assign);
        let dre = ast.add_node(AstKind::DeclRefExpr, NodeData::named("x"));
        ast.attach(assign, dre);
        let lit = ast.add_node(AstKind::IntegerLiteral, NodeData::int(50));
        ast.attach(assign, lit);
        ast
    }

    #[test]
    fn build_and_validate_small_tree() {
        let ast = small_tree();
        assert_eq!(ast.len(), 8);
        ast.validate().unwrap();
        assert_eq!(ast.kind(ast.root()), AstKind::TranslationUnitDecl);
    }

    #[test]
    fn preorder_visits_children_in_source_order() {
        let ast = small_tree();
        let order = ast.preorder();
        assert_eq!(order.len(), ast.len());
        assert_eq!(order[0], ast.root());
        // The DeclStmt subtree must come before the assignment subtree.
        let decl_pos = order
            .iter()
            .position(|&id| ast.kind(id) == AstKind::DeclStmt)
            .unwrap();
        let assign_pos = order
            .iter()
            .position(|&id| ast.kind(id) == AstKind::BinaryOperator)
            .unwrap();
        assert!(decl_pos < assign_pos);
    }

    #[test]
    fn terminals_and_depths() {
        let ast = small_tree();
        let lit = ast.find_first(AstKind::IntegerLiteral).unwrap();
        assert!(ast.is_terminal(lit));
        assert!(!ast.is_terminal(ast.root()));
        assert_eq!(ast.depth(ast.root()), 0);
        assert_eq!(ast.depth(lit), 3 + 1); // root -> func -> body -> assign -> literal
        let ancestors = ast.ancestors(lit);
        assert_eq!(ancestors.len(), 4);
        assert_eq!(*ancestors.last().unwrap(), ast.root());
    }

    #[test]
    fn find_all_and_subtree_size() {
        let ast = small_tree();
        assert_eq!(ast.find_all(AstKind::DeclRefExpr).len(), 1);
        assert_eq!(ast.find_all(AstKind::WhileStmt).len(), 0);
        let func = ast.find_first(AstKind::FunctionDecl).unwrap();
        assert_eq!(ast.subtree_size(func), 7);
    }

    #[test]
    #[should_panic(expected = "already has a parent")]
    fn double_attach_panics() {
        let mut ast = Ast::new();
        let a = ast.add_simple(AstKind::CompoundStmt);
        let b = ast.add_simple(AstKind::NullStmt);
        ast.attach(a, b);
        ast.attach(ast.root(), b);
    }

    #[test]
    fn validate_detects_corruption() {
        let mut ast = small_tree();
        // Corrupt a parent link directly.
        let lit = ast.find_first(AstKind::IntegerLiteral).unwrap();
        ast.node_mut(lit).parent = None;
        assert!(ast.validate().is_err());
    }

    #[test]
    fn kind_index_is_consistent_with_all() {
        for (i, kind) in AstKind::ALL.iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn kind_classification() {
        assert!(AstKind::VarDecl.is_decl());
        assert!(AstKind::BinaryOperator.is_expr());
        assert!(AstKind::OmpParallelForDirective.is_omp_directive());
        assert!(!AstKind::ForStmt.is_expr());
        assert!(!AstKind::ForStmt.is_decl());
    }

    #[test]
    fn ast_serialization_round_trip() {
        let ast = small_tree();
        let json = serde_json::to_string(&ast).unwrap();
        let back: Ast = serde_json::from_str(&json).unwrap();
        assert_eq!(ast, back);
    }
}
