//! The expression AST.

use std::collections::BTreeSet;
use std::fmt;

use skalla_types::Value;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Numeric addition.
    Add,
    /// Numeric subtraction.
    Sub,
    /// Numeric multiplication.
    Mul,
    /// Division; always produces `FLOAT64` (SQL-style `AVG`-friendly
    /// semantics, matching the paper's `sum1/cnt1` usage in Example 1).
    Div,
    /// Integer modulo.
    Mod,
    /// Equality (null-propagating).
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Kleene conjunction.
    And,
    /// Kleene disjunction.
    Or,
}

impl BinOp {
    /// `true` for `Eq | Ne | Lt | Le | Gt | Ge`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }

    /// `true` for arithmetic operators.
    pub fn is_arithmetic(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
        )
    }

    /// The comparison with operand sides swapped (`a < b` ⇔ `b > a`); identity
    /// for symmetric and non-comparison operators.
    pub fn flip(self) -> BinOp {
        match self {
            BinOp::Lt => BinOp::Gt,
            BinOp::Le => BinOp::Ge,
            BinOp::Gt => BinOp::Lt,
            BinOp::Ge => BinOp::Le,
            other => other,
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        };
        write!(f, "{s}")
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Numeric negation.
    Neg,
    /// Logical negation (Kleene: `NOT NULL = NULL`).
    Not,
    /// `IS NULL` — never null itself.
    IsNull,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => write!(f, "-"),
            UnOp::Not => write!(f, "NOT"),
            UnOp::IsNull => write!(f, "IS NULL"),
        }
    }
}

/// A scalar expression over a pair of tuple contexts: a *base* tuple `b ∈ B`
/// and a *detail* tuple `r ∈ R` (paper Definition 1).
///
/// Expressions that only reference one side are evaluated with
/// [`crate::eval_base`] / [`crate::eval_detail`].
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Lit(Value),
    /// Reference to column `i` of the base tuple.
    BaseCol(usize),
    /// Reference to column `i` of the detail tuple.
    DetailCol(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Set membership test `expr IN {v₁, …}` (null-propagating on the
    /// needle). Produced by the group-reduction analysis for partition-value
    /// membership and usable directly in queries.
    InSet {
        /// The needle expression.
        expr: Box<Expr>,
        /// The (sorted, deduplicated) haystack.
        set: BTreeSet<Value>,
    },
}

#[allow(clippy::should_implement_trait)] // builder DSL mirrors SQL operator names
impl Expr {
    /// Literal constructor.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// Base-column reference.
    pub fn base(i: usize) -> Expr {
        Expr::BaseCol(i)
    }

    /// Detail-column reference.
    pub fn detail(i: usize) -> Expr {
        Expr::DetailCol(i)
    }

    /// Generic binary node.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Eq, self, rhs)
    }

    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Ne, self, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Lt, self, rhs)
    }

    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Le, self, rhs)
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Gt, self, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Ge, self, rhs)
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::And, self, rhs)
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Or, self, rhs)
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Add, self, rhs)
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Sub, self, rhs)
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mul, self, rhs)
    }

    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Div, self, rhs)
    }

    /// `self % rhs`.
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::binary(BinOp::Mod, self, rhs)
    }

    /// `NOT self`.
    pub fn not(self) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(self),
        }
    }

    /// `-self`.
    pub fn neg(self) -> Expr {
        Expr::Unary {
            op: UnOp::Neg,
            expr: Box::new(self),
        }
    }

    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::Unary {
            op: UnOp::IsNull,
            expr: Box::new(self),
        }
    }

    /// `self IN set`.
    pub fn in_set(self, set: impl IntoIterator<Item = Value>) -> Expr {
        Expr::InSet {
            expr: Box::new(self),
            set: set.into_iter().collect(),
        }
    }

    /// Fold an iterator of predicates into a conjunction; `TRUE` when empty.
    pub fn conjunction(preds: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = preds.into_iter();
        match it.next() {
            None => Expr::lit(true),
            Some(first) => it.fold(first, |acc, p| acc.and(p)),
        }
    }

    /// Fold an iterator of predicates into a disjunction; `FALSE` when empty.
    pub fn disjunction(preds: impl IntoIterator<Item = Expr>) -> Expr {
        let mut it = preds.into_iter();
        match it.next() {
            None => Expr::lit(false),
            Some(first) => it.fold(first, |acc, p| acc.or(p)),
        }
    }

    /// `true` if the expression references no detail columns (it can be
    /// evaluated on a base tuple alone).
    pub fn is_base_only(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::BaseCol(_) => true,
            Expr::DetailCol(_) => false,
            Expr::Binary { lhs, rhs, .. } => lhs.is_base_only() && rhs.is_base_only(),
            Expr::Unary { expr, .. } => expr.is_base_only(),
            Expr::InSet { expr, .. } => expr.is_base_only(),
        }
    }

    /// `true` if the expression references no base columns.
    pub fn is_detail_only(&self) -> bool {
        match self {
            Expr::Lit(_) | Expr::DetailCol(_) => true,
            Expr::BaseCol(_) => false,
            Expr::Binary { lhs, rhs, .. } => lhs.is_detail_only() && rhs.is_detail_only(),
            Expr::Unary { expr, .. } => expr.is_detail_only(),
            Expr::InSet { expr, .. } => expr.is_detail_only(),
        }
    }

    /// Rewrite every column reference through the supplied maps (`None`
    /// leaves the side unchanged). Used when coalescing GMDJs and when
    /// re-basing a condition onto a wider base schema.
    pub fn remap_cols(
        &self,
        map_base: Option<&dyn Fn(usize) -> usize>,
        map_detail: Option<&dyn Fn(usize) -> usize>,
    ) -> Expr {
        match self {
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::BaseCol(i) => Expr::BaseCol(map_base.map_or(*i, |f| f(*i))),
            Expr::DetailCol(i) => Expr::DetailCol(map_detail.map_or(*i, |f| f(*i))),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.remap_cols(map_base, map_detail)),
                rhs: Box::new(rhs.remap_cols(map_base, map_detail)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.remap_cols(map_base, map_detail)),
            },
            Expr::InSet { expr, set } => Expr::InSet {
                expr: Box::new(expr.remap_cols(map_base, map_detail)),
                set: set.clone(),
            },
        }
    }

    /// Re-address every column as a *detail* column: base column `i`
    /// becomes `r.map_base(i)` and detail column `j` becomes
    /// `r.map_detail(j)`. The result reads one row that holds both sides,
    /// which lets a base-referencing condition be evaluated over lanes
    /// gathered from `(base row, detail row)` pairs.
    pub fn base_into_detail(
        &self,
        map_base: &dyn Fn(usize) -> usize,
        map_detail: &dyn Fn(usize) -> usize,
    ) -> Expr {
        match self {
            Expr::BaseCol(i) => Expr::DetailCol(map_base(*i)),
            Expr::DetailCol(j) => Expr::DetailCol(map_detail(*j)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Binary { op, lhs, rhs } => Expr::Binary {
                op: *op,
                lhs: Box::new(lhs.base_into_detail(map_base, map_detail)),
                rhs: Box::new(rhs.base_into_detail(map_base, map_detail)),
            },
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: Box::new(expr.base_into_detail(map_base, map_detail)),
            },
            Expr::InSet { expr, set } => Expr::InSet {
                expr: Box::new(expr.base_into_detail(map_base, map_detail)),
                set: set.clone(),
            },
        }
    }

    /// Number of AST nodes (used by tests and plan-complexity heuristics).
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Lit(_) | Expr::BaseCol(_) | Expr::DetailCol(_) => 1,
            Expr::Binary { lhs, rhs, .. } => 1 + lhs.node_count() + rhs.node_count(),
            Expr::Unary { expr, .. } => 1 + expr.node_count(),
            Expr::InSet { expr, .. } => 1 + expr.node_count(),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::BaseCol(i) => write!(f, "b.{i}"),
            Expr::DetailCol(i) => write!(f, "r.{i}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            Expr::Unary {
                op: UnOp::IsNull,
                expr,
            } => write!(f, "({expr} IS NULL)"),
            Expr::Unary { op, expr } => write!(f, "({op} {expr})"),
            Expr::InSet { expr, set } => {
                write!(f, "({expr} IN {{")?;
                for (i, v) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_expected_shapes() {
        let e = Expr::base(0)
            .eq(Expr::detail(1))
            .and(Expr::lit(5).lt(Expr::detail(2)));
        assert_eq!(e.node_count(), 7);
        assert!(!e.is_base_only());
        assert!(!e.is_detail_only());
        assert_eq!(e.to_string(), "((b.0 = r.1) AND (5 < r.2))");
    }

    #[test]
    fn side_detection() {
        assert!(Expr::base(0).add(Expr::lit(1)).is_base_only());
        assert!(Expr::detail(3).is_detail_only());
        assert!(Expr::lit(1).is_base_only() && Expr::lit(1).is_detail_only());
        assert!(Expr::base(0).in_set([Value::Int(1)]).is_base_only());
        assert!(!Expr::detail(0).in_set([Value::Int(1)]).is_base_only());
    }

    #[test]
    fn conjunction_and_disjunction_fold() {
        assert_eq!(Expr::conjunction([]), Expr::lit(true));
        assert_eq!(Expr::disjunction([]), Expr::lit(false));
        let c = Expr::conjunction([Expr::lit(true), Expr::lit(false)]);
        assert_eq!(c.to_string(), "(true AND false)");
    }

    #[test]
    fn remap_rewrites_each_side_independently() {
        let e = Expr::base(1).eq(Expr::detail(2));
        let shifted = e.remap_cols(Some(&|i| i + 10), None);
        assert_eq!(shifted.to_string(), "(b.11 = r.2)");
        let shifted2 = e.remap_cols(None, Some(&|i| i + 1));
        assert_eq!(shifted2.to_string(), "(b.1 = r.3)");
    }

    #[test]
    fn base_into_detail_reads_one_combined_row() {
        let e = Expr::detail(4)
            .ge(Expr::base(2).add(Expr::base(0)))
            .and(Expr::detail(1).is_null().not());
        let d = e.base_into_detail(&|i| i + 5, &|j| j * 2);
        assert_eq!(
            d.to_string(),
            "((r.8 >= (r.7 + r.5)) AND (NOT (r.2 IS NULL)))"
        );
        assert!(d.is_detail_only());
    }

    #[test]
    fn flip_swaps_comparison_direction() {
        assert_eq!(BinOp::Lt.flip(), BinOp::Gt);
        assert_eq!(BinOp::Ge.flip(), BinOp::Le);
        assert_eq!(BinOp::Eq.flip(), BinOp::Eq);
        assert_eq!(BinOp::Add.flip(), BinOp::Add);
    }

    #[test]
    fn display_covers_all_nodes() {
        assert_eq!(Expr::lit("x").to_string(), "'x'");
        assert_eq!(Expr::base(0).neg().to_string(), "(- b.0)");
        assert_eq!(Expr::base(0).not().to_string(), "(NOT b.0)");
        assert_eq!(Expr::base(0).is_null().to_string(), "(b.0 IS NULL)");
        let e = Expr::base(0).in_set([Value::Int(2), Value::Int(1)]);
        assert_eq!(e.to_string(), "(b.0 IN {1, 2})");
    }

    #[test]
    fn op_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(!BinOp::And.is_comparison());
        assert!(BinOp::Mul.is_arithmetic());
        assert!(!BinOp::Lt.is_arithmetic());
    }
}
