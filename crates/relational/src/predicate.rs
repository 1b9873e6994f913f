//! Selection conditions for SPJ views (paper §4: `cond` is a boolean
//! expression over attributes of the cross product).

use std::fmt;

use crate::error::RelationalError;
#[cfg(test)]
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

/// A comparison operator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    fn eval(self, a: &Value, b: &Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// One side of a comparison: a column position or a constant.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Operand {
    /// Attribute at this position of the input tuple.
    Column(usize),
    /// A literal value.
    Const(Value),
}

impl Operand {
    fn resolve<'a>(
        &'a self,
        arity: usize,
        column: &impl Fn(usize) -> &'a Value,
    ) -> Result<&'a Value, RelationalError> {
        match self {
            Operand::Column(i) if *i < arity => Ok(column(*i)),
            Operand::Column(i) => Err(RelationalError::PositionOutOfRange {
                position: *i,
                arity,
            }),
            Operand::Const(v) => Ok(v),
        }
    }
}

/// A boolean selection predicate over tuples.
///
/// Predicates refer to attributes *positionally*; resolve attribute
/// names with [`crate::Schema::position_of`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Predicate {
    /// Always true (`σ_true` ≡ no selection).
    True,
    /// Always false.
    False,
    /// `lhs op rhs`.
    Cmp {
        /// Left operand.
        lhs: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        rhs: Operand,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// Compare two columns.
    pub fn col_cmp(lhs: usize, op: CmpOp, rhs: usize) -> Predicate {
        Predicate::Cmp {
            lhs: Operand::Column(lhs),
            op,
            rhs: Operand::Column(rhs),
        }
    }

    /// Compare a column against a constant.
    pub fn col_const(lhs: usize, op: CmpOp, rhs: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            lhs: Operand::Column(lhs),
            op,
            rhs: Operand::Const(rhs.into()),
        }
    }

    /// Equality between two columns — the equi-join building block.
    pub fn col_eq(lhs: usize, rhs: usize) -> Predicate {
        Predicate::col_cmp(lhs, CmpOp::Eq, rhs)
    }

    /// Build a comparison between two named attributes of `schema`.
    ///
    /// # Errors
    /// Returns [`RelationalError::UnknownAttribute`] on unresolved names.
    #[cfg(test)]
    fn named_cmp(
        schema: &Schema,
        lhs: &str,
        op: CmpOp,
        rhs: &str,
    ) -> Result<Predicate, RelationalError> {
        Ok(Predicate::col_cmp(
            schema.position_of(lhs)?,
            op,
            schema.position_of(rhs)?,
        ))
    }

    /// Conjunction helper.
    #[must_use]
    pub fn and(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::True, p) | (p, Predicate::True) => p,
            (a, b) => Predicate::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction helper.
    #[must_use]
    pub fn or(self, other: Predicate) -> Predicate {
        match (self, other) {
            (Predicate::False, p) | (p, Predicate::False) => p,
            (a, b) => Predicate::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Negation helper.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        match self {
            Predicate::True => Predicate::False,
            Predicate::False => Predicate::True,
            Predicate::Not(inner) => *inner,
            p => Predicate::Not(Box::new(p)),
        }
    }

    /// Evaluate the predicate on a tuple.
    ///
    /// # Errors
    /// Returns [`RelationalError::PositionOutOfRange`] if a column reference
    /// exceeds the tuple arity.
    pub fn eval(&self, tuple: &Tuple) -> Result<bool, RelationalError> {
        self.eval_values(tuple.values())
    }

    /// Evaluate the predicate on the values of a tuple not yet built.
    ///
    /// # Errors
    /// As [`Predicate::eval`], against `values.len()`.
    pub fn eval_values(&self, values: &[Value]) -> Result<bool, RelationalError> {
        self.eval_columns(values.len(), &|i| &values[i])
    }

    /// Evaluate the predicate on a row of `arity` columns that `column`
    /// reads one at a time — a joined row whose columns sit in several
    /// tuples.
    ///
    /// # Errors
    /// As [`Predicate::eval`], against `arity`.
    pub fn eval_columns<'a>(
        &'a self,
        arity: usize,
        column: &impl Fn(usize) -> &'a Value,
    ) -> Result<bool, RelationalError> {
        match self {
            Predicate::True => Ok(true),
            Predicate::False => Ok(false),
            Predicate::Cmp { lhs, op, rhs } => {
                Ok(op.eval(lhs.resolve(arity, column)?, rhs.resolve(arity, column)?))
            }
            Predicate::And(a, b) => {
                Ok(a.eval_columns(arity, column)? && b.eval_columns(arity, column)?)
            }
            Predicate::Or(a, b) => {
                Ok(a.eval_columns(arity, column)? || b.eval_columns(arity, column)?)
            }
            Predicate::Not(p) => Ok(!p.eval_columns(arity, column)?),
        }
    }

    /// Highest column position referenced, if any. Used to validate a
    /// predicate against a schema arity.
    pub fn max_column(&self) -> Option<usize> {
        match self {
            Predicate::True | Predicate::False => None,
            Predicate::Cmp { lhs, rhs, .. } => {
                let l = match lhs {
                    Operand::Column(i) => Some(*i),
                    Operand::Const(_) => None,
                };
                let r = match rhs {
                    Operand::Column(i) => Some(*i),
                    Operand::Const(_) => None,
                };
                l.max(r)
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => a.max_column().max(b.max_column()),
            Predicate::Not(p) => p.max_column(),
        }
    }

    /// The conjuncts of the AND-skeleton, left to right. `Or`/`Not`
    /// subtrees are atomic conjuncts; `True` contributes nothing.
    pub fn conjuncts(&self) -> Vec<&Predicate> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Predicate>) {
        match self {
            Predicate::True => {}
            Predicate::And(a, b) => {
                a.collect_conjuncts(out);
                b.collect_conjuncts(out);
            }
            p => out.push(p),
        }
    }

    /// All column positions referenced, deduplicated and ascending.
    pub fn columns(&self) -> Vec<usize> {
        let mut cols = std::collections::BTreeSet::new();
        self.collect_columns(&mut cols);
        cols.into_iter().collect()
    }

    fn collect_columns(&self, cols: &mut std::collections::BTreeSet<usize>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Cmp { lhs, rhs, .. } => {
                for operand in [lhs, rhs] {
                    if let Operand::Column(i) = operand {
                        cols.insert(*i);
                    }
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_columns(cols);
                b.collect_columns(cols);
            }
            Predicate::Not(p) => p.collect_columns(cols),
        }
    }

    /// Rewrite every column reference through `f`. Used by the planner
    /// to move a predicate between coordinate systems (product-relative
    /// vs. input-local vs. join-accumulator layouts).
    #[must_use]
    pub fn map_columns(&self, f: &impl Fn(usize) -> usize) -> Predicate {
        let map_operand = |o: &Operand| match o {
            Operand::Column(i) => Operand::Column(f(*i)),
            Operand::Const(v) => Operand::Const(v.clone()),
        };
        match self {
            Predicate::True => Predicate::True,
            Predicate::False => Predicate::False,
            Predicate::Cmp { lhs, op, rhs } => Predicate::Cmp {
                lhs: map_operand(lhs),
                op: *op,
                rhs: map_operand(rhs),
            },
            Predicate::And(a, b) => {
                Predicate::And(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Predicate::Or(a, b) => {
                Predicate::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Predicate::Not(p) => Predicate::Not(Box::new(p.map_columns(f))),
        }
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Cmp { lhs, op, rhs } => {
                let fmt_op = |o: &Operand, f: &mut fmt::Formatter<'_>| match o {
                    Operand::Column(i) => write!(f, "#{i}"),
                    Operand::Const(v) => write!(f, "{v:?}"),
                };
                fmt_op(lhs, f)?;
                write!(f, "{op}")?;
                fmt_op(rhs, f)
            }
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(p) => write!(f, "NOT {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparisons() {
        let t = Tuple::ints([1, 2]);
        assert!(Predicate::col_cmp(0, CmpOp::Lt, 1).eval(&t).unwrap());
        assert!(!Predicate::col_cmp(0, CmpOp::Gt, 1).eval(&t).unwrap());
        assert!(Predicate::col_const(1, CmpOp::Eq, 2).eval(&t).unwrap());
        assert!(Predicate::col_const(1, CmpOp::Ne, 3).eval(&t).unwrap());
        assert!(Predicate::col_const(0, CmpOp::Le, 1).eval(&t).unwrap());
        assert!(Predicate::col_const(1, CmpOp::Ge, 2).eval(&t).unwrap());
    }

    #[test]
    fn boolean_combinators() {
        let t = Tuple::ints([5]);
        let p = Predicate::col_const(0, CmpOp::Gt, 0).and(Predicate::col_const(0, CmpOp::Lt, 10));
        assert!(p.eval(&t).unwrap());
        let q = Predicate::col_const(0, CmpOp::Gt, 9).or(Predicate::col_const(0, CmpOp::Lt, 1));
        assert!(!q.eval(&t).unwrap());
        assert!(q.not().eval(&t).unwrap());
    }

    #[test]
    fn simplification_identities() {
        assert_eq!(Predicate::True.and(Predicate::False), Predicate::False);
        assert_eq!(Predicate::False.or(Predicate::True), Predicate::True);
        assert_eq!(Predicate::True.not(), Predicate::False);
        let p = Predicate::col_eq(0, 1);
        assert_eq!(p.clone().not().not(), p);
    }

    #[test]
    fn out_of_range_column_errors() {
        let t = Tuple::ints([1]);
        assert!(Predicate::col_eq(0, 5).eval(&t).is_err());
    }

    #[test]
    fn values_evaluate_as_their_tuple_does() {
        let p = Predicate::col_cmp(0, CmpOp::Gt, 1).and(Predicate::col_const(2, CmpOp::Eq, 7));
        for t in [
            Tuple::ints([5, 1, 7]),
            Tuple::ints([1, 5, 7]),
            Tuple::ints([5, 1]),
        ] {
            assert_eq!(p.eval_values(t.values()), p.eval(&t));
        }
    }

    #[test]
    fn named_cmp_resolves() {
        let s = Schema::new("r", &["W", "Z"]);
        let p = Predicate::named_cmp(&s, "W", CmpOp::Gt, "Z").unwrap();
        assert!(p.eval(&Tuple::ints([5, 1])).unwrap());
        assert!(!p.eval(&Tuple::ints([1, 5])).unwrap());
        assert!(Predicate::named_cmp(&s, "Q", CmpOp::Gt, "Z").is_err());
    }

    #[test]
    fn max_column_tracks_references() {
        assert_eq!(Predicate::True.max_column(), None);
        assert_eq!(Predicate::col_eq(1, 3).max_column(), Some(3));
        let p = Predicate::col_eq(0, 1).and(Predicate::col_const(7, CmpOp::Eq, 2));
        assert_eq!(p.max_column(), Some(7));
    }

    #[test]
    fn equijoin_pairs_found_in_conjunctions() {
        let p = Predicate::col_eq(1, 2)
            .and(Predicate::col_eq(3, 4))
            .and(Predicate::col_cmp(0, CmpOp::Gt, 5));
        let edges = |p: &Predicate| crate::planner::TermPlan::new(vec![2, 2, 2], p).edges;
        assert_eq!(edges(&p), vec![(1, 2), (3, 4)]);
        // Disjunctions are not equi-join opportunities.
        let q = Predicate::col_eq(1, 2).or(Predicate::col_eq(3, 4));
        assert!(edges(&q).is_empty());
    }

    #[test]
    fn display_round() {
        let p = Predicate::col_cmp(0, CmpOp::Gt, 3).and(Predicate::col_const(1, CmpOp::Eq, 5));
        assert_eq!(p.to_string(), "(#0>#3 AND #1=5)");
    }

    #[test]
    fn mixed_type_comparison_uses_total_order() {
        // Ints sort before strings in the Value order.
        let t = Tuple::new([Value::Int(1), Value::str("a")]);
        assert!(Predicate::col_cmp(0, CmpOp::Lt, 1).eval(&t).unwrap());
    }
}
