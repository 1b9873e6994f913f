//! Tuples and signed tuples (paper §4.1).

use std::fmt;
use std::sync::Arc;

use crate::value::Value;

/// An immutable tuple of values.
///
/// Tuples are reference-counted so that they can be shared between base
/// relations, indexes, in-flight queries and materialized views without
/// copying payloads.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Build a tuple from any iterable of values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Self {
        Tuple(values.into_iter().collect())
    }

    /// Convenience constructor for all-integer tuples, matching the paper's
    /// examples (e.g. `[1,2]`).
    pub fn ints(values: impl IntoIterator<Item = i64>) -> Self {
        Tuple(values.into_iter().map(Value::Int).collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Whether the tuple has no attributes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The value at position `i`, if in range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// All values as a slice.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Project onto the given positions. Positions may repeat or reorder.
    ///
    /// # Panics
    /// Panics if any position is out of range; the caller (the algebra
    /// layer) validates positions against the schema first.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        Tuple(positions.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Concatenate two tuples (used by cross products and joins).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        Tuple(self.0.iter().chain(other.0.iter()).cloned().collect())
    }

    /// Encoded size in bytes under the wire codec: a 2-byte arity prefix,
    /// then per value a 1-byte tag plus the value payload.
    pub fn encoded_len(&self) -> usize {
        2 + self.0.iter().map(|v| 1 + v.encoded_len()).sum::<usize>()
    }
}

impl fmt::Debug for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, "]")
    }
}

impl<const N: usize> From<[i64; N]> for Tuple {
    fn from(values: [i64; N]) -> Self {
        Tuple::ints(values)
    }
}

/// The sign of a tuple: `+` for existing/inserted, `−` for deleted
/// (paper §4.1).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Sign {
    /// An existing or inserted tuple.
    Plus,
    /// A deleted tuple.
    Minus,
}

impl Sign {
    /// Sign propagation through a binary operation (the `t1 × t2` table of
    /// §4.1): like signs give `+`, unlike signs give `−`.
    pub fn combine(self, other: Sign) -> Sign {
        if self == other {
            Sign::Plus
        } else {
            Sign::Minus
        }
    }

    /// The opposite sign.
    #[cfg(test)]
    fn negate(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }

    /// The replication-count multiplier for this sign (`+1` or `−1`).
    pub fn factor(self) -> i64 {
        match self {
            Sign::Plus => 1,
            Sign::Minus => -1,
        }
    }
}

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sign::Plus => write!(f, "+"),
            Sign::Minus => write!(f, "-"),
        }
    }
}

/// A tuple together with its sign.
///
/// Selection and projection preserve the sign; cross products combine signs
/// multiplicatively (paper §4.1 tables).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct SignedTuple {
    /// The sign.
    pub sign: Sign,
    /// The payload.
    pub tuple: Tuple,
}

impl SignedTuple {
    /// A positively-signed tuple.
    pub fn pos(tuple: Tuple) -> Self {
        SignedTuple {
            sign: Sign::Plus,
            tuple,
        }
    }

    /// A negatively-signed tuple.
    pub fn neg(tuple: Tuple) -> Self {
        SignedTuple {
            sign: Sign::Minus,
            tuple,
        }
    }
}

impl fmt::Debug for SignedTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{:?}", self.sign, self.tuple)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tuple::ints([1, 2, 3]);
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(1), Some(&Value::Int(2)));
        assert_eq!(t.get(3), None);
        assert!(!t.is_empty());
        assert!(Tuple::ints([]).is_empty());
    }

    #[test]
    fn projection_reorders_and_repeats() {
        let t = Tuple::ints([10, 20, 30]);
        assert_eq!(t.project(&[2, 0, 0]), Tuple::ints([30, 10, 10]));
    }

    #[test]
    fn concat() {
        let a = Tuple::ints([1]);
        let b = Tuple::ints([2, 3]);
        assert_eq!(a.concat(&b), Tuple::ints([1, 2, 3]));
    }

    #[test]
    fn sign_combination_table() {
        use Sign::*;
        // The §4.1 table: ++ => +, +- => -, -- => +, -+ => -.
        assert_eq!(Plus.combine(Plus), Plus);
        assert_eq!(Plus.combine(Minus), Minus);
        assert_eq!(Minus.combine(Minus), Plus);
        assert_eq!(Minus.combine(Plus), Minus);
    }

    #[test]
    fn sign_negate_and_factor() {
        assert_eq!(Sign::Plus.negate(), Sign::Minus);
        assert_eq!(Sign::Minus.negate(), Sign::Plus);
        assert_eq!(Sign::Plus.factor(), 1);
        assert_eq!(Sign::Minus.factor(), -1);
    }

    #[test]
    fn tuple_equality_is_structural() {
        assert_eq!(
            Tuple::ints([1, 2]),
            Tuple::new([Value::Int(1), Value::Int(2)])
        );
        assert_ne!(Tuple::ints([1, 2]), Tuple::ints([2, 1]));
    }

    #[test]
    fn encoded_len_counts_tags_and_prefix() {
        // 2 (arity) + 2 * (1 tag + 8 payload) = 20
        assert_eq!(Tuple::ints([1, 2]).encoded_len(), 20);
    }

    #[test]
    fn debug_format_matches_paper_notation() {
        assert_eq!(format!("{:?}", Tuple::ints([4, 2])), "[4,2]");
        assert_eq!(
            format!("{:?}", SignedTuple::neg(Tuple::ints([1, 2]))),
            "-[1,2]"
        );
    }
}
