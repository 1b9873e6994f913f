//! A named relation: schema plus signed-bag contents.

use std::fmt;

use crate::bag::SignedBag;
use crate::error::RelationalError;
use crate::schema::Schema;
use crate::tuple::Tuple;

/// A base relation instance: a [`Schema`] together with its current
/// [`SignedBag`] contents. Base relations at the source are always *plain*
/// (all counts positive); signed contents appear only in intermediate query
/// results and maintenance deltas.
#[derive(Clone, PartialEq, Eq)]
pub struct Relation {
    schema: Schema,
    bag: SignedBag,
}

impl Relation {
    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        Relation {
            schema,
            bag: SignedBag::new(),
        }
    }

    /// A relation initialized with tuples (arity-checked).
    ///
    /// # Errors
    /// Returns [`RelationalError::ArityMismatch`] if a tuple does not match
    /// the schema arity.
    #[cfg(test)]
    fn with_tuples(
        schema: Schema,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<Self, RelationalError> {
        let mut rel = Relation::empty(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The contents.
    pub fn bag(&self) -> &SignedBag {
        &self.bag
    }

    /// Number of tuple occurrences (cardinality, duplicates counted).
    pub fn cardinality(&self) -> u64 {
        self.bag.pos_len()
    }

    fn check_arity(&self, tuple: &Tuple) -> Result<(), RelationalError> {
        if tuple.arity() != self.schema.arity() {
            return Err(RelationalError::ArityMismatch {
                context: self.schema.relation().to_owned(),
                expected: self.schema.arity(),
                actual: tuple.arity(),
            });
        }
        Ok(())
    }

    /// Insert one copy of `tuple`.
    ///
    /// # Errors
    /// Returns [`RelationalError::ArityMismatch`] on arity violation.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), RelationalError> {
        self.check_arity(&tuple)?;
        self.bag.add(tuple, 1);
        Ok(())
    }

    /// Delete one copy of `tuple`. Deleting an absent tuple is a no-op
    /// (sources are autonomous; the warehouse cannot assume perfect feeds),
    /// and the return value reports whether a copy was removed.
    ///
    /// # Errors
    /// Returns [`RelationalError::ArityMismatch`] on arity violation.
    pub fn delete(&mut self, tuple: &Tuple) -> Result<bool, RelationalError> {
        self.check_arity(tuple)?;
        if self.bag.count(tuple) > 0 {
            self.bag.add(tuple.clone(), -1);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Whether the relation contains at least one copy of `tuple`.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.bag.count(tuple) > 0
    }

    /// Extract the key values of `tuple` according to the schema's declared
    /// key.
    ///
    /// # Errors
    /// Returns [`RelationalError::MissingKey`] when the schema has no key.
    pub fn key_of(&self, tuple: &Tuple) -> Result<Tuple, RelationalError> {
        if !self.schema.has_key() {
            return Err(RelationalError::MissingKey {
                relation: self.schema.relation().to_owned(),
            });
        }
        Ok(tuple.project(self.schema.key_positions()))
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}{:?}", self.schema, self.bag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r1() -> Relation {
        Relation::with_tuples(Schema::new("r1", &["W", "X"]), [Tuple::ints([1, 2])]).unwrap()
    }

    #[test]
    fn insert_and_contains() {
        let mut r = r1();
        assert!(r.contains(&Tuple::ints([1, 2])));
        r.insert(Tuple::ints([4, 2])).unwrap();
        assert_eq!(r.cardinality(), 2);
    }

    #[test]
    fn arity_checked() {
        let mut r = r1();
        assert!(r.insert(Tuple::ints([1])).is_err());
        assert!(r.delete(&Tuple::ints([1, 2, 3])).is_err());
    }

    #[test]
    fn delete_absent_is_noop() {
        let mut r = r1();
        assert!(!r.delete(&Tuple::ints([9, 9])).unwrap());
        assert_eq!(r.cardinality(), 1);
        assert!(r.delete(&Tuple::ints([1, 2])).unwrap());
        assert_eq!(r.cardinality(), 0);
        assert!(r.bag().is_empty());
    }

    #[test]
    fn duplicates_tracked() {
        let mut r = r1();
        r.insert(Tuple::ints([1, 2])).unwrap();
        assert_eq!(r.cardinality(), 2);
        r.delete(&Tuple::ints([1, 2])).unwrap();
        assert!(r.contains(&Tuple::ints([1, 2])));
    }

    #[test]
    fn key_extraction() {
        let s = Schema::with_key("r1", &["W", "X"], &["W"]).unwrap();
        let r = Relation::with_tuples(s, [Tuple::ints([1, 2])]).unwrap();
        assert_eq!(r.key_of(&Tuple::ints([1, 2])).unwrap(), Tuple::ints([1]));
        assert!(r1().key_of(&Tuple::ints([1, 2])).is_err());
    }
}
