//! SPJ view definitions (paper §4):
//! `V = π_proj(σ_cond(r1 × r2 × … × rn))`.

use std::fmt;
use std::sync::Arc;

use eca_relational::planner::TermPlan;
use eca_relational::{Predicate, RelationalError, Schema, SignedBag, Update};

use crate::basedb::BaseLookup;
use crate::error::CoreError;
use crate::expr::{Atom, Query, Term};

/// The most base relations a view may join: substitution tracks a term's
/// occurrences of the updated relation in a 32-bit slot mask.
const MAX_BASE_RELATIONS: usize = 32;

/// What a query says about its view when it leaves the warehouse: the
/// relation names in product order, the condition and the projection.
///
/// The source knows no views (paper Fig. 1.1), so every query carries
/// one. A view builds its header once, at construction, and every query
/// of the view shares it behind an [`Arc`]; the view's name and schemas
/// stay at the warehouse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryHeader {
    /// Names of the base relations `r1..rn` in product order.
    pub relations: Vec<String>,
    /// Selection condition over product columns.
    pub cond: Predicate,
    /// Projection over product columns.
    pub proj: Vec<usize>,
}

/// A select-project-join view over named base relations.
///
/// `cond` and `proj` refer to positions of the concatenated cross-product
/// schema `r1 × r2 × … × rn`. Any SPJ relational-algebra expression can be
/// rewritten into this normal form (paper §4). Construction validates all
/// positional references.
///
/// ```
/// use eca_core::{BaseDb, ViewDef};
/// use eca_relational::{Predicate, Schema, Tuple, Update};
///
/// // V = π_W(r1(W,X) ⋈ r2(X,Y))  — the paper's Example 1 view.
/// let view = ViewDef::new(
///     "V",
///     vec![Schema::new("r1", &["W", "X"]), Schema::new("r2", &["X", "Y"])],
///     Predicate::col_eq(1, 2),
///     vec![0],
/// )?;
///
/// let mut db = BaseDb::for_view(&view);
/// db.insert("r1", Tuple::ints([1, 2]));
/// db.insert("r2", Tuple::ints([2, 4]));
/// assert_eq!(view.eval(&db)?.count(&Tuple::ints([1])), 1);
///
/// // V⟨U⟩: the maintenance query for an update (paper §4.2).
/// let q = view.substitute(&Update::insert("r2", Tuple::ints([2, 3])))?;
/// assert_eq!(q.terms().len(), 1);
/// # Ok::<(), eca_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct ViewDef {
    inner: Arc<ViewInner>,
}

struct ViewInner {
    name: String,
    base: Vec<Schema>,
    header: Arc<QueryHeader>,
    /// Cumulative column offsets of each base relation in the product.
    offsets: Vec<usize>,
    total_arity: usize,
    /// Where each conjunct of the condition is applied, for every term.
    plan: TermPlan,
}

impl ViewDef {
    /// Define a view.
    ///
    /// The paper's §4 assumes distinct base relations "for simplicity"
    /// and sketches the multiple-occurrence extension; this implementation
    /// supports repeated relations (self-joins) directly — substitution
    /// expands per occurrence by inclusion–exclusion (see
    /// [`crate::Term::substitute_all_occurrences`]). ECA-Key still
    /// requires distinct relations.
    ///
    /// # Errors
    /// Positional errors if `cond` or `proj` reference columns outside
    /// the product arity; [`CoreError::TooManyRelations`] beyond 32 base
    /// relations.
    pub fn new(
        name: impl Into<String>,
        base: Vec<Schema>,
        cond: Predicate,
        proj: Vec<usize>,
    ) -> Result<Self, CoreError> {
        let header = QueryHeader {
            relations: base.iter().map(|s| s.relation().to_owned()).collect(),
            cond,
            proj,
        };
        Self::build(name.into(), base, Arc::new(header))
    }

    /// Resolve a query header against a catalog of schemas: the view a
    /// receiver evaluates the header's queries over. The view shares
    /// `header`.
    ///
    /// # Errors
    /// [`CoreError::UnknownRelation`] for a relation absent from
    /// `catalog`; otherwise as [`ViewDef::new`].
    pub fn resolve(
        name: impl Into<String>,
        header: Arc<QueryHeader>,
        catalog: &[Schema],
    ) -> Result<Self, CoreError> {
        let base = header
            .relations
            .iter()
            .map(|name| {
                catalog
                    .iter()
                    .find(|s| s.relation() == name)
                    .cloned()
                    .ok_or_else(|| CoreError::UnknownRelation {
                        relation: name.clone(),
                    })
            })
            .collect::<Result<Vec<Schema>, CoreError>>()?;
        Self::build(name.into(), base, header)
    }

    /// Validate `header` against `base` and assemble the view.
    fn build(name: String, base: Vec<Schema>, header: Arc<QueryHeader>) -> Result<Self, CoreError> {
        if base.len() > MAX_BASE_RELATIONS {
            return Err(CoreError::TooManyRelations {
                count: base.len(),
                max: MAX_BASE_RELATIONS,
            });
        }
        let mut offsets = Vec::with_capacity(base.len());
        let mut total = 0usize;
        for s in &base {
            offsets.push(total);
            total += s.arity();
        }
        let out_of_range = |position: usize| {
            Err(RelationalError::PositionOutOfRange {
                position,
                arity: total,
            }
            .into())
        };
        if let Some(max) = header.cond.max_column() {
            if max >= total {
                return out_of_range(max);
            }
        }
        if let Some(&p) = header.proj.iter().find(|&&p| p >= total) {
            return out_of_range(p);
        }
        let plan = TermPlan::new(base.iter().map(Schema::arity).collect(), &header.cond);
        Ok(ViewDef {
            inner: Arc::new(ViewInner {
                name,
                base,
                header,
                offsets,
                total_arity: total,
                plan,
            }),
        })
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The base relation schemas `r1..rn` in product order.
    pub fn base(&self) -> &[Schema] {
        &self.inner.base
    }

    /// The selection condition over product columns.
    pub fn cond(&self) -> &Predicate {
        &self.inner.header.cond
    }

    /// The projection positions over product columns.
    pub fn proj(&self) -> &[usize] {
        &self.inner.header.proj
    }

    /// The condition's plan: what each term's inputs push down, join on,
    /// and leave to the residual.
    pub fn plan(&self) -> &TermPlan {
        &self.inner.plan
    }

    /// The header every query of this view carries to the source.
    pub fn header(&self) -> &Arc<QueryHeader> {
        &self.inner.header
    }

    /// Check that `term` fits this view: one atom per base relation, and
    /// each bound tuple of its relation's arity.
    ///
    /// # Errors
    /// [`RelationalError::ArityMismatch`] naming the term or the relation.
    pub fn check_term(&self, term: &Term) -> Result<(), CoreError> {
        let mismatch = |context: &str, expected: usize, actual: usize| {
            Err(RelationalError::ArityMismatch {
                context: context.to_owned(),
                expected,
                actual,
            }
            .into())
        };
        if term.atoms().len() != self.inner.base.len() {
            return mismatch("query term", self.inner.base.len(), term.atoms().len());
        }
        for (atom, schema) in term.atoms().iter().zip(&self.inner.base) {
            if let Atom::Bound(st) = atom {
                if st.tuple.arity() != schema.arity() {
                    return mismatch(schema.relation(), schema.arity(), st.tuple.arity());
                }
            }
        }
        Ok(())
    }

    /// Arity of the full cross product.
    pub fn product_arity(&self) -> usize {
        self.inner.total_arity
    }

    /// Column offset of base relation `i` in the product.
    pub fn offset(&self, i: usize) -> usize {
        self.inner.offsets[i]
    }

    /// Index of the first occurrence of the named base relation.
    pub fn relation_index(&self, name: &str) -> Option<usize> {
        self.inner.base.iter().position(|s| s.relation() == name)
    }

    /// All occurrence indices of the named base relation (more than one
    /// for self-join views).
    pub fn relation_indices(&self, name: &str) -> Vec<usize> {
        self.inner
            .base
            .iter()
            .enumerate()
            .filter(|(_, s)| s.relation() == name)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether any base relation name is repeated (a self-join view).
    pub fn has_repeated_relations(&self) -> bool {
        self.inner.base.iter().enumerate().any(|(i, s)| {
            self.inner.base[..i]
                .iter()
                .any(|t| t.relation() == s.relation())
        })
    }

    /// Whether `update` touches a relation of this view.
    pub fn involves(&self, update: &Update) -> bool {
        self.relation_index(&update.relation).is_some()
    }

    /// The view expression as a query (all atoms unbound) — what RV sends
    /// to recompute from scratch.
    pub fn as_query(&self) -> Query {
        Query::from_terms(
            self.clone(),
            vec![Term::new(
                1,
                (0..self.inner.base.len()).map(Atom::Rel).collect(),
            )],
        )
    }

    /// The substitution `V⟨U⟩` (paper §4.2): the view expression with the
    /// updated tuple (signed) substituted for `U`'s relation. For views
    /// where the relation occurs several times, the substitution expands
    /// to the inclusion–exclusion sum over occurrences.
    ///
    /// # Errors
    /// [`CoreError::UnknownRelation`] if the update's relation is not in
    /// the view.
    pub fn substitute(&self, update: &Update) -> Result<Query, CoreError> {
        let mut terms = Vec::new();
        self.substitute_into(update, &mut terms)?;
        Ok(Query::from_terms(self.clone(), terms))
    }

    /// [`ViewDef::substitute`]'s terms, appended to `out`.
    ///
    /// # Errors
    /// As [`ViewDef::substitute`]; `out` is then unchanged.
    pub fn substitute_into(&self, update: &Update, out: &mut Vec<Term>) -> Result<(), CoreError> {
        let slots = self.slots_of(&update.relation, |_| true);
        if slots == 0 {
            return Err(CoreError::UnknownRelation {
                relation: update.relation.clone(),
            });
        }
        Term::expand(1, slots, self.inner.base.len(), Atom::Rel, update, out);
        Ok(())
    }

    /// The mask of the slots of `relation` that `keep` accepts.
    pub(crate) fn slots_of(&self, relation: &str, keep: impl Fn(usize) -> bool) -> u32 {
        self.inner
            .base
            .iter()
            .enumerate()
            .filter(|&(i, s)| s.relation() == relation && keep(i))
            .fold(0, |mask, (i, _)| mask | 1 << i)
    }

    /// Evaluate the view on base relation contents.
    ///
    /// # Errors
    /// Propagates relational evaluation errors.
    pub fn eval(&self, db: &impl BaseLookup) -> Result<SignedBag, CoreError> {
        Ok(self.as_query().eval(db)?)
    }

    /// Whether every base relation has a declared key whose attributes all
    /// appear in the view output — the precondition of ECA-Key (§5.4).
    pub fn is_fully_keyed(&self) -> bool {
        (0..self.inner.base.len()).all(|i| self.key_view_positions(i).is_some())
    }

    /// For base relation `i`, the positions *in the view output* of its key
    /// attributes, or `None` if the relation has no key or some key
    /// attribute is not projected.
    ///
    /// Used by ECAK's `key-delete`: deleting base tuple `t` from relation
    /// `i` removes every view tuple whose values at these positions equal
    /// `t`'s key values.
    pub fn key_view_positions(&self, i: usize) -> Option<Vec<usize>> {
        let schema = self.inner.base.get(i)?;
        if !schema.has_key() {
            return None;
        }
        let offset = self.inner.offsets[i];
        schema
            .key_positions()
            .iter()
            .map(|&kp| {
                let product_col = offset + kp;
                self.proj().iter().position(|&p| p == product_col)
            })
            .collect()
    }

    /// Key values of the base tuple of `update`, projected onto the base
    /// relation's key positions. Returns `None` when the relation is
    /// unknown or unkeyed.
    pub fn update_key_values(&self, update: &Update) -> Option<Vec<eca_relational::Value>> {
        let idx = self.relation_index(&update.relation)?;
        let schema = &self.inner.base[idx];
        if !schema.has_key() {
            return None;
        }
        schema
            .key_positions()
            .iter()
            .map(|&kp| update.tuple.get(kp).cloned())
            .collect()
    }
}

impl fmt::Debug for ViewDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} = pi{:?}(sigma[{}](",
            self.inner.name,
            self.proj(),
            self.cond()
        )?;
        for (i, s) in self.inner.base.iter().enumerate() {
            if i > 0 {
                write!(f, " x ")?;
            }
            write!(f, "{}", s.relation())?;
        }
        write!(f, "))")
    }
}

impl PartialEq for ViewDef {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
            || (self.inner.name == other.inner.name
                && self.inner.base == other.inner.base
                && self.inner.header == other.inner.header)
    }
}

impl Eq for ViewDef {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basedb::BaseDb;
    use eca_relational::{Predicate, Tuple};

    /// A chain equi-join view, the shape used throughout the paper:
    /// `r1(A,B) ⋈ r2(B,C) ⋈ r3(C,D) …`, each consecutive pair joined on
    /// `last attribute of left = first attribute of right`.
    fn chain_join(
        name: &str,
        base: Vec<Schema>,
        extra_cond: Predicate,
        proj: Vec<usize>,
    ) -> Result<ViewDef, CoreError> {
        let mut cond = Predicate::True;
        let mut offset = 0usize;
        for window in base.windows(2) {
            let left_last = offset + window[0].arity() - 1;
            let right_first = offset + window[0].arity();
            cond = cond.and(Predicate::col_eq(left_last, right_first));
            offset += window[0].arity();
        }
        ViewDef::new(name, base, cond.and(extra_cond), proj)
    }

    fn example1_view() -> ViewDef {
        // V = π_W(r1 ⋈ r2), r1(W,X), r2(X,Y)
        ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        // Self-join views are allowed (the §4 extension).
        let dup = ViewDef::new(
            "V",
            vec![Schema::new("r1", &["A"]), Schema::new("r1", &["B"])],
            Predicate::True,
            vec![0],
        )
        .unwrap();
        assert!(dup.has_repeated_relations());
        assert_eq!(dup.relation_indices("r1"), vec![0, 1]);

        let bad_proj = ViewDef::new(
            "V",
            vec![Schema::new("r1", &["A"])],
            Predicate::True,
            vec![5],
        );
        assert!(bad_proj.is_err());

        let bad_cond = ViewDef::new(
            "V",
            vec![Schema::new("r1", &["A"])],
            Predicate::col_eq(0, 9),
            vec![0],
        );
        assert!(bad_cond.is_err());
    }

    #[test]
    fn offsets_and_indexing() {
        let v = example1_view();
        assert_eq!(v.product_arity(), 4);
        assert_eq!(v.offset(0), 0);
        assert_eq!(v.offset(1), 2);
        assert_eq!(v.relation_index("r2"), Some(1));
        assert_eq!(v.relation_index("nope"), None);
        assert!(v.involves(&Update::insert("r1", Tuple::ints([0, 0]))));
        assert!(!v.involves(&Update::insert("zz", Tuple::ints([0, 0]))));
    }

    #[test]
    fn eval_example_1_initial_state() {
        let v = example1_view();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 4]));
        let mv = v.eval(&db).unwrap();
        assert_eq!(mv, SignedBag::from_tuples([Tuple::ints([1])]));
    }

    #[test]
    fn substitute_binds_the_right_atom() {
        let v = example1_view();
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        let q = v.substitute(&u).unwrap();
        assert_eq!(q.terms().len(), 1);
        let term = &q.terms()[0];
        assert!(matches!(term.atoms()[0], Atom::Rel(0)));
        assert!(matches!(term.atoms()[1], Atom::Bound(_)));

        let unknown = Update::insert("zzz", Tuple::ints([1]));
        assert!(matches!(
            v.substitute(&unknown),
            Err(CoreError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn keyed_view_detection() {
        // V = π_{W,Y}(r1 ⋈ r2) with W key of r1, Y key of r2 (Example 5).
        let v = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap(),
            ],
            Predicate::col_eq(1, 2),
            vec![0, 3],
        )
        .unwrap();
        assert!(v.is_fully_keyed());
        assert_eq!(v.key_view_positions(0), Some(vec![0]));
        assert_eq!(v.key_view_positions(1), Some(vec![1]));

        // π_W only: r2's key Y is not projected.
        let v2 = example1_view();
        assert!(!v2.is_fully_keyed());
        assert_eq!(v2.key_view_positions(0), None); // no key declared at all
    }

    #[test]
    fn update_key_values() {
        let v = ViewDef::new(
            "V",
            vec![
                Schema::with_key("r1", &["W", "X"], &["W"]).unwrap(),
                Schema::with_key("r2", &["X", "Y"], &["Y"]).unwrap(),
            ],
            Predicate::col_eq(1, 2),
            vec![0, 3],
        )
        .unwrap();
        let u = Update::delete("r1", Tuple::ints([1, 2]));
        assert_eq!(
            v.update_key_values(&u),
            Some(vec![eca_relational::Value::Int(1)])
        );
    }

    #[test]
    fn chain_join_builder_matches_manual() {
        let base = vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
            Schema::new("r3", &["Y", "Z"]),
        ];
        let v = chain_join("V", base, Predicate::True, vec![0, 5]).unwrap();
        let mut db = BaseDb::for_view(&v);
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 3]));
        db.insert("r3", Tuple::ints([3, 9]));
        assert_eq!(
            v.eval(&db).unwrap(),
            SignedBag::from_tuples([Tuple::ints([1, 9])])
        );
    }

    #[test]
    fn debug_is_readable() {
        let v = example1_view();
        let s = format!("{v:?}");
        assert!(s.contains("r1 x r2"));
    }
}
