//! The one SPJ executor, on both sides of the wire: per-term planning
//! (predicate pushdown, composite hash-join keys) and a pipelined join
//! over borrowed rows that builds only the output bag.
//!
//! An SPJ term `π_proj(σ_cond(r1 × … × rn))` names its columns relative
//! to the full product. [`TermPlan`] splits `cond` into its AND-skeleton
//! conjuncts and classifies each one:
//!
//! * every referenced column falls inside one input's slice → **pushdown**:
//!   the conjunct is rewritten into that input's local coordinates and
//!   applied to each of the input's tuples as it is joined in;
//! * `Column = Column` equality spanning two inputs → **join edge**: it
//!   becomes (part of) a composite join key and is never re-checked;
//! * anything else (cross-input inequalities, disjunctions, column-free
//!   conjuncts) → **residual**: re-applied once on each joined row.
//!
//! An [`Executor`] runs one term at a time in three steps:
//!
//! * [`Executor::seed`] starts one row holding the term's bound tuples,
//!   counted by the term's factor;
//! * [`Executor::join`] joins one input's tuples, a bag's or a heap's, by
//!   a chained hash join, and [`Executor::join_probe`] joins an input
//!   through a probe callback (an index lookup) once per row. Each tuple
//!   joined in passes its input's pushdown and every edge to the inputs
//!   already joined, so each input is read once, as it is joined;
//! * [`Executor::finish`] applies the residual and adds each row's
//!   projection into a caller's bag.
//!
//! The executor also picks the join order, one rule for every caller:
//! [`Executor::next_input`] is the first unjoined input with an edge into
//! the joined ones, else the first unjoined input. [`spj_planned`], the
//! warehouse's terms and the source's storage engine all loop on it; the
//! engine picks each input's access path (index probes or a scan of its
//! heap) and charges its block reads apart from the rows. The paper's
//! cost model charges block reads and never the join order, so the order
//! moves no charge, and [`Executor::finish`] adds the same answer in any
//! order.
//!
//! Nothing is materialized between the stages. Each join appends to a
//! flat buffer of borrowed tuples per row (one per input joined so far,
//! in join order) plus the row's multiplied count. The residual runs on
//! a row's values in canonical order. Beyond a few rows, the surviving
//! rows are sorted by their projected values and each is projected once,
//! in that order, so an empty output bag is built by appends alone.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::algebra::{project, select};
use crate::bag::{prefix_of, SignedBag};
use crate::error::RelationalError;
use crate::predicate::{CmpOp, Operand, Predicate};
use crate::tuple::Tuple;
use crate::value::Value;

/// Where each conjunct of a term's predicate ended up, for a fixed list
/// of input arities. Columns in [`Self::pushdown`] are input-local; all
/// other columns are canonical (product-relative).
#[derive(Debug, Clone)]
pub struct TermPlan {
    arities: Vec<usize>,
    /// Per canonical column: the input owning it and its position there.
    columns: Vec<(usize, usize)>,
    /// Per input: the conjunction pushed below the joins, rewritten to
    /// that input's local columns (`True` when nothing pushed).
    pub pushdown: Vec<Predicate>,
    /// Cross-input equality edges in canonical columns. Every edge is
    /// consumed as (part of) a composite join key and never re-checked.
    pub edges: Vec<(usize, usize)>,
    /// Conjuncts that survive to a final selection on the joined result,
    /// in canonical columns (`True` when everything was consumed).
    pub residual: Predicate,
}

impl TermPlan {
    /// Classify the conjuncts of `cond` for inputs with these arities.
    #[must_use]
    pub fn new(arities: Vec<usize>, cond: &Predicate) -> TermPlan {
        let columns = arities
            .iter()
            .enumerate()
            .flat_map(|(input, &arity)| (0..arity).map(move |col| (input, col)))
            .collect();
        let mut plan = TermPlan {
            pushdown: vec![Predicate::True; arities.len()],
            edges: Vec::new(),
            residual: Predicate::True,
            arities,
            columns,
        };
        for conj in cond.conjuncts() {
            plan.classify(conj);
        }
        plan
    }

    /// The number of inputs.
    #[must_use]
    #[inline]
    pub fn inputs(&self) -> usize {
        self.arities.len()
    }

    /// The number of columns of the product.
    fn width(&self) -> usize {
        self.columns.len()
    }

    /// The input owning canonical column `col`, if it is in range.
    fn owner(&self, col: usize) -> Option<usize> {
        self.columns.get(col).map(|&(input, _)| input)
    }

    fn classify(&mut self, conj: &Predicate) {
        if let Predicate::Cmp {
            lhs: Operand::Column(a),
            op: CmpOp::Eq,
            rhs: Operand::Column(b),
        } = conj
        {
            if let (Some(oa), Some(ob)) = (self.owner(*a), self.owner(*b)) {
                if oa != ob {
                    self.edges.push((*a, *b));
                    return;
                }
            }
        }
        let cols = conj.columns();
        let single_owner = match (cols.first(), cols.last()) {
            (Some(&lo), Some(&hi)) => match (self.owner(lo), self.owner(hi)) {
                (Some(a), Some(b)) if a == b => Some(a),
                _ => None,
            },
            // Column-free conjunct (True/False/const comparison): keep it
            // residual so a `False` still empties the result.
            _ => None,
        };
        match single_owner {
            Some(i) => {
                let local = conj.map_columns(&|c| self.columns[c].1);
                self.pushdown[i] =
                    std::mem::replace(&mut self.pushdown[i], Predicate::True).and(local);
            }
            None => {
                self.residual =
                    std::mem::replace(&mut self.residual, Predicate::True).and(conj.clone());
            }
        }
    }

    /// The edges linking input `cand` to the inputs `joined` accepts, in
    /// edge order: each as the joined side's canonical column and
    /// `cand`'s local column.
    pub fn edges_into<'p>(
        &'p self,
        cand: usize,
        joined: impl Fn(usize) -> bool + 'p,
    ) -> impl Iterator<Item = (usize, usize)> + 'p {
        self.edges.iter().filter_map(move |&(a, b)| {
            let (oa, ob) = (self.owner(a)?, self.owner(b)?);
            if ob == cand && joined(oa) {
                Some((a, self.columns[b].1))
            } else if oa == cand && joined(ob) {
                Some((b, self.columns[a].1))
            } else {
                None
            }
        })
    }

    /// Whether `tuple` of input `input` passes the input's pushdown. The
    /// arity is checked first, so that every later step indexes the tuple
    /// without a check.
    #[inline]
    fn admits(&self, input: usize, tuple: &Tuple) -> Result<bool, RelationalError> {
        if tuple.arity() != self.arities[input] {
            return Err(RelationalError::ArityMismatch {
                context: "SPJ term input".into(),
                expected: self.arities[input],
                actual: tuple.arity(),
            });
        }
        match &self.pushdown[input] {
            Predicate::True => Ok(true),
            pred => pred.eval(tuple),
        }
    }
}

/// The rows of a join in progress, in one flat buffer: `width` borrowed
/// tuples per row (one per input joined so far, in join order) and one
/// multiplied count per row. Nothing is copied out of the inputs until a
/// surviving row is projected.
#[derive(Default)]
struct Rows<'a> {
    width: usize,
    tuples: Vec<&'a Tuple>,
    counts: Vec<i64>,
}

impl<'a> Rows<'a> {
    /// Empty the rows and give them `width` tuples each.
    fn reset(&mut self, width: usize) {
        self.width = width;
        self.tuples.clear();
        self.counts.clear();
    }

    #[inline]
    fn len(&self) -> usize {
        self.counts.len()
    }

    /// Make room for `rows` more rows.
    fn reserve(&mut self, rows: usize) {
        self.tuples.reserve(rows * self.width);
        self.counts.reserve(rows);
    }

    fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    #[inline]
    fn row(&self, r: usize) -> &[&'a Tuple] {
        &self.tuples[r * self.width..(r + 1) * self.width]
    }

    /// Append the row `left ++ [right]` with count `count`.
    #[inline]
    fn push(&mut self, left: &[&'a Tuple], right: &'a Tuple, count: i64) {
        self.tuples.extend_from_slice(left);
        self.tuples.push(right);
        self.counts.push(count);
    }

    /// Total tuple occurrences (duplicates and pending deletions
    /// included) — the real cost of hashing or probing these rows.
    fn occurrences(&self) -> f64 {
        self.counts.iter().map(|c| c.unsigned_abs() as f64).sum()
    }
}

/// One join edge as a row reads it: the slot and column of the joined
/// side, and the column of the input being joined.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Link {
    slot: usize,
    col: usize,
    /// The column of the input being joined.
    pub attr: usize,
}

/// The edges into `input` from the inputs that have a slot.
fn links<'p>(
    plan: &'p TermPlan,
    slots: &'p [Option<usize>],
    input: usize,
) -> impl Iterator<Item = Link> + 'p {
    plan.edges_into(input, |i| slots[i].is_some())
        .filter_map(move |(from, attr)| {
            let (owner, col) = plan.columns[from];
            Some(Link {
                slot: slots[owner]?,
                col,
                attr,
            })
        })
}

/// Whether `tuple`, joined onto `row`, agrees with it on every key.
#[inline]
fn keys_match(keys: impl IntoIterator<Item = Link>, row: &[&Tuple], tuple: &Tuple) -> bool {
    keys.into_iter()
        .all(|k| row[k.slot].values()[k.col] == tuple.values()[k.attr])
}

/// One side of a hash join: its rows, and whether it is the accumulated
/// side (keys read at a link's slot and column) or the joined input
/// (width-1 rows, keys read at a link's `attr`).
struct KeySide<'r, 'a> {
    rows: &'r Rows<'a>,
    keys: &'r [Link],
    acc: bool,
}

impl<'r, 'a> KeySide<'r, 'a> {
    fn value(&self, r: usize, k: &Link) -> &'a Value {
        let row = self.rows.row(r);
        if self.acc {
            &row[k.slot].values()[k.col]
        } else {
            &row[0].values()[k.attr]
        }
    }

    fn hash(&self, state: &RandomState, r: usize) -> u64 {
        let mut h = state.build_hasher();
        for k in self.keys {
            self.value(r, k).hash(&mut h);
        }
        h.finish()
    }

    fn key_eq(&self, r: usize, other: &KeySide<'_, '_>, s: usize) -> bool {
        self.keys
            .iter()
            .all(|k| self.value(r, k) == other.value(s, k))
    }
}

/// No further row in a hash chain.
const END: usize = usize::MAX;

/// Join width-1 `next` onto `acc` on the composite key `keys`, or cross
/// the two when `keys` is empty, appending to `out`. Output rows are
/// `acc`'s followed by `next`'s tuple, counts multiplied.
///
/// A cross, or a side of one row, is a nested loop that compares keys in
/// place. Otherwise the hash table is built on the side with fewer total
/// occurrences (duplicates included: a distinct count undercounts a
/// skewed side, and the table holds every row). It is one map from key
/// hash to the first build row, and a chain through the build rows
/// sharing a hash. Probes compare key values in place, so no key is ever
/// built.
fn hash_join<'a>(acc: &Rows<'a>, next: &Rows<'a>, keys: &[Link], out: &mut Rows<'a>) {
    out.reserve(acc.len().max(next.len()));
    let acc_side = KeySide {
        rows: acc,
        keys,
        acc: true,
    };
    let next_side = KeySide {
        rows: next,
        keys,
        acc: false,
    };
    if keys.is_empty() || acc.len() == 1 || next.len() == 1 {
        for a in 0..acc.len() {
            for n in 0..next.len() {
                if acc_side.key_eq(a, &next_side, n) {
                    out.push(acc.row(a), next.tuples[n], acc.counts[a] * next.counts[n]);
                }
            }
        }
        return;
    }
    let build_is_acc = acc.occurrences() <= next.occurrences();
    let (build, probe) = if build_is_acc {
        (&acc_side, &next_side)
    } else {
        (&next_side, &acc_side)
    };
    let state = RandomState::new();
    let mut heads: HashMap<u64, usize> = HashMap::with_capacity(build.rows.len());
    let mut chain = vec![END; build.rows.len()];
    for (b, link) in chain.iter_mut().enumerate() {
        *link = heads.insert(build.hash(&state, b), b).unwrap_or(END);
    }
    for p in 0..probe.rows.len() {
        let mut b = heads.get(&probe.hash(&state, p)).copied().unwrap_or(END);
        while b != END {
            if build.key_eq(b, probe, p) {
                let (a, n) = if build_is_acc { (b, p) } else { (p, b) };
                out.push(acc.row(a), next.tuples[n], acc.counts[a] * next.counts[n]);
            }
            b = chain[b];
        }
    }
}

/// The most rows [`Executor::finish`] projects in join order; more are
/// sorted into bag order first.
const UNSORTED_ROWS: usize = 16;

/// A term's join in progress, and the buffers it reuses from one term to
/// the next: see the [module docs](self) for its three steps.
#[derive(Default)]
pub struct Executor<'a> {
    rows: Rows<'a>,
    /// The rows the next join step builds.
    next: Rows<'a>,
    /// Per input: its slot in a row, once joined.
    slots: Vec<Option<usize>>,
    /// Whether the seeded bound tuples pass their own pushdowns and the
    /// edges among them.
    seeds_match: bool,
    /// The key of the join step in progress.
    keys: Vec<Link>,
    /// The admitted tuples of an input about to be hash joined.
    input: Rows<'a>,
    /// The surviving rows, each keyed by its projection's prefix.
    kept: Vec<(u64, usize)>,
}

impl<'a> Executor<'a> {
    /// Start a term of `plan`: one row holding the `bound` tuples (each
    /// with its input), counted by `factor`.
    ///
    /// The row stands for the term in every step that follows, whether
    /// or not the bound tuples pass their own pushdowns and the edges
    /// among them; [`Self::finish`] drops it if they do not. So a caller
    /// that charges per row (the source's probes) charges a bound term
    /// the same either way.
    ///
    /// # Errors
    /// [`RelationalError::ArityMismatch`] for a bound tuple of the wrong
    /// arity; predicate evaluation errors.
    pub fn seed(
        &mut self,
        plan: &TermPlan,
        factor: i64,
        bound: impl IntoIterator<Item = (usize, &'a Tuple)>,
    ) -> Result<(), RelationalError> {
        self.slots.clear();
        self.slots.resize(plan.inputs(), None);
        self.rows.reset(0);
        self.seeds_match = true;
        for (input, tuple) in bound {
            // The arity is checked before any key reads the tuple.
            let admitted = plan.admits(input, tuple)?;
            let joins = keys_match(links(plan, &self.slots, input), &self.rows.tuples, tuple);
            self.seeds_match &= admitted && joins;
            self.slots[input] = Some(self.rows.tuples.len());
            self.rows.tuples.push(tuple);
        }
        self.rows.width = self.rows.tuples.len();
        self.rows.counts.push(factor);
        Ok(())
    }

    /// The input to join next, `None` once every input is joined: the
    /// first unjoined input with an edge into the joined ones, else the
    /// first unjoined input. Each caller loops on it, so a term's join
    /// order is one rule on both sides of the wire.
    #[must_use]
    pub fn next_input(&self, plan: &TermPlan) -> Option<usize> {
        let mut unjoined = (0..plan.inputs()).filter(|&i| !self.is_joined(i));
        let first = unjoined.clone().next();
        unjoined
            .find(|&i| self.links(plan, i).next().is_some())
            .or(first)
    }

    /// Whether input `input` is joined in.
    #[must_use]
    #[inline]
    pub fn is_joined(&self, input: usize) -> bool {
        self.slots[input].is_some()
    }

    /// The number of rows.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no row is left.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The edges into input `input` from the inputs joined so far, in
    /// `plan`'s edge order.
    pub fn links<'p>(
        &'p self,
        plan: &'p TermPlan,
        input: usize,
    ) -> impl Iterator<Item = Link> + 'p {
        links(plan, &self.slots, input)
    }

    /// The value each row offers `link`, in row order.
    pub fn probe_values(&self, link: Link) -> impl Iterator<Item = &'a Value> + '_ {
        (0..self.rows.len()).map(move |r| &self.rows.row(r)[link.slot].values()[link.col])
    }

    /// Join input `input`'s `tuples`, each with its count.
    ///
    /// Onto one row (a seeded term) the tuples stream by and are compared
    /// with it in place; otherwise the admitted ones are gathered and
    /// hash joined. Onto no row, the tuples are not read.
    ///
    /// # Errors
    /// [`RelationalError::ArityMismatch`] for a tuple of the wrong arity;
    /// predicate evaluation errors.
    pub fn join(
        &mut self,
        plan: &TermPlan,
        input: usize,
        tuples: impl IntoIterator<Item = (&'a Tuple, i64)>,
    ) -> Result<(), RelationalError> {
        let tuples = tuples.into_iter();
        let room = tuples.size_hint().0;
        let mut next = self.start_step(plan, input);
        if self.rows.len() == 1 {
            if self.keys.is_empty() {
                next.reserve(room);
            }
            let (row, count) = (self.rows.row(0), self.rows.counts[0]);
            for (tuple, c) in tuples {
                if plan.admits(input, tuple)? && keys_match(self.keys.iter().copied(), row, tuple) {
                    next.push(row, tuple, count * c);
                }
            }
        } else if !self.rows.is_empty() {
            let mut selected = std::mem::take(&mut self.input);
            selected.reset(1);
            selected.reserve(room);
            for (tuple, count) in tuples {
                if plan.admits(input, tuple)? {
                    selected.push(&[], tuple, count);
                }
            }
            hash_join(&self.rows, &selected, &self.keys, &mut next);
            self.input = selected;
        }
        self.end_step(input, next);
        Ok(())
    }

    /// Join input `input` through `probe`, called once per row in row
    /// order: it hands each tuple whose `link.attr` equals the value the
    /// row offers `link` ([`Self::probe_values`]; an index lookup's
    /// matches) to the callback it is given. The other edges into `input`
    /// are checked here.
    ///
    /// # Errors
    /// As [`Self::join`].
    pub fn join_probe(
        &mut self,
        plan: &TermPlan,
        input: usize,
        link: Link,
        mut probe: impl FnMut(&mut dyn FnMut(&'a Tuple)),
    ) -> Result<(), RelationalError> {
        let mut next = self.start_step(plan, input);
        self.keys.retain(|&k| k != link);
        let mut failed = Ok(());
        for r in 0..self.rows.len() {
            let (row, count) = (self.rows.row(r), self.rows.counts[r]);
            probe(&mut |tuple| match plan.admits(input, tuple) {
                Ok(true) if keys_match(self.keys.iter().copied(), row, tuple) => {
                    next.push(row, tuple, count)
                }
                Ok(_) => {}
                Err(e) => failed = Err(e),
            });
        }
        self.end_step(input, next);
        failed
    }

    /// The key into `input`, and the emptied buffer its rows go to.
    fn start_step(&mut self, plan: &TermPlan, input: usize) -> Rows<'a> {
        self.keys.clear();
        self.keys.extend(links(plan, &self.slots, input));
        let mut next = std::mem::take(&mut self.next);
        next.reset(self.rows.width + 1);
        next
    }

    /// Make `next` the rows, with `input` in their last slot.
    fn end_step(&mut self, input: usize, next: Rows<'a>) {
        self.slots[input] = Some(self.rows.width);
        self.next = std::mem::replace(&mut self.rows, next);
    }

    /// Add each row's projection onto `proj` into `out`, once the
    /// residual and the seeded tuples' own conjuncts pass it.
    ///
    /// # Errors
    /// [`RelationalError::PositionOutOfRange`] when an input is not joined
    /// (at its first column) or `proj` reads a column past the product;
    /// predicate evaluation errors.
    pub fn finish(
        &mut self,
        plan: &TermPlan,
        proj: &[usize],
        out: &mut SignedBag,
    ) -> Result<(), RelationalError> {
        if self.rows.is_empty() || !self.seeds_match {
            return Ok(());
        }
        let Executor {
            rows, slots, kept, ..
        } = self;
        let unjoined = || plan.columns.iter().position(|&(i, _)| slots[i].is_none());
        let past_product = proj.iter().copied().find(|&p| p >= plan.width());
        if let Some(position) = past_product.or_else(unjoined) {
            return Err(RelationalError::PositionOutOfRange {
                position,
                arity: plan.width(),
            });
        }
        // Canonical column `c` of row `r`; every input has a slot.
        let value = |r: usize, c: usize| {
            let (input, col) = plan.columns[c];
            &rows.row(r)[slots[input].unwrap_or_default()].values()[col]
        };
        let passes = |r: usize| match &plan.residual {
            Predicate::True => Ok(true),
            residual => residual.eval_columns(plan.width(), &|c| value(r, c)),
        };
        let projected = |r: usize| proj.iter().map(move |&c| value(r, c));
        // A few rows gain nothing from being sorted first.
        if rows.len() <= UNSORTED_ROWS {
            for r in 0..rows.len() {
                if passes(r)? {
                    out.add(Tuple::new(projected(r).cloned()), rows.counts[r]);
                }
            }
            return Ok(());
        }
        let keyed = |r: usize| {
            let mut values = projected(r);
            (prefix_of(values.next(), values.next()), r)
        };
        // The residual, once per joined row.
        kept.clear();
        kept.reserve(rows.len());
        for r in 0..rows.len() {
            if passes(r)? {
                kept.push(keyed(r));
            }
        }
        // The projection, once per surviving row, in bag order: into an
        // empty bag every `add` appends or adjusts the last entry, and
        // the tuples are allocated in the order the bag holds them.
        kept.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| projected(a.1).cmp(projected(b.1)))
        });
        for &(_, r) in kept.iter() {
            out.add(Tuple::new(projected(r).cloned()), rows.counts[r]);
        }
        Ok(())
    }
}

/// Planned evaluation of `π_proj(σ_cond(inputs[0] × … ))`: an
/// [`Executor`] seeded with no bound tuple joins the inputs in
/// [`Executor::next_input`] order, then projects into a fresh bag.
/// Answers equal [`crate::algebra::spj_naive`] exactly.
///
/// # Errors
/// Returns [`RelationalError::PositionOutOfRange`] when `cond` or `proj`
/// references a column outside the product,
/// [`RelationalError::ArityMismatch`] when an input mixes tuple arities,
/// and propagates predicate evaluation errors.
pub fn spj_planned(
    inputs: &[&SignedBag],
    cond: &Predicate,
    proj: &[usize],
) -> Result<SignedBag, RelationalError> {
    if inputs.is_empty() {
        // Zero-ary product is the unit bag {()}: nothing to plan.
        let selected = select(&SignedBag::singleton(Tuple::ints([])), cond)?;
        return project(&selected, proj);
    }
    if inputs.iter().any(|b| b.is_empty()) {
        return Ok(SignedBag::new());
    }
    // Arity of each input, inferred from any tuple (all are non-empty).
    let arities: Vec<usize> = inputs
        .iter()
        .map(|b| b.iter().next().map(|(t, _)| t.arity()).unwrap_or(0))
        .collect();
    let plan = TermPlan::new(arities, cond);
    let mut columns = proj.iter().copied().chain(cond.columns());
    if let Some(position) = columns.find(|&c| c >= plan.width()) {
        return Err(RelationalError::PositionOutOfRange {
            position,
            arity: plan.width(),
        });
    }
    let mut exec = Executor::default();
    exec.seed(&plan, 1, [])?;
    while let Some(i) = exec.next_input(&plan) {
        exec.join(&plan, i, inputs[i].iter())?;
    }
    let mut out = SignedBag::new();
    exec.finish(&plan, proj, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::spj_naive;
    use crate::predicate::CmpOp;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::ints(vals.iter().copied())
    }

    /// The order [`Executor::next_input`] joins the inputs of `plan` in,
    /// once the inputs `seeded` are bound.
    fn join_order(plan: &TermPlan, seeded: &[usize]) -> Vec<usize> {
        let bound: Vec<Tuple> = seeded
            .iter()
            .map(|&i| Tuple::ints((0..plan.arities[i] as i64).map(|_| 0)))
            .collect();
        let mut exec = Executor::default();
        exec.seed(plan, 1, seeded.iter().copied().zip(&bound))
            .unwrap();
        let mut order = Vec::new();
        while let Some(i) = exec.next_input(plan) {
            order.push(i);
            exec.join(plan, i, std::iter::empty()).unwrap();
        }
        order
    }

    fn chain_cond() -> Predicate {
        // r1(W,X) ⋈ r2(X,Y) ⋈ r3(Y,Z), W > 5 — the Example-6 shape with
        // a single-relation constant filter on r1.
        Predicate::col_eq(1, 2)
            .and(Predicate::col_eq(3, 4))
            .and(Predicate::col_const(0, CmpOp::Gt, 5))
    }

    #[test]
    fn classification_splits_pushdown_edges_residual() {
        let plan = TermPlan::new(vec![2, 2, 2], &chain_cond());
        assert_eq!(plan.edges, vec![(1, 2), (3, 4)]);
        // W > 5 references only r1: pushed down, locally col 0.
        assert!(matches!(plan.pushdown[0], Predicate::Cmp { .. }));
        assert!(matches!(plan.pushdown[1], Predicate::True));
        assert!(matches!(plan.pushdown[2], Predicate::True));
        assert!(matches!(plan.residual, Predicate::True));
    }

    #[test]
    fn cross_input_inequality_stays_residual() {
        let cond = Predicate::col_eq(1, 2).and(Predicate::col_cmp(0, CmpOp::Lt, 3));
        let plan = TermPlan::new(vec![2, 2], &cond);
        assert_eq!(plan.edges, vec![(1, 2)]);
        assert!(matches!(plan.residual, Predicate::Cmp { .. }));
    }

    #[test]
    fn disjunction_within_one_input_is_pushed() {
        let cond = Predicate::col_const(0, CmpOp::Eq, 1).or(Predicate::col_const(1, CmpOp::Eq, 2));
        let plan = TermPlan::new(vec![2, 2], &cond);
        assert!(matches!(plan.pushdown[0], Predicate::Or(_, _)));
        assert!(matches!(plan.residual, Predicate::True));
    }

    #[test]
    fn same_input_equality_is_pushed_not_an_edge() {
        let plan = TermPlan::new(vec![3, 1], &Predicate::col_eq(0, 2));
        assert!(plan.edges.is_empty());
        assert!(matches!(plan.pushdown[0], Predicate::Cmp { .. }));
    }

    #[test]
    fn false_conjunct_empties_the_term() {
        let r = SignedBag::from_tuples([t(&[1])]);
        let cond = Predicate::False.and(Predicate::True);
        let v = spj_planned(&[&r, &r], &cond, &[0]).unwrap();
        assert!(v.is_empty());
    }

    #[test]
    fn next_input_walks_an_unseeded_chain_in_input_order() {
        let plan = TermPlan::new(vec![2, 2, 2], &chain_cond());
        assert_eq!(join_order(&plan, &[]), vec![0, 1, 2]);
    }

    #[test]
    fn next_input_takes_a_chain_seeded_in_the_middle_from_its_first_neighbour() {
        let plan = TermPlan::new(vec![2, 2, 2], &chain_cond());
        assert_eq!(join_order(&plan, &[1]), vec![0, 2]);
    }

    #[test]
    fn next_input_walks_a_chain_seeded_at_its_end_back_along_the_edges() {
        let plan = TermPlan::new(vec![2, 2, 2], &chain_cond());
        assert_eq!(join_order(&plan, &[2]), vec![1, 0]);
        assert_eq!(join_order(&plan, &[0]), vec![1, 2]);
    }

    #[test]
    fn next_input_joins_the_unbound_occurrence_of_a_self_join() {
        // r(A,B) ⋈_{B = A} r(A,B): the substitution binds one occurrence.
        let plan = TermPlan::new(vec![2, 2], &Predicate::col_eq(1, 2));
        assert_eq!(join_order(&plan, &[]), vec![0, 1]);
        assert_eq!(join_order(&plan, &[0]), vec![1]);
        assert_eq!(join_order(&plan, &[1]), vec![0]);
        assert!(join_order(&plan, &[0, 1]).is_empty());
    }

    #[test]
    fn next_input_crosses_in_input_order() {
        let plan = TermPlan::new(vec![1, 1, 1], &Predicate::col_cmp(0, CmpOp::Lt, 2));
        assert!(plan.edges.is_empty());
        assert_eq!(join_order(&plan, &[]), vec![0, 1, 2]);
        assert_eq!(join_order(&plan, &[1]), vec![0, 2]);
    }

    #[test]
    fn greedy_order_prefers_linked_inputs_over_cross() {
        // r0 linked to r2 by an edge, r1 to neither: r2 comes before the
        // cross with r1, though r1 comes first in input order.
        let plan = TermPlan::new(vec![2, 2, 2], &Predicate::col_eq(1, 4));
        assert_eq!(join_order(&plan, &[]), vec![0, 2, 1]);
        assert_eq!(join_order(&plan, &[2]), vec![0, 1]);
    }

    #[test]
    fn planned_matches_naive_on_chain_with_reordering() {
        // r1(W,X) ⋈ r3(Y,Z) ⋈ r2(X,Y) given in that input order: the
        // second input is not linked to the first, so r2 is joined before
        // it, and a cross never happens.
        let r1 = SignedBag::from_tuples((0..12).map(|i| t(&[i, i % 4])));
        let r2 = SignedBag::from_tuples((0..8).map(|i| t(&[i % 4, i % 3])));
        let r3 = SignedBag::from_tuples([t(&[1, 7]), t(&[2, 9])]);
        let cond = Predicate::col_eq(1, 4)
            .and(Predicate::col_eq(5, 2))
            .and(Predicate::col_const(0, CmpOp::Gt, 5));
        assert_eq!(
            join_order(&TermPlan::new(vec![2, 2, 2], &cond), &[]),
            vec![0, 2, 1]
        );
        for proj in [&[0usize, 3][..], &[3, 0], &[4, 4, 2]] {
            let planned = spj_planned(&[&r1, &r3, &r2], &cond, proj).unwrap();
            let naive = spj_naive(&[&r1, &r3, &r2], &cond, proj).unwrap();
            assert_eq!(planned, naive, "proj {proj:?}");
        }
    }

    #[test]
    fn planned_matches_naive_with_signed_counts() {
        let mut r1 = SignedBag::new();
        r1.add(t(&[1, 2]), 3);
        r1.add(t(&[6, 2]), -2);
        let mut r2 = SignedBag::new();
        r2.add(t(&[2, 5]), -1);
        r2.add(t(&[2, 6]), 4);
        let cond = Predicate::col_eq(1, 2);
        let planned = spj_planned(&[&r1, &r2], &cond, &[0, 3]).unwrap();
        let naive = spj_naive(&[&r1, &r2], &cond, &[0, 3]).unwrap();
        assert_eq!(planned, naive);
        assert_eq!(planned.count(&t(&[1, 5])), -3);
    }

    #[test]
    fn planned_matches_naive_on_composite_edge() {
        // Two inputs linked by two equalities at once: one composite key.
        let r1 = SignedBag::from_tuples([t(&[1, 2, 0]), t(&[1, 3, 0]), t(&[2, 2, 1])]);
        let r2 = SignedBag::from_tuples([t(&[1, 2]), t(&[2, 2]), t(&[1, 3])]);
        let cond = Predicate::col_eq(0, 3).and(Predicate::col_eq(1, 4));
        let planned = spj_planned(&[&r1, &r2], &cond, &[0, 1, 2]).unwrap();
        let naive = spj_naive(&[&r1, &r2], &cond, &[0, 1, 2]).unwrap();
        assert_eq!(planned, naive);
    }

    #[test]
    fn one_row_build_side_matches_naive_with_signed_counts_on_a_composite_key() {
        // One bound tuple (count −2) against a bag on a two-column key,
        // and the mirror shape, where the bag's side is the one row:
        // either way the keys are compared in place, with no hash table.
        let mut bound = SignedBag::new();
        bound.add(t(&[1, 2, 9]), -2);
        let mut r2 = SignedBag::new();
        for (x, y, c) in [(1, 2, 3), (1, 2, -1), (1, 3, 2), (2, 2, 5), (1, 2, 1)] {
            r2.add(t(&[x, y, c]), c);
        }
        let cond = Predicate::col_eq(0, 3).and(Predicate::col_eq(1, 4));
        for inputs in [[&bound, &r2], [&r2, &bound]] {
            let proj = [2, 5];
            let planned = spj_planned(&inputs, &cond, &proj).unwrap();
            assert_eq!(planned, spj_naive(&inputs, &cond, &proj).unwrap());
            assert_eq!(planned.distinct_len(), 3);
        }
        let planned = spj_planned(&[&bound, &r2], &cond, &[0, 1]).unwrap();
        // (3 − 1 + 1) matches of count −2 each.
        assert_eq!(planned.count(&t(&[1, 2])), -6);
    }

    #[test]
    fn seeded_tuples_that_do_not_join_still_make_one_row() {
        // r1(W,X) and r2(X,Y) bound with X 1 ≠ 2: the row stays for the
        // steps that follow, and finish adds nothing.
        let plan = TermPlan::new(vec![2, 2, 2], &chain_cond());
        let (a, b) = (t(&[9, 1]), t(&[2, 3]));
        let r3 = SignedBag::from_tuples([t(&[3, 4])]);
        let mut exec = Executor::default();
        exec.seed(&plan, 1, [(0, &a), (1, &b)]).unwrap();
        assert_eq!(exec.len(), 1);
        exec.join(&plan, 2, r3.iter()).unwrap();
        assert_eq!(exec.len(), 1);
        let mut out = SignedBag::new();
        exec.finish(&plan, &[0, 5], &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn planned_matches_naive_on_pure_cross_with_residual() {
        let r1 = SignedBag::from_tuples([t(&[1]), t(&[5])]);
        let r2 = SignedBag::from_tuples([t(&[3]), t(&[4])]);
        let cond = Predicate::col_cmp(0, CmpOp::Lt, 1);
        let planned = spj_planned(&[&r1, &r2], &cond, &[0, 1]).unwrap();
        let naive = spj_naive(&[&r1, &r2], &cond, &[0, 1]).unwrap();
        assert_eq!(planned, naive);
        assert_eq!(planned.pos_len(), 2); // (1,3), (1,4)
    }

    #[test]
    fn out_of_range_columns_error() {
        let r = SignedBag::from_tuples([t(&[1])]);
        let err = spj_planned(&[&r], &Predicate::col_const(4, CmpOp::Eq, 1), &[0]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::PositionOutOfRange {
                position: 4,
                arity: 1
            }
        ));
        let err = spj_planned(&[&r], &Predicate::True, &[2]).unwrap_err();
        assert!(matches!(
            err,
            RelationalError::PositionOutOfRange {
                position: 2,
                arity: 1
            }
        ));
    }
}
