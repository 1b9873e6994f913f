//! Physical query evaluation with metered I/O, under the paper's two cost
//! scenarios (§6.3, Appendix D).
//!
//! The rows come from the one SPJ executor the warehouse also runs
//! ([`eca_relational::planner::Executor`]): each term is seeded with its
//! bound tuples, and the engine joins the other relations in the order
//! the executor picks ([`Executor::next_input`]), the one the warehouse's
//! terms are joined in too. What the engine adds is the access path per
//! relation and its charge; answers are exact and differentially tested
//! against the logical evaluator.
//!
//! ## Scenario 1 — indexes + ample memory
//!
//! Bound tuples are in-memory and free. Each remaining relation is brought
//! in either by **index probes** (one lookup per current intermediate row,
//! no caching across probes or terms — the paper's pessimistic
//! assumption) or by a **full scan** followed by an in-memory hash join;
//! the engine picks the cheaper by exact cost, which reproduces the
//! paper's `min(J, I)` behaviour. Each row's lookup is searched for once,
//! whatever its index kind: the choice costs the run [`Table::lookup`]
//! names, and the probes read the runs the choice kept.
//!
//! ## Scenario 2 — no indexes, `m` free memory blocks
//!
//! Unbound relations are charged as a left-deep block-nested-loop: the
//! first `j−1` loop levels hold one block each, the innermost is streamed,
//! and any spare memory widens the outermost chunk. Level `i` is charged
//! `(Π_{l<i} chunks_l) × I_i` block reads. For the paper's parameters this
//! yields `I + I·I + I·I·I` for a 3-relation recompute (the paper quotes
//! the dominant `I³`) and `I + I′·I` for a one-bound-tuple query (the
//! paper quotes `I·I′`); lower-order differences are tabulated in
//! `EXPERIMENTS.md`. The charge is a formula over the relations' block
//! counts; the rows are computed by hash joins over the heaps.

use std::cell::Cell;
use std::collections::BTreeMap;

use eca_core::{Query, Term, ViewDef};
use eca_relational::planner::{Executor, TermPlan};
use eca_relational::{SignedBag, Tuple, Update, UpdateKind};

use crate::error::StorageError;
use crate::heap::Run;
use crate::io::IoMeter;
use crate::table::Table;

/// Which Appendix-D cost scenario the engine runs under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scenario {
    /// Scenario 1: in-memory indexes, ample memory.
    Indexed,
    /// Scenario 2: no indexes, a fixed number of free memory blocks
    /// (the paper uses 3).
    NestedLoop {
        /// Total free memory blocks available to join processing.
        memory_blocks: usize,
    },
}

impl Scenario {
    /// The paper's Scenario 2 default.
    pub fn nested_loop_default() -> Self {
        Scenario::NestedLoop { memory_blocks: 3 }
    }
}

/// One step of a chosen physical plan, for tests and explain output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanStep {
    /// The relation was fully scanned (`blocks` reads) and hash-joined.
    Scan {
        /// Relation name.
        relation: String,
        /// Blocks read.
        blocks: u64,
    },
    /// The relation was probed through an index, once per intermediate row.
    Probe {
        /// Relation name.
        relation: String,
        /// Number of probes issued.
        probes: u64,
        /// Total blocks read by the probes.
        blocks: u64,
    },
    /// Nested-loop level charge (Scenario 2).
    NestedLoopLevel {
        /// Relation name.
        relation: String,
        /// Times the relation is (re)scanned.
        passes: u64,
        /// Total blocks read.
        blocks: u64,
    },
}

/// What one query's terms share: the executor's buffers and the runs of
/// a step's index lookups.
struct QueryState<'a> {
    exec: Executor<'a>,
    runs: Vec<Run>,
}

/// The metered physical engine: a set of [`Table`]s plus a scenario.
pub struct StorageEngine {
    tables: BTreeMap<String, Table>,
    scenario: Scenario,
    meter: IoMeter,
    /// [`QueryState::runs`] between queries, so a query reuses its room.
    runs: Cell<Vec<Run>>,
}

impl StorageEngine {
    /// An empty engine.
    pub fn new(scenario: Scenario) -> Self {
        StorageEngine {
            tables: BTreeMap::new(),
            scenario,
            meter: IoMeter::new(),
            runs: Cell::default(),
        }
    }

    /// The shared I/O meter.
    pub fn meter(&self) -> &IoMeter {
        &self.meter
    }

    /// Create and register a table. In Scenario 2 index arguments are
    /// accepted but ignored (the executor never uses them).
    ///
    /// # Errors
    /// Propagates [`Table::new`] validation errors.
    pub fn create_table(
        &mut self,
        schema: eca_relational::Schema,
        tuples_per_block: usize,
        clustered_on: Option<&str>,
        unclustered_on: &[&str],
    ) -> Result<(), StorageError> {
        let table = Table::new(
            schema.clone(),
            tuples_per_block,
            clustered_on,
            unclustered_on,
            self.meter.clone(),
        )?;
        self.tables.insert(schema.relation().to_owned(), table);
        Ok(())
    }

    /// Access a registered table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Apply a base-relation update. Returns `false` for an ineffective
    /// delete, an unknown table, or an insert into a full heap
    /// ([`StorageError::HeapFull`]; nothing changes).
    pub fn apply(&mut self, update: &Update) -> bool {
        let Some(table) = self.tables.get_mut(&update.relation) else {
            return false;
        };
        match update.kind {
            UpdateKind::Insert => table.insert(update.tuple.clone()).is_ok(),
            UpdateKind::Delete => table.delete(&update.tuple),
        }
    }

    /// Bulk-load tuples into a table — equivalent to applying one insert
    /// per tuple in order (same heap order, same update touches), without
    /// the per-insert shifting.
    ///
    /// # Errors
    /// [`StorageError::UnknownTable`] for an unregistered relation, and
    /// [`StorageError::HeapFull`] (nothing loaded) from the table.
    pub fn load(
        &mut self,
        relation: &str,
        tuples: impl IntoIterator<Item = Tuple>,
    ) -> Result<(), StorageError> {
        let table = self
            .tables
            .get_mut(relation)
            .ok_or_else(|| StorageError::UnknownTable {
                table: relation.to_owned(),
            })?;
        table.load(tuples)
    }

    /// Evaluate a warehouse query physically, charging the meter.
    ///
    /// # Errors
    /// [`StorageError::UnknownTable`] if the query mentions an unloaded
    /// relation; relational errors from condition evaluation.
    pub fn eval_query(&self, query: &Query) -> Result<SignedBag, StorageError> {
        self.eval_terms(query.view(), query.terms())
    }

    /// Evaluate `terms` over `view`, charging the meter. Every term must
    /// fit the view ([`ViewDef::check_term`]).
    ///
    /// # Errors
    /// As [`StorageEngine::eval_query`].
    pub fn eval_terms(&self, view: &ViewDef, terms: &[Term]) -> Result<SignedBag, StorageError> {
        let mut out = SignedBag::new();
        self.eval_into(view, terms, &mut out, None)?;
        Ok(out)
    }

    /// Evaluate and also return the physical plan steps taken per term.
    ///
    /// # Errors
    /// As [`StorageEngine::eval_query`].
    #[cfg(test)]
    fn explain_query(&self, query: &Query) -> Result<Vec<Vec<PlanStep>>, StorageError> {
        let mut plans = Vec::new();
        self.eval_into(
            query.view(),
            query.terms(),
            &mut SignedBag::new(),
            Some(&mut plans),
        )?;
        Ok(plans)
    }

    /// Add every term into `out`, in term order; with `plans`, also
    /// record each term's plan steps there.
    fn eval_into(
        &self,
        view: &ViewDef,
        terms: &[Term],
        out: &mut SignedBag,
        mut plans: Option<&mut Vec<Vec<PlanStep>>>,
    ) -> Result<(), StorageError> {
        let mut state = QueryState {
            exec: Executor::default(),
            runs: self.runs.take(),
        };
        let evaluated = terms.iter().try_for_each(|term| {
            let steps = plans.as_deref_mut().map(|plans| {
                plans.push(Vec::new());
                plans.last_mut()
            });
            self.eval_term(view, term, &mut state, out, steps.flatten())
        });
        self.runs.set(state.runs);
        evaluated
    }

    fn table_for(&self, view: &ViewDef, rel_idx: usize) -> Result<&Table, StorageError> {
        let name = view.base()[rel_idx].relation();
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable {
                table: name.to_owned(),
            })
    }

    /// Add one term's result into `out`.
    fn eval_term<'a>(
        &'a self,
        view: &'a ViewDef,
        term: &'a Term,
        state: &mut QueryState<'a>,
        out: &mut SignedBag,
        mut steps: Option<&mut Vec<PlanStep>>,
    ) -> Result<(), StorageError> {
        let plan = view.plan();
        term.seed(plan, &mut state.exec)?;
        if let Scenario::NestedLoop { memory_blocks } = self.scenario {
            self.charge_nested_loop(view, &state.exec, memory_blocks, steps.as_deref_mut())?;
        }
        while let Some(next) = state.exec.next_input(plan) {
            let table = self.table_for(view, next)?;
            match self.scenario {
                Scenario::Indexed => {
                    let relation = view.base()[next].relation();
                    self.join_indexed(plan, next, relation, table, state, steps.as_deref_mut())?;
                }
                Scenario::NestedLoop { .. } => {
                    state.exec.join(plan, next, heap_rows(table.tuples()))?;
                }
            }
        }
        state.exec.finish(plan, view.proj(), out)?;
        Ok(())
    }

    /// Scenario 1: join relation `next` by index probes or by a scan and
    /// hash join, whichever reads fewer blocks.
    fn join_indexed<'a>(
        &self,
        plan: &TermPlan,
        next: usize,
        relation: &str,
        table: &'a Table,
        state: &mut QueryState<'a>,
        steps: Option<&mut Vec<PlanStep>>,
    ) -> Result<(), StorageError> {
        let QueryState { exec, runs } = state;
        let scan_cost = table.num_blocks();
        // The first link into `next` whose attribute has an index.
        let probe = exec
            .links(plan, next)
            .find(|link| table.index_on(link.attr).is_some());
        if let Some(link) = probe {
            // One run per row (the attribute has an index, so every
            // lookup finds one), searched for here and read below.
            runs.clear();
            runs.extend(
                exec.probe_values(link)
                    .filter_map(|v| table.lookup(link.attr, v)),
            );
            let probe_cost: u64 = runs.iter().map(Run::blocks).sum();
            if probe_cost <= scan_cost || exec.is_empty() {
                let probes = exec.len() as u64;
                let before = self.meter.query_reads();
                let mut runs = runs.iter();
                exec.join_probe(plan, next, link, |emit| {
                    if let Some(run) = runs.next() {
                        table.read(run, emit);
                    }
                })?;
                let blocks = self.meter.query_reads() - before;
                record(steps, relation, |relation| PlanStep::Probe {
                    relation,
                    probes,
                    blocks,
                });
                return Ok(());
            }
        }
        record(steps, relation, |relation| PlanStep::Scan {
            relation,
            blocks: scan_cost,
        });
        Ok(exec.join(plan, next, heap_rows(table.scan()))?)
    }

    /// Scenario 2: charge the left-deep block-nested loop over the
    /// relations the term leaves unbound, in relation order.
    fn charge_nested_loop(
        &self,
        view: &ViewDef,
        exec: &Executor<'_>,
        memory_blocks: usize,
        mut steps: Option<&mut Vec<PlanStep>>,
    ) -> Result<(), StorageError> {
        let unbound = || (0..view.base().len()).filter(|&i| !exec.is_joined(i));
        // Memory layout: inner levels hold 1 block each; spare memory
        // widens the outermost chunk (minimum 1).
        let spare = memory_blocks.saturating_sub(unbound().count());
        let mut passes_product = 1u64;
        for (level, next) in unbound().enumerate() {
            let blocks = self.table_for(view, next)?.num_blocks();
            let level_blocks = if level == 0 { 1 + spare as u64 } else { 1 };
            // This level is re-scanned once per combination of outer chunks.
            let reads = passes_product * blocks;
            self.meter.charge_read(reads);
            if let Some(steps) = steps.as_deref_mut() {
                steps.push(PlanStep::NestedLoopLevel {
                    relation: view.base()[next].relation().to_owned(),
                    passes: passes_product,
                    blocks: reads,
                });
            }
            // Chunks this level contributes to inner re-scan counts.
            passes_product *= blocks.div_ceil(level_blocks).max(1);
        }
        Ok(())
    }
}

/// Push `step` of `relation` onto `steps`, when they are asked for.
fn record(
    steps: Option<&mut Vec<PlanStep>>,
    relation: &str,
    step: impl FnOnce(String) -> PlanStep,
) {
    if let Some(steps) = steps {
        steps.push(step(relation.to_owned()));
    }
}

/// A heap's tuples as the executor joins them: each occurrence once.
fn heap_rows(tuples: &[Tuple]) -> impl Iterator<Item = (&Tuple, i64)> {
    tuples.iter().map(|t| (t, 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::{BaseDb, ViewDef};
    use eca_relational::{Predicate, Schema};

    /// The paper's Example 6 schema: r1(W,X) ⋈X r2(X,Y) ⋈Y r3(Y,Z),
    /// cond W > Z, V = π_{W,Z}.
    fn example6_view() -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
                Schema::new("r3", &["Y", "Z"]),
            ],
            Predicate::col_eq(1, 2)
                .and(Predicate::col_eq(3, 4))
                .and(Predicate::col_cmp(0, eca_relational::CmpOp::Gt, 5)),
            vec![0, 5],
        )
        .unwrap()
    }

    /// Build an engine with the paper's Scenario-1 index configuration:
    /// clustered on X for r1 and r2, clustered on Y for r3, non-clustered
    /// on Y for r2.
    fn scenario1_engine(k: usize) -> StorageEngine {
        let mut e = StorageEngine::new(Scenario::Indexed);
        e.create_table(Schema::new("r1", &["W", "X"]), k, Some("X"), &[])
            .unwrap();
        e.create_table(Schema::new("r2", &["X", "Y"]), k, Some("X"), &["Y"])
            .unwrap();
        e.create_table(Schema::new("r3", &["Y", "Z"]), k, Some("Y"), &[])
            .unwrap();
        e
    }

    fn scenario2_engine(k: usize) -> StorageEngine {
        let mut e = StorageEngine::new(Scenario::nested_loop_default());
        e.create_table(Schema::new("r1", &["W", "X"]), k, None, &[])
            .unwrap();
        e.create_table(Schema::new("r2", &["X", "Y"]), k, None, &[])
            .unwrap();
        e.create_table(Schema::new("r3", &["Y", "Z"]), k, None, &[])
            .unwrap();
        e
    }

    /// Populate with a small deterministic workload and mirror into a
    /// logical BaseDb for differential checks.
    fn populate(engine: &mut StorageEngine, view: &ViewDef) -> BaseDb {
        let mut db = BaseDb::for_view(view);
        let mut tuples = Vec::new();
        for i in 0..30i64 {
            tuples.push(Update::insert("r1", Tuple::ints([i % 17, i % 5])));
            tuples.push(Update::insert("r2", Tuple::ints([i % 5, i % 7])));
            tuples.push(Update::insert("r3", Tuple::ints([i % 7, i % 11])));
        }
        for u in &tuples {
            engine.apply(u);
            db.apply(u);
        }
        engine.meter().reset();
        db
    }

    #[test]
    fn differential_full_view_scenario1() {
        let view = example6_view();
        let mut engine = scenario1_engine(4);
        let db = populate(&mut engine, &view);
        let physical = engine.eval_query(&view.as_query()).unwrap();
        let logical = view.eval(&db).unwrap();
        assert_eq!(physical, logical);
        assert!(engine.meter().query_reads() > 0);
    }

    #[test]
    fn differential_full_view_scenario2() {
        let view = example6_view();
        let mut engine = scenario2_engine(4);
        let db = populate(&mut engine, &view);
        let physical = engine.eval_query(&view.as_query()).unwrap();
        let logical = view.eval(&db).unwrap();
        assert_eq!(physical, logical);
    }

    #[test]
    fn differential_bound_terms_both_scenarios() {
        let view = example6_view();
        for engine in [&mut scenario1_engine(4), &mut scenario2_engine(4)] {
            let db = populate(engine, &view);
            let updates = [
                Update::insert("r1", Tuple::ints([3, 2])),
                Update::insert("r2", Tuple::ints([2, 4])),
                Update::delete("r3", Tuple::ints([0, 0])),
            ];
            for u in &updates {
                let q = view.substitute(u).unwrap();
                assert_eq!(
                    engine.eval_query(&q).unwrap(),
                    q.eval(&db).unwrap(),
                    "update {u:?}"
                );
            }
        }
    }

    #[test]
    fn compensated_query_differential() {
        let view = example6_view();
        let mut engine = scenario1_engine(4);
        let db = populate(&mut engine, &view);
        let u1 = Update::insert("r1", Tuple::ints([3, 2]));
        let u2 = Update::insert("r3", Tuple::ints([4, 1]));
        let q1 = view.substitute(&u1).unwrap();
        let q2 = view.substitute(&u2).unwrap().minus(&q1.substitute(&u2));
        assert_eq!(engine.eval_query(&q2).unwrap(), q2.eval(&db).unwrap());
    }

    /// Scenario 1, full recompute: exactly 3I block reads (paper:
    /// `IO_RVBest = 3I`).
    #[test]
    fn scenario1_recompute_costs_3i() {
        let view = example6_view();
        let mut engine = scenario1_engine(4);
        populate(&mut engine, &view);
        let i = engine.table("r1").unwrap().num_blocks();
        engine.meter().reset();
        engine.eval_query(&view.as_query()).unwrap();
        assert_eq!(engine.meter().query_reads(), 3 * i);
    }

    /// Scenario 1, single-bound-tuple query on r2: probes r1 and r3 via
    /// clustered indexes — a handful of reads, far below a scan.
    #[test]
    fn scenario1_bound_query_uses_probes() {
        let view = example6_view();
        let mut engine = scenario1_engine(4);
        populate(&mut engine, &view);
        engine.meter().reset();
        let q = view
            .substitute(&Update::insert("r2", Tuple::ints([2, 4])))
            .unwrap();
        let plans = engine.explain_query(&q).unwrap();
        assert!(plans[0].iter().any(|s| matches!(s, PlanStep::Probe { .. })));
        let scan_all = 3 * engine.table("r1").unwrap().num_blocks();
        assert!(engine.meter().query_reads() < scan_all);
    }

    /// Scenario 2, full recompute: charges I + I² + I³ (paper's dominant
    /// term is I³).
    #[test]
    fn scenario2_recompute_is_cubic() {
        let view = example6_view();
        let mut engine = scenario2_engine(4);
        populate(&mut engine, &view);
        let i = engine.table("r1").unwrap().num_blocks();
        engine.meter().reset();
        engine.eval_query(&view.as_query()).unwrap();
        assert_eq!(engine.meter().query_reads(), i + i * i + i * i * i);
    }

    /// Scenario 2, one bound tuple: outer relation chunked by the spare
    /// memory → I + ⌈I/2⌉·I (paper quotes I·I′).
    #[test]
    fn scenario2_bound_query_chunked() {
        let view = example6_view();
        let mut engine = scenario2_engine(4);
        populate(&mut engine, &view);
        let i = engine.table("r2").unwrap().num_blocks();
        engine.meter().reset();
        let q = view
            .substitute(&Update::insert("r1", Tuple::ints([3, 2])))
            .unwrap();
        engine.eval_query(&q).unwrap();
        assert_eq!(engine.meter().query_reads(), i + i.div_ceil(2) * i);
    }

    /// Scenario 2, two bound tuples: a single scan of the remaining
    /// relation (paper: each extra compensating term costs I).
    #[test]
    fn scenario2_double_bound_costs_one_scan() {
        let view = example6_view();
        let mut engine = scenario2_engine(4);
        populate(&mut engine, &view);
        let i = engine.table("r3").unwrap().num_blocks();
        engine.meter().reset();
        let u1 = Update::insert("r1", Tuple::ints([3, 2]));
        let u2 = Update::insert("r2", Tuple::ints([2, 4]));
        let q = view.substitute(&u1).unwrap().substitute(&u2);
        engine.eval_query(&q).unwrap();
        assert_eq!(engine.meter().query_reads(), i);
    }

    /// All atoms bound: zero I/O (paper: the fully-bound term of Q6 is
    /// free).
    #[test]
    fn fully_bound_term_is_free() {
        let view = example6_view();
        for engine in [&mut scenario1_engine(4), &mut scenario2_engine(4)] {
            populate(engine, &view);
            engine.meter().reset();
            let q = view
                .substitute(&Update::insert("r1", Tuple::ints([9, 2])))
                .unwrap()
                .substitute(&Update::insert("r2", Tuple::ints([2, 4])))
                .substitute(&Update::insert("r3", Tuple::ints([4, 1])));
            let a = engine.eval_query(&q).unwrap();
            assert_eq!(engine.meter().query_reads(), 0);
            assert_eq!(a, SignedBag::from_tuples([Tuple::ints([9, 1])]));
        }
    }

    /// Build the 4-term compensating query Q3 plus the full-view term —
    /// the shape ECA sends after a burst of updates.
    fn four_term_query(view: &ViewDef) -> eca_core::Query {
        let u1 = Update::insert("r1", Tuple::ints([3, 2]));
        let u2 = Update::insert("r3", Tuple::ints([4, 1]));
        let u3 = Update::insert("r2", Tuple::ints([2, 4]));
        let q1 = view.substitute(&u1).unwrap();
        let q2 = view.substitute(&u2).unwrap().minus(&q1.substitute(&u2));
        let q3 = view
            .substitute(&u3)
            .unwrap()
            .minus(&q1.substitute(&u3))
            .minus(&q2.substitute(&u3));
        assert_eq!(q3.terms().len(), 4);
        q3
    }

    /// One plan step, compactly: the relation, then the passes or probes
    /// and the blocks read.
    fn step(s: &PlanStep) -> String {
        match s {
            PlanStep::Scan { relation, blocks } => format!("scan {relation} {blocks}"),
            PlanStep::Probe {
                relation,
                probes,
                blocks,
            } => format!("probe {relation} x{probes} {blocks}"),
            PlanStep::NestedLoopLevel {
                relation,
                passes,
                blocks,
            } => format!("loop {relation} x{passes} {blocks}"),
        }
    }

    /// Example 6's queries: the recompute, one bound tuple (on r1, and on
    /// r3, which reaches r2 through its unclustered index on Y), two and
    /// three bound tuples, and the 3- and 4-term compensating queries.
    fn example6_queries(view: &ViewDef) -> Vec<(&'static str, Query)> {
        let u1 = Update::insert("r1", Tuple::ints([3, 2]));
        let u2 = Update::insert("r3", Tuple::ints([4, 1]));
        let u3 = Update::insert("r2", Tuple::ints([2, 4]));
        let q1 = view.substitute(&u1).unwrap();
        let q2 = view.substitute(&u2).unwrap().minus(&q1.substitute(&u2));
        let three_terms = view.substitute(&u3).unwrap().minus(&q2.substitute(&u3));
        vec![
            ("recompute", view.as_query()),
            ("one bound", q1.clone()),
            ("one bound on r3", view.substitute(&u2).unwrap()),
            ("two bound", q1.substitute(&u2)),
            ("three bound", q1.substitute(&u2).substitute(&u3)),
            ("3-term", three_terms),
            ("4-term", four_term_query(view)),
        ]
    }

    /// What each Example 6 query charges, pinned per term and per plan
    /// step under both scenarios: the charge model is kept apart from how the rows are
    /// computed, so a change to the executor must leave every line as it
    /// is.
    #[test]
    fn example6_charges_are_pinned() {
        let view = example6_view();
        let mut lines = Vec::new();
        for mode in ["indexed", "nested loop"] {
            for (name, query) in example6_queries(&view) {
                let mut engine = match mode {
                    "nested loop" => scenario2_engine(4),
                    _ => scenario1_engine(4),
                };
                populate(&mut engine, &view);
                let plans = engine.explain_query(&query).unwrap();
                let terms: Vec<String> = plans
                    .iter()
                    .map(|steps| match steps.len() {
                        0 => "-".to_owned(),
                        _ => steps.iter().map(step).collect::<Vec<_>>().join(", "),
                    })
                    .collect();
                lines.push(format!(
                    "{mode} / {name}: {} | {}",
                    engine.meter().query_reads(),
                    terms.join(" | ")
                ));
            }
        }
        let expected: Vec<&str> = PINNED_CHARGES
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        assert_eq!(lines, expected);
    }

    const PINNED_CHARGES: &str = "
    indexed / recompute: 24 | scan r1 8, scan r2 8, scan r3 8
    indexed / one bound: 10 | probe r2 x1 2, scan r3 8
    indexed / one bound on r3: 12 | probe r2 x1 4, probe r1 x4 8
    indexed / two bound: 2 | probe r2 x1 2
    indexed / three bound: 0 | -
    indexed / 3-term: 12 | probe r1 x1 2, scan r3 8 | probe r1 x1 2 | -
    indexed / 4-term: 14 | probe r1 x1 2, scan r3 8 | probe r3 x1 2 | probe r1 x1 2 | -
    nested loop / recompute: 584 | loop r1 x1 8, loop r2 x8 64, loop r3 x64 512
    nested loop / one bound: 40 | loop r2 x1 8, loop r3 x4 32
    nested loop / one bound on r3: 40 | loop r1 x1 8, loop r2 x4 32
    nested loop / two bound: 8 | loop r2 x1 8
    nested loop / three bound: 0 | -
    nested loop / 3-term: 48 | loop r1 x1 8, loop r3 x4 32 | loop r1 x1 8 | -
    nested loop / 4-term: 56 | loop r1 x1 8, loop r3 x4 32 | loop r3 x1 8 | loop r1 x1 8 | -";

    #[test]
    fn unknown_table_is_an_error() {
        let view = example6_view();
        let engine = StorageEngine::new(Scenario::Indexed);
        assert!(matches!(
            engine.eval_query(&view.as_query()),
            Err(StorageError::UnknownTable { .. })
        ));
    }

    #[test]
    fn apply_updates_and_ineffective_delete() {
        let mut engine = scenario1_engine(4);
        assert!(engine.apply(&Update::insert("r1", Tuple::ints([1, 2]))));
        assert!(engine.apply(&Update::delete("r1", Tuple::ints([1, 2]))));
        assert!(!engine.apply(&Update::delete("r1", Tuple::ints([1, 2]))));
        assert!(!engine.apply(&Update::insert("zz", Tuple::ints([1]))));
    }
}
