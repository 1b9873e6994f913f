//! Physical query evaluation with metered I/O, under the paper's two cost
//! scenarios (§6.3, Appendix D).
//!
//! ## Scenario 1 — indexes + ample memory
//!
//! Bound tuples are in-memory and free. Each remaining relation is brought
//! in either by **index probes** (one lookup per current intermediate row,
//! no caching across probes — the paper's pessimistic assumption) or by a
//! **full scan** followed by an in-memory hash join; the planner picks the
//! cheaper by exact cost, which reproduces the paper's `min(J, I)`
//! behaviour.
//!
//! ## Scenario 2 — no indexes, `m` free memory blocks
//!
//! Unbound relations are processed as a left-deep block-nested-loop: the
//! first `j−1` loop levels hold one block each, the innermost is streamed,
//! and any spare memory widens the outermost chunk. Level `i` is charged
//! `(Π_{l<i} chunks_l) × I_i` block reads. For the paper's parameters this
//! yields `I + I·I + I·I·I` for a 3-relation recompute (the paper quotes
//! the dominant `I³`) and `I + I′·I` for a one-bound-tuple query (the
//! paper quotes `I·I′`); lower-order differences are tabulated in
//! `EXPERIMENTS.md`.
//!
//! Result *values* are computed with in-memory joins — the charge model
//! simulates what the block-level plans would read, while the answers are
//! exact and differentially tested against the logical evaluator.

use std::collections::{BTreeMap, HashMap};

use eca_core::{Atom, Query, Term, ViewDef};
use eca_relational::{SignedBag, Tuple, Update, UpdateKind, Value};

use crate::cache::BlockCache;
use crate::error::StorageError;
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
    /// The relation's tuples were reused from the term-batching memo: an
    /// earlier term of the same query already paid for the scan, so no
    /// blocks are charged.
    SharedScan {
        /// Relation name.
        relation: String,
    },
}

/// Per-query memo shared by the terms of one batched evaluation: full
/// scans and index-probe results already paid for by an earlier term are
/// reused in memory instead of being re-read (and re-charged).
///
/// This is the "multiple term optimization" the paper's Appendix D
/// deliberately leaves out of its pessimistic analysis ("whenever we probe
/// a relation, we go to disk to read the block") and §6.3 calls out as the
/// obvious improvement. It assumes Scenario 1's ample memory; the
/// Scenario-2 nested-loop executor (whose premise is three memory blocks)
/// never consults it.
#[derive(Default)]
struct BatchMemo {
    /// Relation → tuples of a completed full scan (the relation is now
    /// memory-resident for the rest of the query).
    scans: HashMap<String, Vec<Tuple>>,
    /// `(relation, attribute, value)` → matches of a completed index probe.
    probes: HashMap<(String, usize, Value), Vec<Tuple>>,
}

/// The metered physical engine: a set of [`Table`]s plus a scenario.
pub struct StorageEngine {
    tables: BTreeMap<String, Table>,
    scenario: Scenario,
    meter: IoMeter,
    cache: Option<BlockCache>,
    batching: bool,
}

impl StorageEngine {
    /// An empty engine.
    pub fn new(scenario: Scenario) -> Self {
        StorageEngine {
            tables: BTreeMap::new(),
            scenario,
            meter: IoMeter::new(),
            cache: None,
            batching: false,
        }
    }

    /// Enable multi-term batching: the terms of one query share a memo of
    /// completed scans and index probes, so a k-term query reads each base
    /// relation roughly once instead of k times. Off by default — the
    /// paper's Appendix-D costs assume every term pays for its own reads,
    /// and the cost-model tests pin that pessimistic behaviour.
    pub fn enable_term_batching(&mut self) {
        self.batching = true;
    }

    /// Whether multi-term batching is enabled.
    #[cfg(test)]
    fn term_batching_enabled(&self) -> bool {
        self.batching
    }

    /// Enable a shared LRU block cache of `capacity` blocks over all
    /// current and future tables — the caching ablation the paper's
    /// no-caching analysis invites (§6.3). Scenario-2 nested-loop scans
    /// bypass it by design.
    pub fn enable_cache(&mut self, capacity: usize) -> BlockCache {
        let cache = BlockCache::new(capacity);
        for table in self.tables.values_mut() {
            table.set_cache(cache.clone());
        }
        self.cache = Some(cache.clone());
        cache
    }

    /// The shared I/O meter.
    pub fn meter(&self) -> &IoMeter {
        &self.meter
    }

    /// The active scenario.
    pub fn scenario(&self) -> Scenario {
        self.scenario
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
        let mut table = Table::new(
            schema.clone(),
            tuples_per_block,
            clustered_on,
            unclustered_on,
            self.meter.clone(),
        )?;
        if let Some(cache) = &self.cache {
            table.set_cache(cache.clone());
        }
        self.tables.insert(schema.relation().to_owned(), table);
        Ok(())
    }

    /// Access a registered table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Apply a base-relation update. Returns `false` for an ineffective
    /// delete or unknown table.
    pub fn apply(&mut self, update: &Update) -> bool {
        let Some(table) = self.tables.get_mut(&update.relation) else {
            return false;
        };
        match update.kind {
            UpdateKind::Insert => {
                table.insert(update.tuple.clone());
                true
            }
            UpdateKind::Delete => table.delete(&update.tuple),
        }
    }

    /// Bulk-load tuples into a table — equivalent to applying one insert
    /// per tuple in order (same heap order, same update touches), without
    /// the per-insert shifting. Returns `false` for an unknown table.
    pub fn load(&mut self, relation: &str, tuples: impl IntoIterator<Item = Tuple>) -> bool {
        let Some(table) = self.tables.get_mut(relation) else {
            return false;
        };
        table.load(tuples);
        true
    }

    /// Evaluate a warehouse query physically, charging the meter.
    ///
    /// # Errors
    /// [`StorageError::UnknownTable`] if the query mentions an unloaded
    /// relation; relational errors from condition evaluation.
    pub fn eval_query(&self, query: &Query) -> Result<SignedBag, StorageError> {
        let mut memo = self.batching.then(BatchMemo::default);
        let mut out = SignedBag::new();
        for term in query.terms() {
            let (bag, _) = self.eval_term(query.view(), term, memo.as_mut())?;
            out.merge(&bag);
        }
        Ok(out)
    }

    /// Evaluate and also return the physical plan steps taken per term.
    ///
    /// # Errors
    /// As [`StorageEngine::eval_query`].
    #[cfg(test)]
    fn explain_query(&self, query: &Query) -> Result<Vec<Vec<PlanStep>>, StorageError> {
        let mut memo = self.batching.then(BatchMemo::default);
        query
            .terms()
            .iter()
            .map(|t| {
                self.eval_term(query.view(), t, memo.as_mut())
                    .map(|(_, plan)| plan)
            })
            .collect()
    }

    fn table_for(&self, view: &ViewDef, rel_idx: usize) -> Result<&Table, StorageError> {
        let name = view.base()[rel_idx].relation();
        self.tables
            .get(name)
            .ok_or_else(|| StorageError::UnknownTable {
                table: name.to_owned(),
            })
    }

    fn eval_term(
        &self,
        view: &ViewDef,
        term: &Term,
        memo: Option<&mut BatchMemo>,
    ) -> Result<(SignedBag, Vec<PlanStep>), StorageError> {
        let n = view.base().len();
        // Join edges in (rel, local attr) form, derived from the view
        // condition's conjunctive equi-join pairs over product columns.
        let edges = join_edges(view);

        // Intermediate rows: per-relation assignment plus a signed count.
        let mut rows: Vec<(Vec<Option<Tuple>>, i64)> = Vec::new();
        let mut assigned = vec![false; n];
        let mut initial = vec![None; n];
        let mut factor = term.factor();
        for (i, atom) in term.atoms().iter().enumerate() {
            if let Atom::Bound(st) = atom {
                initial[i] = Some(st.tuple.clone());
                factor *= st.sign.factor();
                assigned[i] = true;
            }
        }
        rows.push((initial, factor));

        let mut plan = Vec::new();
        match self.scenario {
            Scenario::Indexed => {
                self.eval_indexed(view, &edges, &mut rows, &mut assigned, memo, &mut plan)?;
            }
            Scenario::NestedLoop { memory_blocks } => {
                self.eval_nested_loop(
                    view,
                    &edges,
                    &mut rows,
                    &mut assigned,
                    memory_blocks,
                    &mut plan,
                )?;
            }
        }

        // Assemble product tuples, apply the full condition, project.
        let mut out = SignedBag::new();
        for (assignment, count) in rows {
            if count == 0 {
                continue;
            }
            let mut values = Vec::with_capacity(view.product_arity());
            for t in assignment.iter() {
                let t = t.as_ref().expect("all relations assigned");
                values.extend(t.values().iter().cloned());
            }
            let product = Tuple::new(values);
            if view.cond().eval(&product)? {
                out.add(product.project(view.proj()), count);
            }
        }
        Ok((out, plan))
    }

    /// Scenario 1: per relation, choose index probes vs scan+hash-join by
    /// exact cost. With a batch memo, relations already scanned by an
    /// earlier term of the same query are memory-resident (free), and
    /// repeated index probes for the same `(attribute, value)` are served
    /// from the memo without re-reading blocks.
    fn eval_indexed(
        &self,
        view: &ViewDef,
        edges: &[JoinEdge],
        rows: &mut Vec<(Vec<Option<Tuple>>, i64)>,
        assigned: &mut [bool],
        mut memo: Option<&mut BatchMemo>,
        plan: &mut Vec<PlanStep>,
    ) -> Result<(), StorageError> {
        while let Some(next) = pick_next(assigned, edges) {
            let relation = view.base()[next].relation().to_owned();
            let table = self.table_for(view, next)?;

            // A relation fully scanned by an earlier term is resident:
            // join against it in memory at zero cost.
            let resident = memo
                .as_deref()
                .and_then(|m| m.scans.get(&relation).cloned());
            if let Some(tuples) = resident {
                plan.push(PlanStep::SharedScan {
                    relation: relation.clone(),
                });
                let join_edge = edges
                    .iter()
                    .find(|e| e.touches(next) && assigned[e.other(next)]);
                *rows = extend_rows(rows, next, &tuples, join_edge);
                assigned[next] = true;
                continue;
            }

            // Find a join edge from an assigned relation into `next` whose
            // target attribute has an index.
            let probe_edge = edges.iter().find(|e| {
                e.touches(next)
                    && assigned[e.other(next)]
                    && table.index_on(e.local_attr(next)).is_some()
            });
            let scan_cost = table.num_blocks();
            let probe_cost = probe_edge.map(|e| {
                rows.iter()
                    .map(|(assignment, _)| {
                        let src = e.other(next);
                        let attr = e.local_attr(next);
                        let value = assignment[src]
                            .as_ref()
                            .and_then(|t| t.get(e.local_attr(src)));
                        match value {
                            Some(v) => {
                                let memoized = memo.as_deref().is_some_and(|m| {
                                    m.probes.contains_key(&(relation.clone(), attr, v.clone()))
                                });
                                if memoized {
                                    0
                                } else {
                                    table.index_lookup_cost(attr, v).unwrap_or(scan_cost)
                                }
                            }
                            None => 0,
                        }
                    })
                    .sum::<u64>()
            });

            match (probe_edge, probe_cost) {
                (Some(edge), Some(pc)) if pc <= scan_cost || rows.is_empty() => {
                    // Index-probe path.
                    let mut probes = 0u64;
                    let before = self.meter.query_reads();
                    let mut new_rows = Vec::new();
                    let attr = edge.local_attr(next);
                    for (assignment, count) in rows.iter() {
                        let src = edge.other(next);
                        let Some(value) = assignment[src]
                            .as_ref()
                            .and_then(|t| t.get(edge.local_attr(src)))
                            .cloned()
                        else {
                            continue;
                        };
                        probes += 1;
                        let memoized = memo.as_deref().and_then(|m| {
                            m.probes
                                .get(&(relation.clone(), attr, value.clone()))
                                .cloned()
                        });
                        let matches = match memoized {
                            Some(cached) => cached,
                            None => {
                                let fetched = table
                                    .index_lookup(attr, &value)
                                    .expect("probe edge implies index");
                                if let Some(m) = memo.as_deref_mut() {
                                    m.probes.insert(
                                        (relation.clone(), attr, value.clone()),
                                        fetched.clone(),
                                    );
                                }
                                fetched
                            }
                        };
                        for m in matches {
                            let mut a = assignment.clone();
                            a[next] = Some(m);
                            new_rows.push((a, *count));
                        }
                    }
                    let blocks = self.meter.query_reads() - before;
                    plan.push(PlanStep::Probe {
                        relation,
                        probes,
                        blocks,
                    });
                    *rows = new_rows;
                }
                _ => {
                    // Scan + in-memory hash join (or cross product when no
                    // edge connects).
                    let tuples = table.scan();
                    if let Some(m) = memo.as_deref_mut() {
                        m.scans.insert(relation.clone(), tuples.clone());
                    }
                    plan.push(PlanStep::Scan {
                        relation,
                        blocks: scan_cost,
                    });
                    let join_edge = edges
                        .iter()
                        .find(|e| e.touches(next) && assigned[e.other(next)]);
                    *rows = extend_rows(rows, next, &tuples, join_edge);
                }
            }
            assigned[next] = true;
        }
        Ok(())
    }

    /// Scenario 2: left-deep block-nested loop over the unbound relations.
    fn eval_nested_loop(
        &self,
        view: &ViewDef,
        edges: &[JoinEdge],
        rows: &mut Vec<(Vec<Option<Tuple>>, i64)>,
        assigned: &mut [bool],
        memory_blocks: usize,
        plan: &mut Vec<PlanStep>,
    ) -> Result<(), StorageError> {
        let unbound: Vec<usize> = (0..assigned.len()).filter(|&i| !assigned[i]).collect();
        let levels = unbound.len();
        if levels == 0 {
            return Ok(());
        }
        // Memory layout: inner levels hold 1 block each; spare memory
        // widens the outermost chunk (minimum 1).
        let spare = memory_blocks.saturating_sub(levels);
        let mut passes_product = 1u64;
        for (level, &next) in unbound.iter().enumerate() {
            let table = self.table_for(view, next)?;
            let blocks = table.num_blocks();
            let level_blocks = if level == 0 { 1 + spare as u64 } else { 1 };
            // This level is re-scanned once per combination of outer chunks.
            let reads = passes_product * blocks;
            self.meter.charge_read(reads);
            plan.push(PlanStep::NestedLoopLevel {
                relation: view.base()[next].relation().to_owned(),
                passes: passes_product,
                blocks: reads,
            });
            // Chunks this level contributes to inner re-scan counts.
            let chunks = blocks.div_ceil(level_blocks).max(1);
            passes_product *= chunks;

            // Compute the join result in memory (values are exact; the
            // charge above models the block pattern).
            let tuples: Vec<Tuple> = table
                .contents()
                .iter()
                .flat_map(|(t, c)| {
                    std::iter::repeat_with(move || t.clone()).take(c.max(0) as usize)
                })
                .collect();
            let join_edge = edges
                .iter()
                .find(|e| e.touches(next) && assigned[e.other(next)]);
            *rows = extend_rows(rows, next, &tuples, join_edge);
            assigned[next] = true;
        }
        Ok(())
    }
}

/// An equi-join edge between two relations of a view, in local-attribute
/// form.
#[derive(Clone, Copy, Debug)]
struct JoinEdge {
    rel_a: usize,
    attr_a: usize,
    rel_b: usize,
    attr_b: usize,
}

impl JoinEdge {
    fn touches(&self, rel: usize) -> bool {
        self.rel_a == rel || self.rel_b == rel
    }

    fn other(&self, rel: usize) -> usize {
        if self.rel_a == rel {
            self.rel_b
        } else {
            self.rel_a
        }
    }

    fn local_attr(&self, rel: usize) -> usize {
        if self.rel_a == rel {
            self.attr_a
        } else {
            self.attr_b
        }
    }
}

/// Derive join edges from the view condition's equi-join pairs.
fn join_edges(view: &ViewDef) -> Vec<JoinEdge> {
    let locate = |col: usize| -> (usize, usize) {
        // Find which relation owns a product column.
        let mut rel = 0;
        for i in 0..view.base().len() {
            if col >= view.offset(i) {
                rel = i;
            }
        }
        (rel, col - view.offset(rel))
    };
    view.cond()
        .equijoin_pairs()
        .into_iter()
        .filter_map(|(a, b)| {
            let (rel_a, attr_a) = locate(a);
            let (rel_b, attr_b) = locate(b);
            // Self-edges are selections, not joins.
            (rel_a != rel_b).then_some(JoinEdge {
                rel_a,
                attr_a,
                rel_b,
                attr_b,
            })
        })
        .collect()
}

/// Pick the next unassigned relation, preferring one connected to an
/// assigned relation; falls back to the lowest-index unassigned.
fn pick_next(assigned: &[bool], edges: &[JoinEdge]) -> Option<usize> {
    let connected = (0..assigned.len())
        .find(|&i| !assigned[i] && edges.iter().any(|e| e.touches(i) && assigned[e.other(i)]));
    connected.or_else(|| (0..assigned.len()).find(|&i| !assigned[i]))
}

/// Extend intermediate rows with `tuples` of relation `next`, using a hash
/// join on `join_edge` when available, else a cross product.
fn extend_rows(
    rows: &[(Vec<Option<Tuple>>, i64)],
    next: usize,
    tuples: &[Tuple],
    join_edge: Option<&JoinEdge>,
) -> Vec<(Vec<Option<Tuple>>, i64)> {
    let mut out = Vec::new();
    match join_edge {
        Some(edge) => {
            let next_attr = edge.local_attr(next);
            let mut table: HashMap<&Value, Vec<&Tuple>> = HashMap::new();
            for t in tuples {
                if let Some(v) = t.get(next_attr) {
                    table.entry(v).or_default().push(t);
                }
            }
            let src = edge.other(next);
            let src_attr = edge.local_attr(src);
            for (assignment, count) in rows {
                let Some(value) = assignment[src].as_ref().and_then(|t| t.get(src_attr)) else {
                    continue;
                };
                if let Some(matches) = table.get(value) {
                    for m in matches {
                        let mut a = assignment.clone();
                        a[next] = Some((*m).clone());
                        out.push((a, *count));
                    }
                }
            }
        }
        None => {
            for (assignment, count) in rows {
                for t in tuples {
                    let mut a = assignment.clone();
                    a[next] = Some(t.clone());
                    out.push((a, *count));
                }
            }
        }
    }
    out
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

    #[test]
    fn term_batching_same_answer_fewer_reads() {
        let view = example6_view();
        let query = four_term_query(&view);

        let mut plain = scenario1_engine(4);
        let db = populate(&mut plain, &view);
        let mut batched = scenario1_engine(4);
        populate(&mut batched, &view);
        batched.enable_term_batching();

        let a_plain = plain.eval_query(&query).unwrap();
        let a_batched = batched.eval_query(&query).unwrap();
        assert_eq!(a_plain, a_batched);
        assert_eq!(a_plain, query.eval(&db).unwrap());

        let io_plain = plain.meter().query_reads();
        let io_batched = batched.meter().query_reads();
        assert!(
            io_batched < io_plain,
            "batched {io_batched} should beat per-term {io_plain}"
        );
    }

    #[test]
    fn term_batching_off_by_default_keeps_paper_costs() {
        let engine = StorageEngine::new(Scenario::Indexed);
        assert!(!engine.term_batching_enabled());
    }

    #[test]
    fn shared_scan_appears_in_explain_output() {
        let view = example6_view();
        let mut engine = scenario1_engine(4);
        populate(&mut engine, &view);
        engine.enable_term_batching();
        // Two full-recompute terms: the second must reuse all three scans.
        let q = view.as_query().minus(&view.as_query());
        let plans = engine.explain_query(&q).unwrap();
        assert!(plans[0].iter().all(|s| matches!(s, PlanStep::Scan { .. })));
        assert!(plans[1]
            .iter()
            .all(|s| matches!(s, PlanStep::SharedScan { .. })));
    }

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
