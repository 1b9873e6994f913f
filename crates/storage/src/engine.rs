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
/// never consults it. It lends the heaps' tuples rather than copying them.
#[derive(Default)]
struct BatchMemo<'a> {
    /// Relation → tuples of a completed full scan (the relation is now
    /// memory-resident for the rest of the query).
    scans: HashMap<&'a str, &'a [Tuple]>,
    /// `(relation, attribute, value)` → matches of a completed index probe.
    probes: HashMap<(&'a str, usize, Value), Vec<&'a Tuple>>,
}

/// The intermediate rows of one term, in one flat buffer: `width` slots
/// per row, one per base relation (`None` until the relation is joined
/// in), and a signed count per row. Slots lend the term's bound tuples
/// and the heaps' tuples; nothing is copied until an output tuple is
/// projected.
struct Rows<'a> {
    width: usize,
    slots: Vec<Option<&'a Tuple>>,
    counts: Vec<i64>,
}

impl<'a> Rows<'a> {
    fn new(width: usize) -> Self {
        Rows {
            width,
            slots: Vec::new(),
            counts: Vec::new(),
        }
    }

    fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.counts.clear();
    }

    /// Each row's slots and count.
    fn iter(&self) -> impl Iterator<Item = (&[Option<&'a Tuple>], i64)> + '_ {
        let width = self.width;
        self.counts
            .iter()
            .enumerate()
            .map(move |(r, &count)| (&self.slots[r * width..(r + 1) * width], count))
    }

    /// Append `row` with `tuple` in slot `rel`.
    fn push(&mut self, row: &[Option<&'a Tuple>], count: i64, rel: usize, tuple: &'a Tuple) {
        let start = self.slots.len();
        self.slots.extend_from_slice(row);
        self.slots[start + rel] = Some(tuple);
        self.counts.push(count);
    }
}

/// What one query's terms share: the batching memo (if on) and the
/// buffers every term reuses — the rows, the rows the next join step
/// builds, which relations are joined in, and one row's values.
struct QueryState<'a> {
    memo: Option<BatchMemo<'a>>,
    rows: Rows<'a>,
    next: Rows<'a>,
    assigned: Vec<bool>,
    values: Vec<Value>,
}

impl<'a> QueryState<'a> {
    fn new(width: usize, batching: bool) -> Self {
        QueryState {
            memo: batching.then(BatchMemo::default),
            rows: Rows::new(width),
            next: Rows::new(width),
            assigned: Vec::with_capacity(width),
            values: Vec::new(),
        }
    }

    /// Make the rows the next step built the current ones.
    fn advance(&mut self) {
        std::mem::swap(&mut self.rows, &mut self.next);
    }
}

/// A view resolved for evaluation: its definition and the equi-join
/// edges its condition implies, derived once for every query over it.
pub struct PreparedView {
    view: ViewDef,
    edges: Vec<JoinEdge>,
}

impl PreparedView {
    /// Derive `view`'s join edges.
    pub fn new(view: ViewDef) -> Self {
        let edges = join_edges(&view);
        PreparedView { view, edges }
    }

    /// The view.
    pub fn view(&self) -> &ViewDef {
        &self.view
    }
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

    /// Evaluate a warehouse query physically, charging the meter: prepare
    /// its view, then [`StorageEngine::eval_prepared`].
    ///
    /// # Errors
    /// [`StorageError::UnknownTable`] if the query mentions an unloaded
    /// relation; relational errors from condition evaluation.
    pub fn eval_query(&self, query: &Query) -> Result<SignedBag, StorageError> {
        self.eval_prepared(&PreparedView::new(query.view().clone()), query.terms())
    }

    /// Evaluate `terms` over a prepared view, charging the meter. Every
    /// term must fit the view ([`ViewDef::check_term`]).
    ///
    /// # Errors
    /// As [`StorageEngine::eval_query`].
    pub fn eval_prepared(
        &self,
        prepared: &PreparedView,
        terms: &[Term],
    ) -> Result<SignedBag, StorageError> {
        let mut out = SignedBag::new();
        self.eval_terms(prepared, terms, &mut out, None)?;
        Ok(out)
    }

    /// Evaluate and also return the physical plan steps taken per term.
    ///
    /// # Errors
    /// As [`StorageEngine::eval_query`].
    #[cfg(test)]
    fn explain_query(&self, query: &Query) -> Result<Vec<Vec<PlanStep>>, StorageError> {
        let mut plans = Vec::new();
        let prepared = PreparedView::new(query.view().clone());
        self.eval_terms(
            &prepared,
            query.terms(),
            &mut SignedBag::new(),
            Some(&mut plans),
        )?;
        Ok(plans)
    }

    /// Add every term into `out`, in term order; with `plans`, also
    /// record each term's plan steps there.
    fn eval_terms(
        &self,
        prepared: &PreparedView,
        terms: &[Term],
        out: &mut SignedBag,
        mut plans: Option<&mut Vec<Vec<PlanStep>>>,
    ) -> Result<(), StorageError> {
        let PreparedView { view, edges } = prepared;
        let mut state = QueryState::new(view.base().len(), self.batching);
        for term in terms {
            let plan = plans.as_deref_mut().map(|plans| {
                plans.push(Vec::new());
                plans.last_mut()
            });
            self.eval_term(view, edges, term, &mut state, out, plan.flatten())?;
        }
        Ok(())
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
        edges: &[JoinEdge],
        term: &'a Term,
        state: &mut QueryState<'a>,
        out: &mut SignedBag,
        plan: Option<&mut Vec<PlanStep>>,
    ) -> Result<(), StorageError> {
        // One row: the bound tuples in their slots, the term's sign.
        let n = view.base().len();
        state.rows.clear();
        state.rows.slots.resize(n, None);
        state.assigned.clear();
        state.assigned.resize(n, false);
        let mut factor = term.factor();
        for (i, atom) in term.atoms().iter().enumerate() {
            if let Atom::Bound(st) = atom {
                state.rows.slots[i] = Some(&st.tuple);
                factor *= st.sign.factor();
                state.assigned[i] = true;
            }
        }
        state.rows.counts.push(factor);

        match self.scenario {
            Scenario::Indexed => self.eval_indexed(view, edges, state, plan)?,
            Scenario::NestedLoop { memory_blocks } => {
                self.eval_nested_loop(view, edges, state, memory_blocks, plan)?;
            }
        }

        // Assemble each product row, apply the full condition, project.
        let QueryState { rows, values, .. } = state;
        for (row, count) in rows.iter() {
            if count == 0 {
                continue;
            }
            values.clear();
            // Every slot is filled: the join steps run until every
            // relation is assigned.
            for tuple in row.iter().flatten() {
                values.extend_from_slice(tuple.values());
            }
            if view.cond().eval_values(values)? {
                let projected = Tuple::new(view.proj().iter().map(|&i| values[i].clone()));
                out.add(projected, count);
            }
        }
        Ok(())
    }

    /// Scenario 1: per relation, choose index probes vs scan+hash-join by
    /// exact cost. With a batch memo, relations already scanned by an
    /// earlier term of the same query are memory-resident (free), and
    /// repeated index probes for the same `(attribute, value)` are served
    /// from the memo without re-reading blocks.
    fn eval_indexed<'a>(
        &'a self,
        view: &'a ViewDef,
        edges: &[JoinEdge],
        state: &mut QueryState<'a>,
        mut plan: Option<&mut Vec<PlanStep>>,
    ) -> Result<(), StorageError> {
        while let Some(next) = pick_next(&state.assigned, edges) {
            let relation = view.base()[next].relation();
            let table = self.table_for(view, next)?;
            let join_edge = edges
                .iter()
                .find(|e| e.touches(next) && state.assigned[e.other(next)]);

            // A relation fully scanned by an earlier term is resident:
            // join against it in memory at zero cost.
            let resident = state
                .memo
                .as_ref()
                .and_then(|m| m.scans.get(relation).copied());
            if let Some(tuples) = resident {
                if let Some(plan) = plan.as_deref_mut() {
                    plan.push(PlanStep::SharedScan {
                        relation: relation.to_owned(),
                    });
                }
                join_rows(state, next, tuples, join_edge);
                state.assigned[next] = true;
                continue;
            }

            // Find a join edge from an assigned relation into `next` whose
            // target attribute has an index.
            let probe_edge = edges.iter().find(|e| {
                e.touches(next)
                    && state.assigned[e.other(next)]
                    && table.index_on(e.local_attr(next)).is_some()
            });
            let scan_cost = table.num_blocks();
            let probe_cost = probe_edge.map(|e| {
                let attr = e.local_attr(next);
                state
                    .rows
                    .iter()
                    .filter_map(|(row, _)| e.source_value(row, next))
                    .map(|v| {
                        let memoized = state
                            .memo
                            .as_ref()
                            .is_some_and(|m| m.probes.contains_key(&(relation, attr, v.clone())));
                        if memoized {
                            0
                        } else {
                            table.index_lookup_cost(attr, v).unwrap_or(scan_cost)
                        }
                    })
                    .sum::<u64>()
            });

            match (probe_edge, probe_cost) {
                (Some(edge), Some(pc)) if pc <= scan_cost || state.rows.is_empty() => {
                    // Index-probe path.
                    let mut probes = 0u64;
                    let before = self.meter.query_reads();
                    let attr = edge.local_attr(next);
                    let QueryState {
                        memo,
                        rows,
                        next: out,
                        ..
                    } = &mut *state;
                    out.clear();
                    for (row, count) in rows.iter() {
                        let Some(value) = edge.source_value(row, next) else {
                            continue;
                        };
                        probes += 1;
                        match memo {
                            Some(m) => {
                                let matches = m
                                    .probes
                                    .entry((relation, attr, value.clone()))
                                    .or_insert_with(|| {
                                        let mut fetched = Vec::new();
                                        table.index_visit(attr, value, |t| fetched.push(t));
                                        fetched
                                    });
                                for &m in matches.iter() {
                                    out.push(row, count, next, m);
                                }
                            }
                            None => {
                                // The probe edge was chosen for its index.
                                table.index_visit(attr, value, |m| out.push(row, count, next, m));
                            }
                        }
                    }
                    state.advance();
                    if let Some(plan) = plan.as_deref_mut() {
                        plan.push(PlanStep::Probe {
                            relation: relation.to_owned(),
                            probes,
                            blocks: self.meter.query_reads() - before,
                        });
                    }
                }
                _ => {
                    // Scan + in-memory hash join (or cross product when no
                    // edge connects).
                    let tuples = table.scan();
                    if let Some(m) = &mut state.memo {
                        m.scans.insert(relation, tuples);
                    }
                    if let Some(plan) = plan.as_deref_mut() {
                        plan.push(PlanStep::Scan {
                            relation: relation.to_owned(),
                            blocks: scan_cost,
                        });
                    }
                    join_rows(state, next, tuples, join_edge);
                }
            }
            state.assigned[next] = true;
        }
        Ok(())
    }

    /// Scenario 2: left-deep block-nested loop over the unbound relations.
    fn eval_nested_loop<'a>(
        &'a self,
        view: &ViewDef,
        edges: &[JoinEdge],
        state: &mut QueryState<'a>,
        memory_blocks: usize,
        mut plan: Option<&mut Vec<PlanStep>>,
    ) -> Result<(), StorageError> {
        let unbound: Vec<usize> = (0..state.assigned.len())
            .filter(|&i| !state.assigned[i])
            .collect();
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
            if let Some(plan) = plan.as_deref_mut() {
                plan.push(PlanStep::NestedLoopLevel {
                    relation: view.base()[next].relation().to_owned(),
                    passes: passes_product,
                    blocks: reads,
                });
            }
            // Chunks this level contributes to inner re-scan counts.
            let chunks = blocks.div_ceil(level_blocks).max(1);
            passes_product *= chunks;

            // Compute the join result in memory (values are exact; the
            // charge above models the block pattern).
            let join_edge = edges
                .iter()
                .find(|e| e.touches(next) && state.assigned[e.other(next)]);
            join_rows(state, next, table.tuples(), join_edge);
            state.assigned[next] = true;
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

    /// The value `row` offers this edge for joining in `next`: the join
    /// attribute of the relation at the edge's other end.
    fn source_value<'r>(&self, row: &[Option<&'r Tuple>], next: usize) -> Option<&'r Value> {
        let src = self.other(next);
        row[src].and_then(|t| t.get(self.local_attr(src)))
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

/// Join `tuples` of relation `next` into the rows, using a hash join on
/// `join_edge` when available, else a cross product. Rows come out in
/// row order, each row's matches in `tuples` order.
fn join_rows<'a>(
    state: &mut QueryState<'a>,
    next: usize,
    tuples: &'a [Tuple],
    join_edge: Option<&JoinEdge>,
) {
    let QueryState {
        rows, next: out, ..
    } = &mut *state;
    out.clear();
    match join_edge {
        Some(edge) => {
            let next_attr = edge.local_attr(next);
            let mut table: HashMap<&Value, Vec<&'a Tuple>> = HashMap::new();
            for t in tuples {
                if let Some(v) = t.get(next_attr) {
                    table.entry(v).or_default().push(t);
                }
            }
            for (row, count) in rows.iter() {
                let Some(value) = edge.source_value(row, next) else {
                    continue;
                };
                for &m in table.get(value).into_iter().flatten() {
                    out.push(row, count, next, m);
                }
            }
        }
        None => {
            for (row, count) in rows.iter() {
                for t in tuples {
                    out.push(row, count, next, t);
                }
            }
        }
    }
    state.advance();
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
