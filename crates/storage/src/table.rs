//! Tables: a heap file plus index metadata and metered access paths.

use std::ops::Range;

use eca_relational::{Schema, SignedBag, Tuple, Value};

use crate::error::StorageError;
use crate::heap::HeapFile;
use crate::io::IoMeter;

/// The kind of index available on an attribute (paper §6.3 Scenario 1:
/// clustered indexes on the join attributes plus one non-clustered index).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKind {
    /// Tuples with equal key are contiguous; a lookup reads the blocks the
    /// run spans (`≈ ⌈matches/K⌉`).
    Clustered,
    /// Matches are scattered; a lookup reads one block per matching tuple
    /// (the paper's no-caching assumption).
    Unclustered,
}

/// A stored base relation with metered access paths.
///
/// Index *structures* — the heap's cluster order and one secondary index
/// per non-clustered attribute — are memory-resident and free to traverse
/// (Scenario 1's assumption); only data-block reads are charged to the
/// [`IoMeter`].
#[derive(Clone, Debug)]
pub struct Table {
    schema: Schema,
    heap: HeapFile,
    /// `(attribute position, kind)` of each available index.
    indexes: Vec<(usize, IndexKind)>,
    meter: IoMeter,
}

impl Table {
    /// Create a table. `clustered_on` names the attribute the heap is
    /// physically ordered by (also registered as a clustered index);
    /// `unclustered_on` lists additional non-clustered indexes.
    ///
    /// # Errors
    /// * [`StorageError::BadIndexAttribute`] for unknown attribute names.
    /// * [`StorageError::InvalidBlockSize`] when `tuples_per_block == 0`.
    pub fn new(
        schema: Schema,
        tuples_per_block: usize,
        clustered_on: Option<&str>,
        unclustered_on: &[&str],
        meter: IoMeter,
    ) -> Result<Self, StorageError> {
        let resolve = |attr: &str| {
            schema
                .position_of(attr)
                .map_err(|_| StorageError::BadIndexAttribute {
                    table: schema.relation().to_owned(),
                    attribute: attr.to_owned(),
                })
        };
        let cluster_pos = clustered_on.map(resolve).transpose()?;
        let mut heap = HeapFile::new(tuples_per_block, cluster_pos)?;
        let mut indexes = Vec::new();
        if let Some(p) = cluster_pos {
            indexes.push((p, IndexKind::Clustered));
        }
        for attr in unclustered_on {
            let p = resolve(attr)?;
            indexes.push((p, IndexKind::Unclustered));
            // Lookups on the cluster attribute use the cluster order.
            if cluster_pos != Some(p) {
                heap.add_index(p)?;
            }
        }
        Ok(Table {
            heap,
            schema,
            indexes,
            meter,
        })
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuple occurrences (the paper's `C`).
    pub fn cardinality(&self) -> u64 {
        self.heap.len() as u64
    }

    /// Number of occupied blocks (the paper's `I = ⌈C/K⌉`).
    pub fn num_blocks(&self) -> u64 {
        self.heap.num_blocks()
    }

    /// The index available on `attr`, preferring clustered.
    pub fn index_on(&self, attr: usize) -> Option<IndexKind> {
        let mut found = None;
        for (pos, kind) in &self.indexes {
            if *pos == attr {
                if *kind == IndexKind::Clustered {
                    return Some(IndexKind::Clustered);
                }
                found = Some(*kind);
            }
        }
        found
    }

    /// Insert one occurrence (charged as one update touch).
    ///
    /// # Errors
    /// [`StorageError::HeapFull`], with nothing inserted or charged.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), StorageError> {
        self.heap.insert(tuple)?;
        self.meter.charge_update(1);
        Ok(())
    }

    /// Bulk-load occurrences: the same heap order, indexes and update
    /// touches (one per tuple) as inserting them one at a time, in
    /// O(n log n) instead of O(n²).
    ///
    /// # Errors
    /// [`StorageError::HeapFull`], with nothing loaded or charged.
    pub fn load(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<(), StorageError> {
        let added = self.heap.load(tuples)?;
        self.meter.charge_update(added as u64);
        Ok(())
    }

    /// Delete one occurrence (charged as one update touch). Returns
    /// whether a copy existed.
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        let found = self.heap.delete(tuple);
        if found {
            self.meter.charge_update(1);
        }
        found
    }

    /// Full scan: reads every block, lends all tuples in heap order.
    pub fn scan(&self) -> &[Tuple] {
        self.meter.charge_read(self.heap.num_blocks());
        self.heap.tuples()
    }

    /// Every stored occurrence in heap order, charging nothing — for the
    /// nested-loop executor, which charges its block pattern itself.
    pub(crate) fn tuples(&self) -> &[Tuple] {
        self.heap.tuples()
    }

    /// Scan block by block without buffering the whole table. Each
    /// yielded chunk charges one block read.
    #[cfg(test)]
    fn scan_blocks(&self) -> impl Iterator<Item = &[Tuple]> + '_ {
        self.heap.blocks().inspect(|_| self.meter.charge_read(1))
    }

    /// Index lookup: all occurrences with `attr == value`, charged per the
    /// index kind. Returns `None` when no index exists on `attr`.
    pub fn index_lookup(&self, attr: usize, value: &Value) -> Option<Vec<Tuple>> {
        let mut matches = Vec::new();
        self.index_visit(attr, value, |t| matches.push(t.clone()))
            .then_some(matches)
    }

    /// [`Table::index_lookup`] without the vector: the same reads, charged
    /// in the same order, and `visit` sees each match in place, in the
    /// order the lookup returns them. Returns whether an index exists on
    /// `attr` (if not, nothing is visited or charged).
    pub fn index_visit<'t>(
        &'t self,
        attr: usize,
        value: &Value,
        mut visit: impl FnMut(&'t Tuple),
    ) -> bool {
        match self.index_on(attr) {
            None => return false,
            Some(IndexKind::Clustered) => self.visit_run(self.clustered_run(value), visit),
            Some(IndexKind::Unclustered) => {
                let tuples = self.heap.tuples();
                self.heap.visit_positions_with(attr, value, |p| {
                    self.meter.charge_read(1);
                    visit(&tuples[p]);
                });
            }
        }
        true
    }

    /// The heap positions a clustered lookup of `value` reads. A table
    /// registers a clustered index exactly when its heap is clustered, so
    /// the heap's error cannot arise here.
    pub(crate) fn clustered_run(&self, value: &Value) -> Range<usize> {
        self.heap.clustered_range(value).unwrap_or_default()
    }

    /// The blocks reading `run` charges.
    pub(crate) fn run_blocks(&self, run: &Range<usize>) -> u64 {
        self.heap.blocks_spanned(run)
    }

    /// Read `run` as a clustered lookup does: charge its blocks, then
    /// let `visit` see its tuples in heap order.
    pub(crate) fn visit_run<'t>(&'t self, run: Range<usize>, visit: impl FnMut(&'t Tuple)) {
        self.meter.charge_read(self.run_blocks(&run));
        self.heap.tuples()[run].iter().for_each(visit);
    }

    /// Predicted I/O cost of an index lookup for `value` without touching
    /// the meter (used by the planner to compare access paths).
    pub fn index_lookup_cost(&self, attr: usize, value: &Value) -> Option<u64> {
        match self.index_on(attr)? {
            IndexKind::Clustered => Some(self.run_blocks(&self.clustered_run(value))),
            IndexKind::Unclustered => {
                let mut matches = 0;
                self.heap
                    .visit_positions_with(attr, value, |_| matches += 1);
                Some(matches)
            }
        }
    }

    /// The logical contents as a signed bag (no I/O charged — used by
    /// differential tests and snapshots, not by query plans).
    pub fn contents(&self) -> SignedBag {
        SignedBag::from_tuples(self.heap.tuples().iter().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let schema = Schema::new("r2", &["X", "Y"]);
        let mut t = Table::new(schema, 2, Some("X"), &["Y"], IoMeter::new()).unwrap();
        for (x, y) in [(1, 10), (1, 11), (2, 10), (3, 12), (1, 12)] {
            t.insert(Tuple::ints([x, y])).unwrap();
        }
        t.meter.reset(); // discard load charges
        t
    }

    #[test]
    fn bad_index_attribute_rejected() {
        let schema = Schema::new("r", &["A"]);
        assert!(Table::new(schema.clone(), 2, Some("Z"), &[], IoMeter::new()).is_err());
        assert!(Table::new(schema, 2, None, &["Q"], IoMeter::new()).is_err());
    }

    #[test]
    fn scan_charges_all_blocks() {
        let t = table();
        assert_eq!(t.cardinality(), 5);
        assert_eq!(t.num_blocks(), 3);
        let all = t.scan();
        assert_eq!(all.len(), 5);
        assert_eq!(t.meter.query_reads(), 3);
    }

    #[test]
    fn clustered_lookup_charges_spanned_blocks() {
        let t = table();
        // X=1 has 3 contiguous tuples at positions 0..3 → spans blocks 0,1.
        let hits = t.index_lookup(0, &Value::Int(1)).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(t.meter.query_reads(), 2);
        assert_eq!(t.index_lookup_cost(0, &Value::Int(1)), Some(2));
    }

    #[test]
    fn unclustered_lookup_charges_per_match() {
        let t = table();
        let hits = t.index_lookup(1, &Value::Int(10)).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(t.meter.query_reads(), 2);
        assert_eq!(t.index_lookup_cost(1, &Value::Int(12)), Some(2));
    }

    #[test]
    fn missing_index_returns_none() {
        let schema = Schema::new("r", &["A", "B"]);
        let t = Table::new(schema, 2, None, &[], IoMeter::new()).unwrap();
        assert!(t.index_lookup(0, &Value::Int(1)).is_none());
        assert!(t.index_lookup_cost(0, &Value::Int(1)).is_none());
        assert!(t.index_on(0).is_none());
    }

    #[test]
    fn clustered_preferred_over_unclustered() {
        let schema = Schema::new("r", &["A"]);
        let t = Table::new(schema, 2, Some("A"), &["A"], IoMeter::new()).unwrap();
        assert_eq!(t.index_on(0), Some(IndexKind::Clustered));
    }

    #[test]
    fn inserts_and_deletes_charge_updates_not_reads() {
        let mut t = table();
        t.insert(Tuple::ints([9, 9])).unwrap();
        assert!(t.delete(&Tuple::ints([9, 9])));
        assert!(!t.delete(&Tuple::ints([9, 9])));
        assert_eq!(t.meter.query_reads(), 0);
        assert_eq!(t.meter.update_writes(), 2);
    }

    #[test]
    fn scan_blocks_charges_lazily() {
        let t = table();
        let mut it = t.scan_blocks();
        let _first = it.next().unwrap();
        assert_eq!(t.meter.query_reads(), 1);
        drop(it);
    }

    #[test]
    fn contents_snapshot_free() {
        let t = table();
        let bag = t.contents();
        assert_eq!(bag.pos_len(), 5);
        assert_eq!(t.meter.query_reads(), 0);
    }
}
