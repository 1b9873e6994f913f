//! Tables: a heap file plus metered access paths.
//!
//! A table reads its heap three ways: a full scan, and a lookup through
//! either index kind. A lookup is searched for once ([`Table::lookup`],
//! which charges nothing and says what reading costs), then read; the
//! source's engine costs its probes and reads them from the same runs.

use eca_relational::{Schema, SignedBag, Tuple, Value};

use crate::error::StorageError;
use crate::heap::{HeapFile, IndexKind, Run};
use crate::io::IoMeter;

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
        for attr in unclustered_on {
            let p = resolve(attr)?;
            // Lookups on the cluster attribute use the cluster order.
            if cluster_pos != Some(p) {
                heap.add_index(p)?;
            }
        }
        Ok(Table {
            heap,
            schema,
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
        self.heap.index_on(attr)
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
        let run = self.lookup(attr, value)?;
        let mut matches = Vec::new();
        self.read(&run, |t| matches.push(t.clone()));
        Some(matches)
    }

    /// Where the occurrences with `attr == value` are, searched for once
    /// in the index on `attr` without touching the meter; `None` when
    /// there is no index. [`Run::blocks`] is what reading the run charges,
    /// so a planner compares access paths by it and then reads the run.
    pub fn lookup(&self, attr: usize, value: &Value) -> Option<Run> {
        self.heap.lookup(attr, value)
    }

    /// Read `run`, found by [`Table::lookup`]: charge its blocks, then let
    /// `visit` see its tuples in heap order.
    pub(crate) fn read<'t>(&'t self, run: &Run, visit: impl FnMut(&'t Tuple)) {
        self.meter.charge_read(run.blocks());
        self.heap.visit(run, visit);
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
        assert_eq!(t.lookup(0, &Value::Int(1)).map(|run| run.blocks()), Some(2));
    }

    #[test]
    fn unclustered_lookup_charges_per_match() {
        let t = table();
        let hits = t.index_lookup(1, &Value::Int(10)).unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(t.meter.query_reads(), 2);
        assert_eq!(
            t.lookup(1, &Value::Int(12)).map(|run| run.blocks()),
            Some(2)
        );
    }

    #[test]
    fn missing_index_returns_none() {
        let schema = Schema::new("r", &["A", "B"]);
        let t = Table::new(schema, 2, None, &[], IoMeter::new()).unwrap();
        assert!(t.index_lookup(0, &Value::Int(1)).is_none());
        assert!(t.lookup(0, &Value::Int(1)).is_none());
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
