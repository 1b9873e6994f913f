//! Heap files: tuples packed `K` per block.
//!
//! A heap file stores tuple occurrences in a flat, ordered sequence that is
//! conceptually chopped into blocks of `K` tuples (the paper's `K`,
//! default 20). When the file is *clustered* on an attribute, the sequence
//! is kept sorted by that attribute, so all tuples with a given value are
//! contiguous and a clustered lookup touches `⌈matches/K⌉`-ish blocks
//! (exactly: the distinct blocks the run spans).
//!
//! A heap may also carry *secondary indexes* (Scenario 1's non-clustered
//! index): per indexed attribute, the heap positions sorted by
//! `(value, position)`, 4 bytes per row and no tuple copies. They change
//! which CPU work finds a match, never which positions match, so block
//! charges derived from them are the ones a linear filter would give.

use std::cmp::Ordering;
use std::ops::Range;

use eca_relational::{Tuple, Value};

use crate::error::StorageError;

/// A block-organized tuple store.
#[derive(Clone, Debug)]
pub struct HeapFile {
    tuples: Vec<Tuple>,
    tuples_per_block: usize,
    /// When set, `tuples` is kept sorted by this attribute position.
    cluster_attr: Option<usize>,
    /// Secondary indexes, at most one per attribute.
    indexes: Vec<SecondaryIndex>,
}

/// Heap positions of every tuple, sorted by `(tuple.get(attr), position)`.
#[derive(Clone, Debug)]
struct SecondaryIndex {
    attr: usize,
    positions: Vec<u32>,
}

impl SecondaryIndex {
    /// The slot `(key, pos)` occupies (or would occupy) in `positions`.
    fn slot(&self, tuples: &[Tuple], key: Option<&Value>, pos: u32) -> usize {
        self.positions.partition_point(|&p| {
            tuples[p as usize]
                .get(self.attr)
                .cmp(&key)
                .then(p.cmp(&pos))
                == Ordering::Less
        })
    }

    /// Entries whose tuple has `attr == value`, in ascending position.
    fn matches(&self, tuples: &[Tuple], value: &Value) -> &[u32] {
        let key = |p: &u32| tuples[*p as usize].get(self.attr);
        let start = self.positions.partition_point(|p| key(p) < Some(value));
        let len = self.positions[start..].partition_point(|p| key(p) == Some(value));
        &self.positions[start..start + len]
    }
}

/// Positions `0..tuples.len()` sorted by `(tuples[p].get(attr), p)` — a
/// stable order by `attr` — without copying a tuple: the pairs are unique,
/// so an in-place unstable sort of 4-byte positions gives the one valid
/// order and needs no scratch buffer.
///
/// The capacity is the one `len` one-at-a-time pushes leave a `Vec` with
/// (a power of two), so the first insert after a bulk load does not
/// reallocate — momentarily doubling — an index.
fn sorted_positions(tuples: &[Tuple], attr: usize) -> Result<Vec<u32>, StorageError> {
    let mut positions = Vec::with_capacity(tuples.len().next_power_of_two());
    positions.extend(0..position(tuples.len())?);
    positions.sort_unstable_by(|&a, &b| {
        tuples[a as usize]
            .get(attr)
            .cmp(&tuples[b as usize].get(attr))
            .then(a.cmp(&b))
    });
    Ok(positions)
}

/// A heap offset (or length) as an index entry: index entries are 4
/// bytes, so a heap holds at most `u32::MAX` occurrences.
fn position(offset: usize) -> Result<u32, StorageError> {
    u32::try_from(offset).map_err(|_| StorageError::HeapFull {
        limit: u32::MAX as usize,
    })
}

impl HeapFile {
    /// An empty heap with blocks of `tuples_per_block` tuples, optionally
    /// clustered on an attribute position.
    ///
    /// # Errors
    /// [`StorageError::InvalidBlockSize`] when `tuples_per_block == 0`.
    pub fn new(tuples_per_block: usize, cluster_attr: Option<usize>) -> Result<Self, StorageError> {
        if tuples_per_block == 0 {
            return Err(StorageError::InvalidBlockSize { tuples_per_block });
        }
        Ok(HeapFile {
            tuples: Vec::new(),
            tuples_per_block,
            cluster_attr,
            indexes: Vec::new(),
        })
    }

    /// Maintain a secondary index on `attr` from now on (built over the
    /// current contents; a no-op if one exists). [`HeapFile::positions_with`]
    /// on `attr` then answers from it instead of scanning.
    ///
    /// # Errors
    /// [`StorageError::HeapFull`] if the heap holds more occurrences than
    /// an index entry can address.
    pub fn add_index(&mut self, attr: usize) -> Result<(), StorageError> {
        if self.indexes.iter().any(|ix| ix.attr == attr) {
            return Ok(());
        }
        self.indexes.push(SecondaryIndex {
            attr,
            positions: sorted_positions(&self.tuples, attr)?,
        });
        Ok(())
    }

    /// Number of tuple occurrences stored.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of blocks occupied: `⌈len/K⌉` (the paper's `I` when the
    /// relation has `C` tuples).
    pub fn num_blocks(&self) -> u64 {
        self.tuples.len().div_ceil(self.tuples_per_block) as u64
    }

    /// All stored tuples in heap order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Insert one tuple occurrence, preserving cluster order: a clustered
    /// insert lands after every tuple with an equal key.
    ///
    /// # Errors
    /// [`StorageError::HeapFull`], leaving the heap as it was, when the
    /// new occurrence's position would not fit an index entry.
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), StorageError> {
        // The length after the insert, and so every position, must fit.
        position(self.tuples.len() + 1)?;
        let pos = match self.cluster_attr {
            None => self.tuples.len(),
            Some(attr) => {
                let key = tuple.get(attr);
                self.tuples.partition_point(|t| t.get(attr) <= key)
            }
        };
        let pos32 = position(pos)?;
        self.tuples.insert(pos, tuple);
        for index in &mut self.indexes {
            for p in &mut index.positions {
                *p += u32::from(*p >= pos32);
            }
            let key = self.tuples[pos].get(index.attr);
            let slot = index.slot(&self.tuples, key, pos32);
            index.positions.insert(slot, pos32);
        }
        Ok(())
    }

    /// Remove one occurrence of `tuple` — the first in heap order. Returns
    /// whether one was found. A clustered heap looks only inside the key's
    /// run (every equal tuple is in it); an unclustered one scans.
    pub fn delete(&mut self, tuple: &Tuple) -> bool {
        let found = match self.cluster_attr {
            None => self.tuples.iter().position(|t| t == tuple),
            Some(attr) => {
                let run = self.key_range(attr, tuple.get(attr));
                self.tuples[run.clone()]
                    .iter()
                    .position(|t| t == tuple)
                    .map(|i| run.start + i)
            }
        };
        // `insert` and `load` keep the length within an index entry, so
        // every found position converts.
        let Some(pos32) = found.and_then(|pos| position(pos).ok()) else {
            return false;
        };
        let pos = pos32 as usize;
        for index in &mut self.indexes {
            let slot = index.slot(&self.tuples, tuple.get(index.attr), pos32);
            index.positions.remove(slot);
            for p in &mut index.positions {
                *p -= u32::from(*p > pos32);
            }
        }
        self.tuples.remove(pos);
        true
    }

    /// Append many occurrences at once: the result is exactly what
    /// inserting them one at a time in iteration order gives (a stable
    /// sort by cluster key puts each after its equal keys), and every
    /// secondary index is rebuilt once. Returns how many were added.
    ///
    /// The heap gets the power-of-two capacity one-at-a-time inserts would
    /// have grown it to, so the first insert after a load does not
    /// reallocate it.
    ///
    /// # Errors
    /// [`StorageError::HeapFull`], leaving the heap as it was, when the
    /// occurrences would not all fit an index entry's positions.
    pub fn load(&mut self, tuples: impl IntoIterator<Item = Tuple>) -> Result<usize, StorageError> {
        let tuples = tuples.into_iter();
        let before = self.tuples.len();
        let room = (before + tuples.size_hint().0).next_power_of_two();
        self.tuples.reserve_exact(room - before);
        self.tuples.extend(tuples);
        let added = self.tuples.len() - before;
        if added == 0 {
            return Ok(0);
        }
        if let Err(full) = position(self.tuples.len()) {
            self.tuples.truncate(before);
            return Err(full);
        }
        if let Some(attr) = self.cluster_attr {
            self.tuples.sort_by(|a, b| a.get(attr).cmp(&b.get(attr)));
        }
        for index in &mut self.indexes {
            index.positions = sorted_positions(&self.tuples, index.attr)?;
        }
        Ok(added)
    }

    /// The positions whose `attr` compares equal to `key` in a heap sorted
    /// on `attr`.
    fn key_range(&self, attr: usize, key: Option<&Value>) -> Range<usize> {
        let start = self.tuples.partition_point(|t| t.get(attr) < key);
        let len = self.tuples[start..].partition_point(|t| t.get(attr) == key);
        start..start + len
    }

    /// The index range of tuples whose `cluster_attr` equals `value`.
    ///
    /// # Errors
    /// [`StorageError::NotClustered`] when the heap has no cluster order.
    pub fn clustered_range(&self, value: &Value) -> Result<Range<usize>, StorageError> {
        let attr = self.cluster_attr.ok_or(StorageError::NotClustered)?;
        Ok(self.key_range(attr, Some(value)))
    }

    /// How many distinct blocks the tuple positions in `range` span.
    pub fn blocks_spanned(&self, range: &Range<usize>) -> u64 {
        if range.is_empty() {
            return 0;
        }
        let first = range.start / self.tuples_per_block;
        let last = (range.end - 1) / self.tuples_per_block;
        (last - first + 1) as u64
    }

    /// Iterate the heap block by block (for nested-loop processing).
    pub fn blocks(&self) -> impl Iterator<Item = &[Tuple]> + '_ {
        self.tuples.chunks(self.tuples_per_block)
    }

    /// Positions (heap offsets) of every occurrence with `attr == value`,
    /// ascending — the access an unclustered index provides. Answered from
    /// the secondary index on `attr` in O(log n + matches) when there is
    /// one, by a scan otherwise.
    pub fn positions_with(&self, attr: usize, value: &Value) -> Vec<usize> {
        let mut positions = Vec::new();
        self.visit_positions_with(attr, value, |p| positions.push(p));
        positions
    }

    /// [`HeapFile::positions_with`] without the vector: `visit` sees each
    /// position in ascending order.
    pub fn visit_positions_with(&self, attr: usize, value: &Value, mut visit: impl FnMut(usize)) {
        match self.indexes.iter().find(|ix| ix.attr == attr) {
            Some(index) => {
                for &p in index.matches(&self.tuples, value) {
                    visit(p as usize);
                }
            }
            None => {
                for (i, t) in self.tuples.iter().enumerate() {
                    if t.get(attr) == Some(value) {
                        visit(i);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::ints(vals.iter().copied())
    }

    #[test]
    fn zero_block_size_rejected() {
        assert!(HeapFile::new(0, None).is_err());
    }

    #[test]
    fn block_count() {
        let mut h = HeapFile::new(3, None).unwrap();
        assert_eq!(h.num_blocks(), 0);
        for i in 0..7 {
            h.insert(t(&[i, 0])).unwrap();
        }
        assert_eq!(h.len(), 7);
        assert_eq!(h.num_blocks(), 3);
    }

    #[test]
    fn clustered_insert_keeps_order() {
        let mut h = HeapFile::new(2, Some(0)).unwrap();
        for v in [5, 1, 3, 1, 9] {
            h.insert(t(&[v, 0])).unwrap();
        }
        let keys: Vec<i64> = h
            .tuples()
            .iter()
            .map(|tp| tp.get(0).unwrap().as_int().unwrap())
            .collect();
        assert_eq!(keys, vec![1, 1, 3, 5, 9]);
    }

    #[test]
    fn clustered_range_and_block_span() {
        let mut h = HeapFile::new(2, Some(0)).unwrap();
        // 6 tuples: keys 1,1,1,2,2,3 → blocks: [1,1][1,2][2,3]
        for v in [1, 1, 1, 2, 2, 3] {
            h.insert(t(&[v, 0])).unwrap();
        }
        let r1 = h.clustered_range(&Value::Int(1)).unwrap();
        assert_eq!(r1, 0..3);
        assert_eq!(h.blocks_spanned(&r1), 2);
        let r2 = h.clustered_range(&Value::Int(2)).unwrap();
        assert_eq!(r2, 3..5);
        assert_eq!(h.blocks_spanned(&r2), 2);
        let r9 = h.clustered_range(&Value::Int(9)).unwrap();
        assert!(r9.is_empty());
        assert_eq!(h.blocks_spanned(&r9), 0);
    }

    #[test]
    fn delete_removes_one_occurrence() {
        let mut h = HeapFile::new(4, Some(0)).unwrap();
        h.insert(t(&[1, 0])).unwrap();
        h.insert(t(&[1, 0])).unwrap();
        assert!(h.delete(&t(&[1, 0])));
        assert_eq!(h.len(), 1);
        assert!(!h.delete(&t(&[9, 9])));
    }

    #[test]
    fn clustered_delete_takes_the_first_equal_tuple_of_the_run() {
        let mut h = HeapFile::new(2, Some(0)).unwrap();
        h.add_index(1).unwrap();
        for v in [[2, 7], [1, 5], [2, 8], [2, 7], [3, 7]] {
            h.insert(t(&v)).unwrap();
        }
        // Heap: [1,5] [2,7] [2,8] [2,7] [3,7]; the victim is position 1.
        assert!(h.delete(&t(&[2, 7])));
        assert_eq!(
            h.tuples(),
            &[t(&[1, 5]), t(&[2, 8]), t(&[2, 7]), t(&[3, 7])]
        );
        assert_eq!(h.positions_with(1, &Value::Int(7)), vec![2, 3]);
        assert!(!h.delete(&t(&[2, 9])));
    }

    #[test]
    fn positions_with_finds_all() {
        let mut h = HeapFile::new(2, None).unwrap();
        h.insert(t(&[1, 7])).unwrap();
        h.insert(t(&[2, 8])).unwrap();
        h.insert(t(&[3, 7])).unwrap();
        assert_eq!(h.positions_with(1, &Value::Int(7)), vec![0, 2]);
        assert!(h.positions_with(1, &Value::Int(99)).is_empty());
    }

    #[test]
    fn blocks_iterator_chunks() {
        let mut h = HeapFile::new(2, None).unwrap();
        for i in 0..5 {
            h.insert(t(&[i])).unwrap();
        }
        let sizes: Vec<usize> = h.blocks().map(<[Tuple]>::len).collect();
        assert_eq!(sizes, vec![2, 2, 1]);
    }
}
