//! Signed bags: multiset relations with `+`/`−` replication counts.
//!
//! This is the counting formulation of the paper's signed-tuple semantics
//! (§4.1). A tuple mapped to count `n > 0` occurs `n` times with a `+` sign;
//! count `n < 0` means `|n|` occurrences with a `−` sign. The paper's binary
//! operators on relations,
//!
//! ```text
//! r1 + r2 = (pos(r1) ∪ pos(r2)) − (neg(r1) ∪ neg(r2))
//! r1 − r2 = r1 + (−r2)
//! ```
//!
//! are exactly pointwise count addition and subtraction, which is how we
//! implement them. Zero counts are pruned eagerly, so `r − r` is the empty
//! bag and equality is by content.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::tuple::{Sign, SignedTuple, Tuple};
use crate::value::Value;

/// Most entries a chunk holds; an insert into a full chunk splits it in
/// half. Private on purpose: it trades the number of chunks against the
/// entries a write after a clone must copy, and nothing outside this
/// file may depend on where chunk boundaries fall.
const CHUNK_CAP: usize = 64;

/// Most chunks a page holds; a page that outgrows it splits in half.
/// Private for the same reason as `CHUNK_CAP`: it trades the page vector
/// a clone copies against the chunk pointers a write after a clone
/// copies. Measured, not derived (DESIGN §6).
const PAGE_CAP: usize = 32;

/// Integers with `|i| <= INT_EXACT` get a prefix slot of their own; the
/// rest share one slot below and one above that range. Chosen so the
/// slots of every value kind fit 32 bits.
const INT_EXACT: i64 = (1 << 31) - 256;

/// The slot of integers above `INT_EXACT`; strings follow it.
const INT_ABOVE: u32 = (2 * INT_EXACT) as u32 + 3;

/// The prefix slot of an attribute, and whether the slot determines the
/// value. Slots ascend with the value order: a missing attribute (the
/// tuple ended) below everything, then integers below the exact range,
/// the exact range one slot per integer, integers above it, and strings
/// by their first byte (the empty string first).
fn slot(value: Option<&Value>) -> (u32, bool) {
    match value {
        None => (0, true),
        Some(Value::Int(i)) if *i < -INT_EXACT => (1, false),
        // In range, so `i + INT_EXACT + 2` lies in `2..INT_ABOVE`.
        Some(Value::Int(i)) if *i <= INT_EXACT => ((i + INT_EXACT) as u32 + 2, true),
        Some(Value::Int(_)) => (INT_ABOVE, false),
        Some(Value::Str(s)) => {
            let first = s.as_bytes().first().map_or(0, |b| 1 + u32::from(*b));
            (INT_ABOVE + 1 + first, false)
        }
    }
}

/// An order-preserving code of a tuple's leading values: the slot of
/// value 0 in the high half, the slot of value 1 in the low half, or 0
/// there when the high slot is shared by more than one value. So
/// `prefix(a) < prefix(b)` implies `a < b`, and `a == b` implies equal
/// prefixes (DESIGN §6): comparing prefixes decides most comparisons
/// without following either tuple's pointer.
fn prefix(tuple: &Tuple) -> u64 {
    prefix_of(tuple.get(0), tuple.get(1))
}

/// [`prefix`] of a tuple not yet built, from its first two values — so
/// the SPJ executor can sort its rows into bag order before it
/// allocates a tuple.
pub(crate) fn prefix_of(first: Option<&Value>, second: Option<&Value>) -> u64 {
    let (high, exact) = slot(first);
    let low = if exact { slot(second).0 } else { 0 };
    (u64::from(high) << 32) | u64::from(low)
}

/// A tuple with its prefix. Ordered by prefix, then by tuple — which is
/// the tuple order, since prefixes are order-preserving.
#[derive(Clone, PartialEq, Eq)]
struct Key {
    prefix: u64,
    tuple: Tuple,
}

impl Key {
    fn new(tuple: Tuple) -> Key {
        Key {
            prefix: prefix(&tuple),
            tuple,
        }
    }

    fn probe(&self) -> Probe<'_> {
        Probe {
            prefix: self.prefix,
            tuple: &self.tuple,
        }
    }
}

/// A borrowed [`Key`]: what a search looks for.
#[derive(Clone, Copy)]
struct Probe<'a> {
    prefix: u64,
    tuple: &'a Tuple,
}

impl<'a> Probe<'a> {
    fn of(tuple: &'a Tuple) -> Probe<'a> {
        Probe {
            prefix: prefix(tuple),
            tuple,
        }
    }

    /// Where the probe falls against `key`: the tuples are compared only
    /// when the prefixes tie.
    fn cmp(self, key: &Key) -> Ordering {
        self.prefix
            .cmp(&key.prefix)
            .then_with(|| self.tuple.cmp(&key.tuple))
    }
}

/// One distinct tuple of the bag and its signed count.
#[derive(Clone, PartialEq, Eq)]
struct Entry {
    key: Key,
    count: i64,
}

/// One sorted run of the bag: ordered by tuple, no zero counts,
/// `1..=CHUNK_CAP` entries. Shared with every clone of the bag until one
/// side writes to it.
type Chunk = Arc<Vec<Entry>>;

/// A run of `1..=PAGE_CAP` adjacent chunks. Shared with every clone of
/// the bag until one side writes to one of its chunks.
#[derive(Clone)]
struct Page {
    chunks: Vec<Chunk>,
    /// `fences[i]` parts `chunks[i]` from `chunks[i + 1]`, as the bag's
    /// own fences part its pages.
    fences: Vec<Key>,
}

/// Whether two adjacent runs (chunks, or pages) of these sizes should
/// become one: a removal that leaves a run below a quarter of `cap`
/// merges it into a neighbour when the two fit in one, so the bag holds
/// O(len / CHUNK_CAP) chunks in O(len / (CHUNK_CAP · PAGE_CAP)) pages.
fn should_merge(a: usize, b: usize, cap: usize) -> bool {
    (a < cap / 4 || b < cap / 4) && a + b <= cap
}

/// The value behind `arc`: moved out of the last reference, copied out
/// of a shared one.
fn unshare<T: Clone>(arc: Arc<T>) -> T {
    Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone())
}

/// Remove run `i` (a page's chunk, or a bag's page) and one fence beside
/// it: with the first run goes the fence above it, with any other the
/// fence below.
fn remove_run<T>(runs: &mut Vec<T>, fences: &mut Vec<Key>, i: usize) {
    runs.remove(i);
    if !fences.is_empty() {
        fences.remove(i.saturating_sub(1));
    }
}

/// Index of the only run that may hold `probe`, given the fences that
/// part the runs (0 if there are none).
///
/// A binary search narrows to a stretch of fences and a linear scan
/// finishes. A fence's prefix sits beside its tuple pointer, so most
/// steps compare two integers in the fence array and follow no pointer;
/// only a tie in prefix compares tuples. A lookup runs this twice, over
/// ≤ a few dozen fences each time, so the stretch is short: 8 beat 16
/// on 20k tuples.
fn fence_index(fences: &[Key], probe: Probe<'_>) -> usize {
    const SCAN: usize = 8;
    let (mut lo, mut hi) = (0, fences.len());
    while hi - lo > SCAN {
        let mid = lo + (hi - lo) / 2;
        if probe.cmp(&fences[mid]) != Ordering::Less {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo + fences[lo..hi]
        .iter()
        .take_while(|fence| probe.cmp(fence) != Ordering::Less)
        .count()
}

/// A chunk of one entry, with room for `capacity`.
fn new_chunk(key: Key, count: i64, capacity: usize) -> Chunk {
    let mut entries = Vec::with_capacity(capacity);
    entries.push(Entry { key, count });
    Arc::new(entries)
}

impl Page {
    /// Entries over all chunks.
    fn len(&self) -> usize {
        self.chunks.iter().map(|chunk| chunk.len()).sum()
    }

    /// Insert a new entry at position `ei` of chunk `ci`, splitting the
    /// chunk first if it is full.
    fn insert(&mut self, mut ci: usize, mut ei: usize, key: Key, count: i64) {
        if self.chunks[ci].len() == CHUNK_CAP {
            let upper = Arc::make_mut(&mut self.chunks[ci]).split_off(CHUNK_CAP / 2);
            self.fences.insert(ci, upper[0].key.clone());
            self.chunks.insert(ci + 1, Arc::new(upper));
            // A tuple landing exactly on the cut is below the new fence
            // and so belongs at the end of the lower half.
            if ei > CHUNK_CAP / 2 {
                ci += 1;
                ei -= CHUNK_CAP / 2;
            }
        }
        Arc::make_mut(&mut self.chunks[ci]).insert(ei, Entry { key, count });
    }

    /// Add `delta` to entry `ei` of chunk `ci`, dropping the entry at
    /// zero and the chunk with its last entry. Returns whether the entry
    /// went.
    fn adjust(&mut self, ci: usize, ei: usize, delta: i64) -> bool {
        let chunk = Arc::make_mut(&mut self.chunks[ci]);
        chunk[ei].count += delta;
        if chunk[ei].count != 0 {
            return false;
        }
        chunk.remove(ei);
        if chunk.is_empty() {
            remove_run(&mut self.chunks, &mut self.fences, ci);
        } else if !self.merge_chunks_at(ci) && ci > 0 {
            // Right neighbour first, then left.
            self.merge_chunks_at(ci - 1);
        }
        true
    }

    /// Merge chunk `left + 1` into chunk `left` if the two should be one.
    /// Returns whether they were.
    fn merge_chunks_at(&mut self, left: usize) -> bool {
        let Some(right) = self.chunks.get(left + 1) else {
            return false;
        };
        if !should_merge(self.chunks[left].len(), right.len(), CHUNK_CAP) {
            return false;
        }
        let right = unshare(self.chunks.remove(left + 1));
        self.fences.remove(left);
        Arc::make_mut(&mut self.chunks[left]).extend(right);
        true
    }

    /// Append a chunk that follows every chunk here, with the fence below
    /// it (`None` for the first chunk of a page), merging it into the
    /// last chunk if the two should be one.
    fn push_chunk(&mut self, fence: Option<&Key>, chunk: Chunk) {
        if chunk.is_empty() {
            return;
        }
        match (self.chunks.last_mut(), fence) {
            (Some(last), _) if should_merge(last.len(), chunk.len(), CHUNK_CAP) => {
                Arc::make_mut(last).extend(unshare(chunk));
            }
            (Some(_), Some(fence)) => {
                self.fences.push(fence.clone());
                self.chunks.push(chunk);
            }
            // The first chunk kept has no fence below it.
            _ => self.chunks.push(chunk),
        }
    }

    /// Append the page that follows this one, `fence` between the two,
    /// merging the two chunks that meet if they should be one.
    fn append(&mut self, fence: Key, next: Page) {
        let junction = self.chunks.len().saturating_sub(1);
        self.fences.push(fence);
        self.fences.extend(next.fences);
        self.chunks.extend(next.chunks);
        self.merge_chunks_at(junction);
    }

    /// This page without the entries `pred` picks, or `None` if it picks
    /// none. Chunks that lose nothing are shared, not copied, and `pred`
    /// sees each entry once.
    fn without(&self, pred: &mut impl FnMut(&Tuple) -> bool) -> Option<Page> {
        let mut kept: Option<Page> = None;
        for (ci, chunk) in self.chunks.iter().enumerate() {
            let fence = ci.checked_sub(1).map(|below| &self.fences[below]);
            let Some(first) = chunk.iter().position(|e| pred(&e.key.tuple)) else {
                if let Some(kept) = &mut kept {
                    kept.push_chunk(fence, Arc::clone(chunk));
                }
                continue;
            };
            let mut entries = chunk[..first].to_vec();
            entries.extend(
                chunk[first + 1..]
                    .iter()
                    .filter(|e| !pred(&e.key.tuple))
                    .cloned(),
            );
            let kept = kept.get_or_insert_with(|| Page {
                chunks: self.chunks[..ci].to_vec(),
                fences: self.fences[..ci.saturating_sub(1)].to_vec(),
            });
            kept.push_chunk(fence, Arc::new(entries));
        }
        kept
    }
}

/// A relation with signed replication counts.
///
/// Iteration order is deterministic (tuples in value order) so traces,
/// tests, and wire encodings are reproducible.
///
/// The bag is a two-level persistent spine: a short vector of
/// reference-counted pages, each a vector of up to `PAGE_CAP`
/// reference-counted sorted chunks. `clone` copies the page vector — one
/// pointer pair per page, a page per 900 (scattered inserts) to 2,048
/// (sorted input) tuples, and no per-chunk or per-tuple work — and a write
/// after a clone copies only the page and the chunk it touches
/// (`Arc::make_mut`). So snapshots of a large view (epoch publication,
/// state history, checkpoints, read answers) cost O(pages) and share
/// their storage, and dropping one frees only what it held alone.
/// Every entry and fence carries an order-preserving prefix of its
/// tuple, so a search compares integers and dereferences a tuple only on
/// a tie (DESIGN §6).
/// Equality, iteration, `Debug` and the wire encoding depend on content
/// only, never on where chunk or page boundaries fall.
///
/// ```
/// use eca_relational::{SignedBag, Tuple};
///
/// // MV = ([1],[4]); an answer deletes one [4] and inserts [7].
/// let mv = SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])]);
/// let mut answer = SignedBag::new();
/// answer.add(Tuple::ints([4]), -1);
/// answer.add(Tuple::ints([7]), 1);
///
/// let updated = mv.plus(&answer);
/// assert_eq!(updated.count(&Tuple::ints([4])), 0);
/// assert_eq!(updated.count(&Tuple::ints([7])), 1);
/// ```
#[derive(Clone, Default)]
pub struct SignedBag {
    pages: Vec<Arc<Page>>,
    /// `fences[i]` parts `pages[i]` from `pages[i + 1]`: greater than
    /// every key up to and including `pages[i]`, and at most every key
    /// from `pages[i + 1]` on. Set when a page or chunk is created and
    /// never tightened, so finding a key's page reads this array alone.
    fences: Vec<Key>,
    /// Distinct tuples, i.e. entries over all chunks.
    len: usize,
}

impl SignedBag {
    /// The empty bag.
    pub fn new() -> Self {
        SignedBag::default()
    }

    /// A bag holding one positive copy of each given tuple (duplicates
    /// accumulate).
    pub fn from_tuples(tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut bag = SignedBag::new();
        for t in tuples {
            bag.add(t, 1);
        }
        bag
    }

    /// A bag holding a single positive tuple.
    pub fn singleton(tuple: Tuple) -> Self {
        let mut bag = SignedBag::new();
        bag.add(tuple, 1);
        bag
    }

    /// Adjust the count of `tuple` by `delta`, pruning zeros.
    ///
    /// A tuple at or beyond the current last one is handled without a
    /// search, so building a bag from sorted input (decoding, merging
    /// into an empty bag) is linear and packs chunks and pages full.
    pub fn add(&mut self, tuple: Tuple, delta: i64) {
        if delta != 0 {
            self.add_key(Key::new(tuple), delta);
        }
    }

    /// [`SignedBag::add`] of a tuple whose prefix is known.
    fn add_key(&mut self, key: Key, delta: i64) {
        if delta == 0 {
            return;
        }
        let probe = key.probe();
        let last = self
            .pages
            .last()
            .and_then(|page| page.chunks.last())
            .and_then(|chunk| chunk.last());
        match last.map(|entry| probe.cmp(&entry.key)) {
            None | Some(Ordering::Greater) => self.push_back(key, delta),
            Some(Ordering::Equal) => {
                let pi = self.pages.len() - 1;
                let ci = self.pages[pi].chunks.len() - 1;
                let ei = self.pages[pi].chunks[ci].len() - 1;
                self.adjust(pi, ci, ei, delta);
            }
            Some(Ordering::Less) => {
                let pi = fence_index(&self.fences, probe);
                let page = &self.pages[pi];
                let ci = fence_index(&page.fences, probe);
                match search(&page.chunks[ci], probe) {
                    Ok(ei) => self.adjust(pi, ci, ei, delta),
                    Err(ei) => self.insert(pi, ci, ei, key, delta),
                }
            }
        }
    }

    /// Every chunk in tuple order.
    fn chunks(&self) -> impl Iterator<Item = &Chunk> + '_ {
        self.pages.iter().flat_map(|page| page.chunks.iter())
    }

    /// Append an entry whose tuple is greater than every tuple present.
    ///
    /// Most bags are deltas and answers of a handful of tuples: their
    /// first chunk starts with room for eight. A chunk that follows a
    /// full one is part of a sorted build and will fill too: room for
    /// `CHUNK_CAP` saves it three reallocations.
    fn push_back(&mut self, key: Key, count: i64) {
        self.len += 1;
        let Some(page) = self.pages.last_mut() else {
            self.pages.push(Arc::new(Page {
                chunks: vec![new_chunk(key, count, 8)],
                fences: Vec::new(),
            }));
            return;
        };
        let page = Arc::make_mut(page);
        if let Some(chunk) = page.chunks.last_mut() {
            if chunk.len() < CHUNK_CAP {
                Arc::make_mut(chunk).push(Entry { key, count });
                return;
            }
        }
        let chunk = new_chunk(key.clone(), count, CHUNK_CAP);
        if page.chunks.len() < PAGE_CAP {
            page.fences.push(key);
            page.chunks.push(chunk);
        } else {
            self.fences.push(key);
            self.pages.push(Arc::new(Page {
                chunks: vec![chunk],
                fences: Vec::new(),
            }));
        }
    }

    /// Add `delta` to entry `ei` of chunk `ci` of page `pi`, dropping it
    /// at zero.
    fn adjust(&mut self, pi: usize, ci: usize, ei: usize, delta: i64) {
        let page = Arc::make_mut(&mut self.pages[pi]);
        let chunks = page.chunks.len();
        if !page.adjust(ci, ei, delta) {
            return;
        }
        self.len -= 1;
        if page.chunks.is_empty() {
            remove_run(&mut self.pages, &mut self.fences, pi);
        } else if page.chunks.len() < chunks && !self.merge_pages_at(pi) && pi > 0 {
            // Right neighbour first, then left.
            self.merge_pages_at(pi - 1);
        }
    }

    /// Merge page `left + 1` into page `left` if the two should be one.
    /// Returns whether they were.
    fn merge_pages_at(&mut self, left: usize) -> bool {
        let Some(right) = self.pages.get(left + 1) else {
            return false;
        };
        if !should_merge(self.pages[left].chunks.len(), right.chunks.len(), PAGE_CAP) {
            return false;
        }
        let right = unshare(self.pages.remove(left + 1));
        let fence = self.fences.remove(left);
        Arc::make_mut(&mut self.pages[left]).append(fence, right);
        true
    }

    /// Insert a new entry at position `ei` of chunk `ci` of page `pi`,
    /// splitting the page in half if that leaves it over `PAGE_CAP`.
    fn insert(&mut self, pi: usize, ci: usize, ei: usize, key: Key, count: i64) {
        let page = Arc::make_mut(&mut self.pages[pi]);
        page.insert(ci, ei, key, count);
        self.len += 1;
        if page.chunks.len() > PAGE_CAP {
            let chunks = page.chunks.split_off(PAGE_CAP / 2);
            let mut fences = page.fences.split_off(PAGE_CAP / 2 - 1);
            // The fence that parted the two halves' chunks parts the pages.
            self.fences.insert(pi, fences.remove(0));
            self.pages.insert(pi + 1, Arc::new(Page { chunks, fences }));
        }
    }

    /// Append a page that follows every page here, with the fence below
    /// it (`None` for the first page), merging it into the last page if
    /// the two should be one.
    fn push_page(&mut self, fence: Option<Key>, page: Arc<Page>) {
        if page.chunks.is_empty() {
            return;
        }
        match (self.pages.last_mut(), fence) {
            (Some(last), Some(fence))
                if should_merge(last.chunks.len(), page.chunks.len(), PAGE_CAP) =>
            {
                Arc::make_mut(last).append(fence, unshare(page));
            }
            (Some(_), Some(fence)) => {
                self.fences.push(fence);
                self.pages.push(page);
            }
            // The first page kept has no fence below it.
            _ => self.pages.push(page),
        }
    }

    /// All entries in tuple order.
    fn entries(&self) -> impl Iterator<Item = &Entry> + '_ {
        self.chunks().flat_map(|chunk| chunk.iter())
    }

    /// A new bag with every count passed through `f`; entries mapped to
    /// zero are dropped.
    fn map_counts(&self, f: impl Fn(i64) -> i64) -> SignedBag {
        let mut out = SignedBag::new();
        for entry in self.entries() {
            let c = f(entry.count);
            if c != 0 {
                out.push_back(entry.key.clone(), c);
            }
        }
        out
    }

    /// The signed count of `tuple` (0 if absent).
    pub fn count(&self, tuple: &Tuple) -> i64 {
        self.count_probe(Probe::of(tuple))
    }

    fn count_probe(&self, probe: Probe<'_>) -> i64 {
        let Some(page) = self.pages.get(fence_index(&self.fences, probe)) else {
            return 0;
        };
        let chunk = &page.chunks[fence_index(&page.fences, probe)];
        search(chunk, probe).map_or(0, |ei| chunk[ei].count)
    }

    /// Whether the bag has no tuples (all counts zero).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of *distinct* tuples with non-zero count.
    pub fn distinct_len(&self) -> usize {
        self.len
    }

    /// Total number of positive tuple occurrences.
    pub fn pos_len(&self) -> u64 {
        self.iter()
            .filter(|(_, c)| *c > 0)
            .map(|(_, c)| c as u64)
            .sum()
    }

    /// Total number of negative tuple occurrences.
    pub fn neg_len(&self) -> u64 {
        self.iter()
            .filter(|(_, c)| *c < 0)
            .map(|(_, c)| c.unsigned_abs())
            .sum()
    }

    /// Sum of all signed counts (can be negative).
    pub fn signed_len(&self) -> i64 {
        self.iter().map(|(_, c)| c).sum()
    }

    /// Whether every count is non-negative, i.e. the bag is a plain
    /// (unsigned) relation.
    #[cfg(test)]
    fn is_plain(&self) -> bool {
        self.iter().all(|(_, c)| c > 0)
    }

    /// Iterate `(tuple, signed count)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, i64)> + '_ {
        self.entries().map(|entry| (&entry.key.tuple, entry.count))
    }

    /// Iterate each occurrence as a [`SignedTuple`], expanding counts.
    pub fn iter_occurrences(&self) -> impl Iterator<Item = SignedTuple> + '_ {
        self.iter().flat_map(|(t, c)| {
            let sign = if c > 0 { Sign::Plus } else { Sign::Minus };
            std::iter::repeat_with(move || SignedTuple {
                sign,
                tuple: t.clone(),
            })
            .take(c.unsigned_abs() as usize)
        })
    }

    /// The positive part `pos(r)` as a plain bag.
    pub fn positive_part(&self) -> SignedBag {
        self.map_counts(|c| c.max(0))
    }

    /// The negative part `neg(r)` as a plain bag (counts made positive).
    pub fn negative_part(&self) -> SignedBag {
        self.map_counts(|c| (-c).max(0))
    }

    /// The paper's `+` operator: pointwise count addition.
    #[must_use]
    pub fn plus(&self, other: &SignedBag) -> SignedBag {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// The paper's `−` operator: `r1 + (−r2)`.
    #[must_use]
    pub fn minus(&self, other: &SignedBag) -> SignedBag {
        let mut out = self.clone();
        out.merge_negated(other);
        out
    }

    /// `−r`: every sign flipped.
    #[must_use]
    pub fn negated(&self) -> SignedBag {
        self.map_counts(|c| -c)
    }

    /// In-place `self += other`.
    pub fn merge(&mut self, other: &SignedBag) {
        for entry in other.entries() {
            self.add_key(entry.key.clone(), entry.count);
        }
    }

    /// In-place `self −= other`.
    pub fn merge_negated(&mut self, other: &SignedBag) {
        for entry in other.entries() {
            self.add_key(entry.key.clone(), -entry.count);
        }
    }

    /// Remove every occurrence (positive or negative) of tuples for which
    /// `pred` returns true. Returns the number of distinct tuples removed.
    ///
    /// Used by ECA-Key's `key-delete` operation (paper §5.4).
    pub fn remove_where(&mut self, mut pred: impl FnMut(&Tuple) -> bool) -> usize {
        let before = self.len;
        let pages = std::mem::take(&mut self.pages);
        // Each page with the fence below it; the first has none.
        let fences = std::mem::take(&mut self.fences).into_iter().map(Some);
        for (page, fence) in pages.into_iter().zip(std::iter::once(None).chain(fences)) {
            // A page that loses nothing stays shared with earlier clones.
            let page = match page.without(&mut pred) {
                Some(kept) => {
                    self.len -= page.len() - kept.len();
                    Arc::new(kept)
                }
                None => page,
            };
            self.push_page(fence, page);
        }
        before - self.len
    }

    /// Cap every positive count at 1 and drop negatives.
    ///
    /// ECA-Key ignores duplicates when accumulating answers into COLLECT
    /// (paper §5.4 step 4: "duplicate tuples are not added").
    #[must_use]
    pub fn distinct(&self) -> SignedBag {
        self.map_counts(|c| i64::from(c > 0))
    }

    /// Merge `other` into `self`, skipping tuples already present with a
    /// positive count (ECAK's duplicate suppression). Negative tuples in
    /// `other` are applied as deletions.
    pub fn merge_distinct(&mut self, other: &SignedBag) {
        for entry in other.entries() {
            if entry.count > 0 {
                if self.count_probe(entry.key.probe()) <= 0 {
                    self.add_key(entry.key.clone(), 1);
                }
            } else {
                self.add_key(entry.key.clone(), entry.count);
            }
        }
    }

    /// Whether `self` and `other` hold the very same pages: equal page
    /// counts and every pair the same allocation. Reads the two page
    /// vectors only — O(pages), no chunk, no entry, no refcount, no
    /// allocation.
    ///
    /// `true` implies equal content: a write to a page (or a chunk of
    /// one) that a clone shares goes through `Arc::make_mut` and so lands
    /// in a new allocation, and an address cannot be reused while `other`
    /// keeps the old page alive. The converse does not hold: equal
    /// content built separately is `false`.
    pub fn shares_every_chunk(&self, other: &SignedBag) -> bool {
        self.pages.len() == other.pages.len()
            && self
                .pages
                .iter()
                .zip(&other.pages)
                .all(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// Total encoded payload size in bytes under the wire codec: a 4-byte
    /// tuple count, then per occurrence a 1-byte sign plus the tuple
    /// encoding.
    pub fn encoded_len(&self) -> usize {
        4 + self
            .iter()
            .map(|(t, c)| (c.unsigned_abs() as usize) * (1 + t.encoded_len()))
            .sum::<usize>()
    }
}

/// Position of `probe` in a sorted chunk, or where it would go.
///
/// Two linear scans — every `SEARCH_STRIDE`-th entry, then the stretch
/// that scan stopped in — rather than a binary search: a tie in prefix
/// follows a tuple pointer to memory that is usually cold, a linear
/// scan's loads do not depend on one another and so overlap, and a
/// binary search's six would be paid one after the other.
fn search(chunk: &[Entry], probe: Probe<'_>) -> Result<usize, usize> {
    const SEARCH_STRIDE: usize = 8;
    let mut lo = 0;
    while lo + SEARCH_STRIDE <= chunk.len()
        && probe.cmp(&chunk[lo + SEARCH_STRIDE - 1].key) == Ordering::Greater
    {
        lo += SEARCH_STRIDE;
    }
    for (i, entry) in chunk.iter().enumerate().skip(lo) {
        match probe.cmp(&entry.key) {
            Ordering::Greater => {}
            Ordering::Equal => return Ok(i),
            Ordering::Less => return Err(i),
        }
    }
    Err(chunk.len())
}

impl PartialEq for SignedBag {
    fn eq(&self, other: &SignedBag) -> bool {
        self.len == other.len && self.entries().eq(other.entries())
    }
}

impl Eq for SignedBag {}

impl fmt::Debug for SignedBag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        let mut first = true;
        for st in self.iter_occurrences() {
            if !first {
                write!(f, ",")?;
            }
            first = false;
            if st.sign == Sign::Minus {
                write!(f, "{:?}", st)?;
            } else {
                write!(f, "{:?}", st.tuple)?;
            }
        }
        write!(f, ")")
    }
}

impl FromIterator<Tuple> for SignedBag {
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        SignedBag::from_tuples(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(vals: &[i64]) -> Tuple {
        Tuple::ints(vals.iter().copied())
    }

    #[test]
    fn add_and_prune_zero() {
        let mut b = SignedBag::new();
        b.add(t(&[1]), 1);
        b.add(t(&[1]), -1);
        assert!(b.is_empty());
        assert_eq!(b.count(&t(&[1])), 0);
    }

    #[test]
    fn duplicates_are_retained() {
        let b = SignedBag::from_tuples([t(&[1]), t(&[1]), t(&[2])]);
        assert_eq!(b.count(&t(&[1])), 2);
        assert_eq!(b.pos_len(), 3);
        assert_eq!(b.distinct_len(), 2);
    }

    #[test]
    fn plus_matches_paper_definition() {
        // r1 = (+[1], -[2]), r2 = (+[2], +[3])
        let mut r1 = SignedBag::new();
        r1.add(t(&[1]), 1);
        r1.add(t(&[2]), -1);
        let r2 = SignedBag::from_tuples([t(&[2]), t(&[3])]);
        let sum = r1.plus(&r2);
        // pos union = ([1],[2],[3]); neg union = ([2]); difference = ([1],[3])
        assert_eq!(sum.count(&t(&[1])), 1);
        assert_eq!(sum.count(&t(&[2])), 0);
        assert_eq!(sum.count(&t(&[3])), 1);
    }

    #[test]
    fn minus_is_plus_of_negation() {
        let r1 = SignedBag::from_tuples([t(&[1]), t(&[4])]);
        let r2 = SignedBag::from_tuples([t(&[4])]);
        let d = r1.minus(&r2);
        assert_eq!(d.count(&t(&[1])), 1);
        assert_eq!(d.count(&t(&[4])), 0);
        assert_eq!(r1.minus(&r1), SignedBag::new());
    }

    #[test]
    fn pos_neg_parts() {
        let mut b = SignedBag::new();
        b.add(t(&[1]), 2);
        b.add(t(&[2]), -3);
        assert_eq!(b.positive_part().count(&t(&[1])), 2);
        assert_eq!(b.negative_part().count(&t(&[2])), 3);
        assert_eq!(b.pos_len(), 2);
        assert_eq!(b.neg_len(), 3);
        assert_eq!(b.signed_len(), -1);
        assert!(!b.is_plain());
        assert!(b.positive_part().is_plain());
    }

    #[test]
    fn remove_where_deletes_matching() {
        let mut b = SignedBag::from_tuples([t(&[1, 3]), t(&[2, 3]), t(&[1, 4])]);
        let n = b.remove_where(|tp| tp.get(0) == Some(&crate::Value::Int(1)));
        assert_eq!(n, 2);
        assert_eq!(b.distinct_len(), 1);
        assert_eq!(b.count(&t(&[2, 3])), 1);
    }

    #[test]
    fn distinct_and_merge_distinct() {
        let mut b = SignedBag::new();
        b.add(t(&[1]), 3);
        b.add(t(&[2]), -1);
        let d = b.distinct();
        assert_eq!(d.count(&t(&[1])), 1);
        assert_eq!(d.count(&t(&[2])), 0);

        let mut collect = SignedBag::from_tuples([t(&[3, 4])]);
        let answer = SignedBag::from_tuples([t(&[3, 4]), t(&[3, 3])]);
        collect.merge_distinct(&answer);
        // [3,4] was a duplicate and is not added twice.
        assert_eq!(collect.count(&t(&[3, 4])), 1);
        assert_eq!(collect.count(&t(&[3, 3])), 1);
    }

    #[test]
    fn merge_distinct_applies_deletions() {
        let mut collect = SignedBag::from_tuples([t(&[1])]);
        let mut ans = SignedBag::new();
        ans.add(t(&[1]), -1);
        collect.merge_distinct(&ans);
        assert!(collect.is_empty());
    }

    #[test]
    fn deterministic_iteration_order() {
        let b = SignedBag::from_tuples([t(&[3]), t(&[1]), t(&[2])]);
        let order: Vec<_> = b.iter().map(|(tp, _)| tp.clone()).collect();
        assert_eq!(order, vec![t(&[1]), t(&[2]), t(&[3])]);
    }

    #[test]
    fn iter_occurrences_expands_counts() {
        let mut b = SignedBag::new();
        b.add(t(&[1]), 2);
        b.add(t(&[2]), -1);
        let occ: Vec<String> = b.iter_occurrences().map(|s| format!("{s:?}")).collect();
        assert_eq!(occ, vec!["+[1]", "+[1]", "-[2]"]);
    }

    #[test]
    fn debug_format() {
        let mut b = SignedBag::new();
        b.add(t(&[1]), 1);
        b.add(t(&[4]), -1);
        assert_eq!(format!("{b:?}"), "([1],-[4])");
    }

    /// Every structural condition the representation relies on: fences
    /// in order across and within pages, each part of its runs; chunk
    /// and page occupancy within bounds; `len` the sum over chunks; every
    /// stored prefix the prefix of its tuple.
    fn check(bag: &SignedBag) {
        assert_eq!(bag.fences.len(), bag.pages.len().saturating_sub(1));
        let mut len = 0;
        let mut prev: Option<&Tuple> = None;
        for (pi, page) in bag.pages.iter().enumerate() {
            let chunks = page.chunks.len();
            assert!(
                (1..=PAGE_CAP).contains(&chunks),
                "page {pi} holds {chunks} chunks"
            );
            assert_eq!(page.fences.len(), chunks - 1, "fences of page {pi}");
            for (ci, chunk) in page.chunks.iter().enumerate() {
                let n = chunk.len();
                assert!((1..=CHUNK_CAP).contains(&n), "chunk {pi}.{ci} holds {n}");
                let fence = match ci {
                    0 => pi.checked_sub(1).map(|below| &bag.fences[below]),
                    _ => Some(&page.fences[ci - 1]),
                };
                if let Some(fence) = fence {
                    assert_eq!(fence.prefix, prefix(&fence.tuple));
                    let fence = &fence.tuple;
                    assert!(prev < Some(fence), "fence below chunk {pi}.{ci} too low");
                    assert!(
                        *fence <= chunk[0].key.tuple,
                        "fence below chunk {pi}.{ci} too high"
                    );
                }
                for entry in chunk.iter() {
                    assert_ne!(entry.count, 0);
                    assert_eq!(entry.key.prefix, prefix(&entry.key.tuple));
                    let t = &entry.key.tuple;
                    assert!(prev < Some(t), "order in chunk {pi}.{ci}");
                    prev = Some(t);
                }
                len += n;
            }
        }
        assert_eq!(len, bag.len);
    }

    /// Every value kind on both sides of every slot boundary.
    fn boundary_values() -> Vec<crate::Value> {
        let ints = [
            i64::MIN,
            -INT_EXACT - 1,
            -INT_EXACT,
            -INT_EXACT + 1,
            -1,
            0,
            1,
            INT_EXACT - 1,
            INT_EXACT,
            INT_EXACT + 1,
            i64::MAX,
        ];
        let strs = ["", "\0", "a", "ab", "b", "\u{ff}"];
        ints.into_iter()
            .map(crate::Value::Int)
            .chain(strs.into_iter().map(crate::Value::str))
            .collect()
    }

    /// Prefixes ascend (not strictly) along the tuple order, and equal
    /// tuples have equal prefixes — which gives both properties the
    /// search relies on for every pair: `prefix(a) < prefix(b) ⇒ a < b`
    /// and `a == b ⇒ prefix(a) == prefix(b)`.
    #[test]
    fn prefixes_ascend_with_the_tuple_order() {
        let values = boundary_values();
        let mut tuples = vec![Tuple::new([])];
        let mut level = tuples.clone();
        for _arity in 1..=3 {
            level = level
                .iter()
                .flat_map(|t| {
                    values
                        .iter()
                        .map(move |v| Tuple::new(t.values().iter().cloned().chain([v.clone()])))
                })
                .collect();
            tuples.extend(level.iter().cloned());
        }
        tuples.sort();
        for pair in tuples.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(prefix(a) <= prefix(b), "{a:?} < {b:?}");
        }
        // Exact slots tell apart what they cover.
        assert!(prefix(&t(&[1, 2])) < prefix(&t(&[1, 3])));
        assert!(prefix(&t(&[1])) < prefix(&t(&[1, i64::MIN])));
        assert_eq!(prefix(&t(&[1, 2, 3])), prefix(&t(&[1, 2, 4])));
        // After an inexact first slot nothing else is read.
        assert_eq!(prefix(&t(&[i64::MAX, 1])), prefix(&t(&[i64::MAX, 2])));
    }

    /// A tuple of arity 0–4 over the boundary values, the 32-bit edges
    /// (±2³¹ ± 3) and a few small integers, so first values are shared.
    fn mixed_tuple() -> impl proptest::strategy::Strategy<Value = Tuple> {
        use proptest::prelude::*;
        let mut values = boundary_values();
        for edge in [1i64 << 31, -(1 << 31)] {
            values.extend([edge - 3, edge, edge + 3].map(crate::Value::Int));
        }
        values.extend((2..5).map(crate::Value::Int));
        let n = values.len();
        prop::collection::vec((0..n).prop_map(move |i| values[i].clone()), 0..5)
            .prop_map(Tuple::new)
    }

    proptest::proptest! {
        /// Monotonicity on random pairs, longer tuples included.
        #[test]
        fn prefixes_order_random_pairs_as_tuples_do(a in mixed_tuple(), b in mixed_tuple()) {
            match a.cmp(&b) {
                Ordering::Less => proptest::prop_assert!(prefix(&a) <= prefix(&b)),
                Ordering::Equal => proptest::prop_assert_eq!(prefix(&a), prefix(&b)),
                Ordering::Greater => proptest::prop_assert!(prefix(&a) >= prefix(&b)),
            }
        }
    }

    /// The space the prefixes cost: 8 bytes per entry and per fence.
    #[test]
    fn entries_and_fences_carry_eight_bytes_of_prefix() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
        assert_eq!(std::mem::size_of::<Entry>(), 32);
    }

    /// Chunks of `a` that are not the same allocation as any chunk of `b`.
    fn unshared(a: &SignedBag, b: &SignedBag) -> usize {
        a.chunks()
            .filter(|c| !b.chunks().any(|d| Arc::ptr_eq(c, d)))
            .count()
    }

    /// Pages of `a` that are not the same allocation as any page of `b`.
    fn unshared_pages(a: &SignedBag, b: &SignedBag) -> usize {
        a.pages
            .iter()
            .filter(|p| !b.pages.iter().any(|q| Arc::ptr_eq(p, q)))
            .count()
    }

    /// A deterministic shuffle of `0..n` (multiplication by a unit mod n).
    fn scattered(n: i64) -> impl Iterator<Item = i64> {
        (0..n).map(move |i| (i * 7919) % n)
    }

    #[test]
    fn clone_then_write_copies_only_the_touched_chunks() {
        let mut bag = SignedBag::new();
        for i in scattered(20_000) {
            bag.add(t(&[i, i % 7]), 1);
        }
        check(&bag);
        assert!(bag.chunks().count() <= 2 * 20_000 / CHUNK_CAP + 1);

        let snap = bag.clone();
        assert_eq!(unshared(&bag, &snap), 0);
        bag.add(t(&[10_000, -1]), 1); // a new tuple, somewhere in the middle
        check(&bag);
        assert!(unshared(&bag, &snap) <= 2, "{}", unshared(&bag, &snap));
        assert_eq!(snap.distinct_len(), 20_000);
        assert_eq!(snap.count(&t(&[10_000, -1])), 0);
        assert_eq!(bag.distinct_len(), 20_001);

        // A delete and a count change behave the same way.
        let snap = bag.clone();
        bag.add(t(&[5, 5]), -1);
        bag.add(t(&[19_999, 19_999 % 7]), 4);
        check(&bag);
        assert!(unshared(&bag, &snap) <= 2);
        assert_eq!(snap.count(&t(&[5, 5])), 1);
        assert_eq!(snap.count(&t(&[19_999, 19_999 % 7])), 1);
    }

    #[test]
    fn one_write_after_a_clone_unshares_at_most_a_page() {
        let mut bag: SignedBag = scattered(100_000).map(|i| t(&[i, i % 7])).collect();
        check(&bag);
        // A clone costs one pointer pair per page: 91 of them here,
        // against 2,048 chunks.
        assert!(bag.pages.len() <= 100, "{} pages", bag.pages.len());
        assert!(bag.chunks().count() > 20 * bag.pages.len());
        for k in (0..100_000).step_by(997) {
            // A new tuple: one page and the chunk it lands in (two, if
            // that chunk splits), or two pages if the page splits too.
            let snap = bag.clone();
            assert!(bag.shares_every_chunk(&snap));
            bag.add(t(&[k, -1]), 1);
            let page_split = bag.pages.len() - snap.pages.len();
            assert!(unshared_pages(&bag, &snap) <= 1 + page_split);
            assert!(unshared(&bag, &snap) <= 2);
            assert!(!bag.shares_every_chunk(&snap));

            // Cancelled to zero: a page, plus the neighbour it may merge
            // with.
            let snap = bag.clone();
            bag.add(t(&[k, -1]), -1);
            assert!(unshared_pages(&bag, &snap) <= 2);
            assert!(!bag.shares_every_chunk(&snap));

            // One tuple removed by predicate: the same.
            let snap = bag.clone();
            let victim = t(&[k + 1, (k + 1) % 7]);
            assert_eq!(bag.remove_where(|tp| *tp == victim), 1, "{victim:?}");
            assert!(unshared_pages(&bag, &snap) <= 2);
            assert!(!bag.shares_every_chunk(&snap));
            assert_eq!(snap.count(&victim), 1);
        }
        check(&bag);
        assert_eq!(bag.distinct_len(), 100_000 - 101);
    }

    #[test]
    fn chunks_stay_within_bounds_under_churn() {
        const N: i64 = 20_000;
        let mut bag = SignedBag::new();
        // Grow by scattered inserts (splits), shrink by scattered deletes
        // (merges), regrow, then mass-delete through remove_where.
        for i in scattered(N) {
            bag.add(t(&[i]), 1);
            if i % 97 == 0 {
                check(&bag);
            }
        }
        let full = bag.chunks().count();
        let full_pages = bag.pages.len();
        assert!(full_pages >= 8, "{full_pages} pages");
        for i in scattered(N).filter(|i| i % 10 != 0) {
            bag.add(t(&[i]), -1);
            if i % 97 == 0 {
                check(&bag);
            }
        }
        check(&bag);
        assert_eq!(bag.distinct_len(), N as usize / 10);
        assert!(
            bag.chunks().count() <= full / 4,
            "merges keep the spine short"
        );
        assert!(bag.pages.len() <= full_pages / 4, "and the page vector");
        for i in scattered(N) {
            bag.add(t(&[i]), 2);
        }
        check(&bag);
        let snap = bag.clone();
        let removed = bag.remove_where(|tp| tp.get(0) >= Some(&crate::Value::Int(100)));
        check(&bag);
        assert_eq!(removed, N as usize - 100);
        assert_eq!(bag.distinct_len(), 100);
        assert!(bag.chunks().count() <= 100 / (CHUNK_CAP / 4) + 1);
        assert_eq!(bag.pages.len(), 1);
        // Chunks that lost nothing are still the snapshot's.
        assert!(unshared(&bag, &snap) <= 1);
        assert_eq!(snap.distinct_len(), N as usize);
        for i in 0..N {
            bag.add(t(&[i]), -bag.count(&t(&[i])));
        }
        assert!(bag.is_empty() && bag.pages.is_empty());
    }

    #[test]
    fn sorted_input_packs_chunks_full() {
        let bag = SignedBag::from_tuples((0..10_000).map(|i| t(&[i])));
        check(&bag);
        let chunks = 10_000_usize.div_ceil(CHUNK_CAP);
        assert_eq!(bag.chunks().count(), chunks);
        assert_eq!(bag.pages.len(), chunks.div_ceil(PAGE_CAP));
        // Equal content, different boundaries: still equal.
        let shuffled = SignedBag::from_tuples(scattered(10_000).map(|i| t(&[i])));
        check(&shuffled);
        assert_ne!(shuffled.chunks().count(), chunks);
        assert_eq!(shuffled, bag);
    }

    #[test]
    fn encoded_len_scales_with_occurrences() {
        let one = SignedBag::singleton(t(&[1]));
        let mut two = SignedBag::new();
        two.add(t(&[1]), 2);
        assert!(two.encoded_len() > one.encoded_len());
        assert_eq!(SignedBag::new().encoded_len(), 4);
    }
}
