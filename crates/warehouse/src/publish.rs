//! Epoch publication: the maintenance → serving handoff.
//!
//! Maintenance (under either driver) *publishes* view snapshots into an
//! [`EpochRegistry`]; the read-serving layer (`eca-serve`)
//! *reads* them. Publication is by reference. Ring entries and the
//! strong slot hold `Arc<SignedBag>`s, and a publish costs one snapshot
//! per *new* state:
//!
//! * a state that still shares every page with the view's newest ring
//!   entry ([`SignedBag::shares_every_chunk`], O(pages)) is that entry's
//!   state, so the publish pushes the same `Arc` again. Under ECA that
//!   is most events: an update only enqueues queries, and the view
//!   changes once, when COLLECT is installed at quiescence;
//! * any other state is cloned once, outside the slot lock. A
//!   [`SignedBag`] is a two-level spine of reference-counted pages of
//!   reference-counted chunks, so the clone costs one pointer pair per
//!   page (a page per 900–2,048 tuples) — not one per chunk, nor a copy
//!   per tuple — and shares everything with the maintainer's own state
//!   until the maintainer next writes to it (which copies just the page
//!   and the chunk each write touches).
//!
//! A quiescent publish points the strong slot at the entry it pushed, so
//! the slot never holds a copy of its own. A ring of `n` epochs holds
//! one view plus the pages and chunks that changed across those epochs,
//! not `n` views, and evicting an epoch frees only what it held alone.
//! Under the per-view lock a publish only pushes and a read only clones
//! an `Arc`; the read's bag clone, and the drop of whatever a publish
//! evicts, run after the lock is released. Readers never take a lock
//! the maintainer holds during query evaluation — heavy read traffic
//! cannot block maintenance, and vice versa. The registry is the §3
//! consistency hierarchy made operational:
//!
//! * every ring entry is a *published epoch* — [`ReadLevel::Convergent`]
//!   may serve any of them;
//! * epochs are globally monotonic ([`EpochRegistry::latest`] never
//!   decreases), so a per-client floor turns ring reads into
//!   [`ReadLevel::Weak`] monotonic reads;
//! * a snapshot published while the view's maintainer was quiescent is
//!   by construction a member of the §3.1 state history (`V` evaluated
//!   at a real source state, never a mid-compensation intermediate) —
//!   the latest such snapshot serves [`ReadLevel::Strong`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use eca_relational::SignedBag;
use eca_wire::ReadLevel;

use crate::lock;

/// One served snapshot plus the epoch metadata a read answer carries.
#[derive(Clone, Debug)]
pub struct ReadSnapshot {
    /// Epoch of the served state.
    pub epoch: u64,
    /// Latest epoch published anywhere in the registry at serve time;
    /// `latest - epoch` is the answer's staleness in epochs.
    pub latest: u64,
    /// The rows; their pages are shared with the ring entry served.
    pub rows: SignedBag,
}

struct ViewSlot {
    /// Published `(epoch, state)` pairs, oldest first. Never empty: the
    /// initial state is published at registration.
    ring: VecDeque<(u64, Arc<SignedBag>)>,
    /// The latest snapshot published while the maintainer was quiescent
    /// — the §3.1-history state strong reads serve. Always the same
    /// `Arc` as the ring entry of its epoch.
    strong: (u64, Arc<SignedBag>),
}

/// Shared epoch store: one slot per view, a global epoch counter, and a
/// rotation cursor that spreads convergent reads over the ring (so the
/// bench's staleness distribution reflects the whole window, not just
/// the freshest entry).
pub struct EpochRegistry {
    epoch: AtomicU64,
    rotation: AtomicU64,
    ring_cap: usize,
    slots: Vec<Mutex<ViewSlot>>,
}

impl EpochRegistry {
    /// A registry over the given initial view states (published as
    /// epoch 0, quiesced — the initial state is `V(ss)` by definition).
    /// `ring_cap` bounds each view's published-epoch window (≥ 1).
    pub fn new(initial: impl IntoIterator<Item = SignedBag>, ring_cap: usize) -> EpochRegistry {
        let slots = initial
            .into_iter()
            .map(|state| {
                let state = Arc::new(state);
                Mutex::new(ViewSlot {
                    ring: VecDeque::from([(0, Arc::clone(&state))]),
                    strong: (0, state),
                })
            })
            .collect();
        EpochRegistry {
            epoch: AtomicU64::new(0),
            rotation: AtomicU64::new(0),
            ring_cap: ring_cap.max(1),
            slots,
        }
    }

    /// Number of registered views.
    pub fn view_count(&self) -> usize {
        self.slots.len()
    }

    /// The latest epoch published anywhere (globally monotonic).
    pub fn latest(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Publish `state` as view `view`'s newest epoch. `quiescent` marks
    /// a state reached with no compensation in flight — exactly the
    /// §3.1-history membership strong reads rely on. Returns the epoch
    /// assigned. A view registered after the registry was built has no
    /// slot and is not served: nothing is published, no epoch is
    /// consumed, and the latest epoch is returned unchanged.
    ///
    /// Called by the maintainer after every processed event, changed or
    /// not: every call consumes an epoch and pushes a ring entry. If
    /// `state` shares every page with the newest entry, that entry's
    /// `Arc` is pushed again; otherwise `state` is cloned (one pointer
    /// pair per page, a page per 900–2,048 tuples) before the lock is
    /// taken. Readers contend only for the `Arc` peek and the ring push,
    /// never for the maintainer's own locks.
    pub fn publish(&self, view: usize, state: &SignedBag, quiescent: bool) -> u64 {
        let Some(slot) = self.slots.get(view) else {
            return self.latest();
        };
        let epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        let newest = lock(slot).ring.back().map(|(_, rows)| Arc::clone(rows));
        let rows = match newest {
            Some(newest) if newest.shares_every_chunk(state) => newest,
            _ => Arc::new(state.clone()),
        };
        let strong = quiescent.then(|| Arc::clone(&rows));
        let mut slot = lock(slot);
        slot.ring.push_back((epoch, rows));
        // Held until the lock is released: dropping the last reference to
        // a state frees every page and chunk it held alone.
        let _evicted = (slot.ring.len() > self.ring_cap).then(|| slot.ring.pop_front());
        let _displaced = strong.map(|rows| std::mem::replace(&mut slot.strong, (epoch, rows)));
        drop(slot);
        epoch
    }

    /// Serve one read at `level`, honouring the client's monotonicity
    /// floor `min_epoch` (the highest epoch that client has observed
    /// for this view — carried by the client so it survives
    /// reconnects). Returns `None` for an unknown view.
    ///
    /// Under the slot lock only the served entry's `Arc` is cloned; the
    /// [`SignedBag`] clone the snapshot carries (one pointer pair per
    /// page, a page per 900–2,048 tuples) runs on the calling thread
    /// after the lock is released.
    pub fn read(&self, view: usize, level: ReadLevel, min_epoch: u64) -> Option<ReadSnapshot> {
        let (epoch, latest, rows) = {
            let slot = lock(self.slots.get(view)?);
            let (epoch, rows) = match level {
                // Any published epoch: rotate through the ring so the
                // convergent staleness distribution samples the window.
                ReadLevel::Convergent => {
                    let i =
                        self.rotation.fetch_add(1, Ordering::Relaxed) as usize % slot.ring.len();
                    &slot.ring[i]
                }
                // Monotonic per client: the *oldest* published epoch at
                // or above the client's floor — maximal permissible
                // staleness, which is what distinguishes weak from
                // strong in the staleness histograms while keeping
                // epochs non-regressing.
                ReadLevel::Weak => slot
                    .ring
                    .iter()
                    .find(|(e, _)| *e >= min_epoch)
                    .or_else(|| slot.ring.back())?,
                // Latest quiesced epoch: a §3.1-history state, and
                // non-regressing because `strong` only moves forward.
                ReadLevel::Strong => &slot.strong,
            };
            (*epoch, self.latest(), Arc::clone(rows))
        };
        Some(ReadSnapshot {
            epoch,
            latest,
            rows: SignedBag::clone(&rows),
        })
    }

    /// The epoch of view `view`'s latest quiesced snapshot.
    #[cfg(test)]
    fn strong_epoch(&self, view: usize) -> Option<u64> {
        Some(lock(self.slots.get(view)?).strong.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;

    fn bag(n: i64) -> SignedBag {
        SignedBag::from_tuples([Tuple::ints([n])])
    }

    #[test]
    fn initial_state_serves_every_level_at_epoch_zero() {
        let reg = EpochRegistry::new([bag(1), bag(2)], 4);
        assert_eq!(reg.view_count(), 2);
        for level in ReadLevel::all() {
            let snap = reg.read(1, level, 0).unwrap();
            assert_eq!(snap.epoch, 0);
            assert_eq!(snap.rows, bag(2));
        }
        assert!(reg.read(2, ReadLevel::Weak, 0).is_none());
    }

    #[test]
    fn strong_tracks_only_quiescent_publications() {
        let reg = EpochRegistry::new([bag(0)], 4);
        let e1 = reg.publish(0, &bag(1), false); // mid-compensation
        assert_eq!(reg.read(0, ReadLevel::Strong, 0).unwrap().epoch, 0);
        let e2 = reg.publish(0, &bag(2), true);
        assert!(e2 > e1);
        let snap = reg.read(0, ReadLevel::Strong, 0).unwrap();
        assert_eq!(snap.epoch, e2);
        assert_eq!(snap.rows, bag(2));
        assert_eq!(reg.strong_epoch(0), Some(e2));
    }

    #[test]
    fn weak_honours_the_client_floor() {
        let reg = EpochRegistry::new([bag(0)], 8);
        let mut epochs = vec![0];
        for i in 1..=5 {
            epochs.push(reg.publish(0, &bag(i), true));
        }
        // Floor 0: the oldest ring entry (maximal staleness).
        assert_eq!(reg.read(0, ReadLevel::Weak, 0).unwrap().epoch, 0);
        // A floor mid-window: never served below it.
        let floor = epochs[3];
        let snap = reg.read(0, ReadLevel::Weak, floor).unwrap();
        assert!(snap.epoch >= floor);
        assert_eq!(snap.rows, bag(3));
    }

    #[test]
    fn a_served_snapshot_is_untouched_by_later_publishes() {
        // The publisher keeps writing to the bag it published from, as a
        // maintainer does; a reader holding an earlier snapshot shares
        // storage with it and must still see the state at its epoch.
        let initial = || (0..500).map(|i| Tuple::ints([i])).collect::<SignedBag>();
        let mut state = initial();
        let reg = EpochRegistry::new([state.clone()], 2);
        let snap = reg.read(0, ReadLevel::Strong, 0).unwrap();
        for i in 0..40 {
            state.add(Tuple::ints([i * 13]), -1);
            state.add(Tuple::ints([1000 + i]), 1);
            reg.publish(0, &state, true);
        }
        assert_eq!(snap.epoch, 0);
        assert_eq!(snap.rows, initial());
        // Epoch 0 has long left the 2-deep ring; the newest read differs.
        let newest = reg.read(0, ReadLevel::Strong, 0).unwrap();
        assert_eq!(newest.rows, state);
        assert_ne!(newest.rows, snap.rows);
    }

    /// A deterministic xorshift stream for the model test.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// What the maintainer did to its bag before one publish.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Step {
        /// Nothing: the event left the view as it was.
        Unchanged,
        /// A real change of content.
        Changed,
        /// A write that restored the content: equal, but not the same
        /// pages, so it is published as a new snapshot.
        Rewritten,
    }

    /// The registry as it was before publication by reference: a clone of
    /// the state per ring entry and one for the strong slot.
    struct Model {
        cap: usize,
        ring: Vec<(u64, SignedBag)>,
        strong: (u64, SignedBag),
        rotation: usize,
        latest: u64,
    }

    impl Model {
        fn publish(&mut self, state: &SignedBag, quiescent: bool) {
            self.latest += 1;
            self.ring.push((self.latest, state.clone()));
            if self.ring.len() > self.cap {
                self.ring.remove(0);
            }
            if quiescent {
                self.strong = (self.latest, state.clone());
            }
        }

        fn read(&mut self, level: ReadLevel, floor: u64) -> (u64, u64, SignedBag) {
            let (epoch, rows) = match level {
                ReadLevel::Convergent => {
                    self.rotation += 1;
                    self.ring[(self.rotation - 1) % self.ring.len()].clone()
                }
                ReadLevel::Weak => self
                    .ring
                    .iter()
                    .find(|(e, _)| *e >= floor)
                    .or_else(|| self.ring.last())
                    .cloned()
                    .unwrap(),
                ReadLevel::Strong => self.strong.clone(),
            };
            (epoch, self.latest, rows)
        }
    }

    /// One seeded run of 80 publishes, each followed by a read at every
    /// level and floor, checked against the model.
    fn run_against_model(cap: usize, seed: u64) {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut state: SignedBag = (0..300).map(|i| Tuple::ints([i * 3])).collect();
        let reg = EpochRegistry::new([state.clone()], cap);
        let mut model = Model {
            cap,
            ring: vec![(0, state.clone())],
            strong: (0, state.clone()),
            rotation: 0,
            latest: 0,
        };
        for _ in 0..80 {
            let step = [Step::Unchanged, Step::Changed, Step::Rewritten][rng.below(3) as usize];
            let key = Tuple::ints([rng.below(1_000) as i64]);
            match step {
                Step::Unchanged => {}
                Step::Changed => state.add(key, 1 - 2 * rng.below(2) as i64),
                Step::Rewritten => {
                    state.add(key.clone(), 1);
                    state.add(key, -1);
                }
            }
            let quiescent = rng.below(2) == 0;
            let before = Arc::clone(&lock(&reg.slots[0]).ring.back().unwrap().1);
            assert_eq!(reg.publish(0, &state, quiescent), model.latest + 1);
            model.publish(&state, quiescent);

            let slot = lock(&reg.slots[0]);
            let newest = &slot.ring.back().unwrap().1;
            assert_eq!(Arc::ptr_eq(&before, newest), step == Step::Unchanged);
            let ring: Vec<_> = slot.ring.iter().map(|(e, r)| (*e, (**r).clone())).collect();
            assert_eq!(ring, model.ring, "cap {cap}, seed {seed}");
            assert_eq!(slot.strong.0, model.strong.0);
            if let Some((_, entry)) = slot.ring.iter().find(|(e, _)| *e == slot.strong.0) {
                assert!(Arc::ptr_eq(entry, &slot.strong.1));
            }
            drop(slot);

            let floors = [0, model.ring[0].0, model.latest, model.latest + 1];
            for (level, floor) in ReadLevel::all()
                .into_iter()
                .flat_map(|l| floors.map(|f| (l, f)))
            {
                let snap = reg.read(0, level, floor).unwrap();
                let (epoch, latest, rows) = model.read(level, floor);
                assert_eq!((snap.epoch, snap.latest), (epoch, latest));
                assert_eq!(snap.rows, rows, "{level:?} at floor {floor}");
            }
        }
    }

    #[test]
    fn serves_exactly_what_a_clone_per_publish_registry_served() {
        for cap in [1, 2, 8] {
            for seed in 1..=6 {
                run_against_model(cap, seed);
            }
        }
    }

    #[test]
    fn ring_stays_bounded_and_convergent_rotates() {
        let reg = EpochRegistry::new([bag(0)], 3);
        for i in 1..=10 {
            reg.publish(0, &bag(i), i % 2 == 0);
        }
        assert_eq!(reg.latest(), 10);
        // Convergent reads cycle through at most ring_cap distinct epochs.
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..12 {
            seen.insert(reg.read(0, ReadLevel::Convergent, 0).unwrap().epoch);
        }
        assert!(seen.len() <= 3, "ring leaked: {seen:?}");
        assert!(seen.contains(&10));
        // Staleness metadata is consistent.
        let snap = reg.read(0, ReadLevel::Weak, 0).unwrap();
        assert!(snap.latest >= snap.epoch);
    }
}
