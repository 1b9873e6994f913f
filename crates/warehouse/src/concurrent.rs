//! The thread-per-source driver: one pump thread per source.
//!
//! The paper's premise (§1, Figure 1.1) is that sources are autonomous —
//! nothing synchronizes update streams arriving from different sites, and
//! §7 observes that with single-source views "ECA is simply applied to
//! each view separately". That independence is exactly what this module
//! exploits: warehouse state is already one shard per source, so
//! [`Warehouse::into_concurrent`] only puts each shard behind its own
//! lock and pump threads progress without ever contending — the lock is
//! the fallback that would serialize access if a future view spanned
//! sources (none do today; see DESIGN.md §9).
//!
//! Correctness needs no cross-source ordering: ECA's §3 argument relies
//! only on per-channel FIFO delivery of `W_up`/`W_ans` events, which each
//! pump thread preserves by construction (it is the only consumer of its
//! transport, and it applies events in arrival order under the shard
//! lock). The deterministic single-threaded [`Warehouse`] remains the
//! default for the simulator and all golden traces; this driver is for
//! wall-clock throughput.

use std::sync::Mutex;

use eca_wire::Transport;

use crate::shard::{self, Shard};
use crate::{SourceId, Warehouse, WarehouseError};

/// A warehouse's shards behind per-source locks, plus the lock-free
/// tables beside them — what both threaded drivers are built on.
pub(crate) struct ShardSet {
    pub(crate) names: Vec<String>,
    pub(crate) shards: Vec<Mutex<Shard>>,
    /// Global [`crate::ViewId`] → (shard, shard-local index).
    pub(crate) view_index: Vec<(usize, usize)>,
}

impl ShardSet {
    /// The lock around `source`'s shard.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`] for an unregistered handle.
    pub(crate) fn shard(&self, source: SourceId) -> Result<&Mutex<Shard>, WarehouseError> {
        Ok(&self.shards[shard::checked(source, self.shards.len())?])
    }
}

impl Warehouse {
    /// Put every shard behind its own lock. Nothing is reshaped:
    /// sessions, in-flight queries, degraded views, logs and serving
    /// slots are the same objects the serial driver was using.
    pub(crate) fn into_shards(self) -> ShardSet {
        ShardSet {
            names: self.names,
            shards: self.shards.into_iter().map(Mutex::new).collect(),
            view_index: self.view_index,
        }
    }
}

/// The result accessors the two threaded drivers share, generated once
/// for each over its `set: ShardSet` field.
macro_rules! shard_set_accessors {
    ($driver:ty) => {
        impl $driver {
            /// Number of source shards.
            pub fn source_count(&self) -> usize {
                self.set.shards.len()
            }

            /// The name a source was registered under.
            pub fn source_name(&self, source: $crate::SourceId) -> &str {
                &self.set.names[source.0]
            }

            /// The current materialized state of a view (cloned out of
            /// its shard).
            pub fn materialized(&self, view: $crate::ViewId) -> eca_relational::SignedBag {
                let (shard, local) = self.set.view_index[view.0];
                let shard = $crate::lock(&self.set.shards[shard]);
                shard.views[local].maintainer.materialized().clone()
            }

            /// Every `MV` state a view passed through, starting with its
            /// initial state — the warehouse half of the §3.1
            /// consistency check.
            pub fn view_states(&self, view: $crate::ViewId) -> Vec<eca_relational::SignedBag> {
                let (shard, local) = self.set.view_index[view.0];
                $crate::lock(&self.set.shards[shard]).views[local]
                    .states
                    .clone()
            }

            /// Whether every shard is quiescent.
            pub fn is_quiescent(&self) -> bool {
                self.set
                    .shards
                    .iter()
                    .all(|s| $crate::lock(s).is_quiescent())
            }

            /// Force every shard's buffered WAL records to disk
            /// regardless of the fsync policy (clean-shutdown helper).
            /// No-op without durability.
            ///
            /// # Errors
            /// [`WarehouseError::Durability`](crate::WarehouseError::Durability)
            /// on filesystem failures.
            pub fn sync_durability(&self) -> Result<(), $crate::WarehouseError> {
                self.set
                    .shards
                    .iter()
                    .try_for_each(|s| $crate::lock(s).sync_durability())
            }
        }
    };
}
pub(crate) use shard_set_accessors;

/// A warehouse whose per-source state lives behind per-source locks so
/// one pump thread per source can run maintenance concurrently.
///
/// Build one with [`Warehouse::into_concurrent`], drive it with
/// [`ConcurrentWarehouse::pump_all`] (or [`ConcurrentWarehouse::pump`]
/// from threads you manage yourself), then read results through the same
/// accessors the serial runtime offers.
pub struct ConcurrentWarehouse {
    pub(crate) set: ShardSet,
    /// Longest silence a pump tolerates while its shard has queries
    /// outstanding before declaring the source stalled.
    stall_timeout: std::time::Duration,
}

impl Warehouse {
    /// Hand this warehouse's shards to the thread-per-source driver.
    ///
    /// Sessions, in-flight queries, degraded-view states and durability
    /// all carry over untouched, so this is sound mid-traffic —
    /// including right after [`Warehouse::recover_durability`], while
    /// resyncs are still outstanding.
    pub fn into_concurrent(self) -> ConcurrentWarehouse {
        ConcurrentWarehouse {
            set: self.into_shards(),
            stall_timeout: std::time::Duration::from_secs(30),
        }
    }
}

shard_set_accessors!(ConcurrentWarehouse);

impl ConcurrentWarehouse {
    /// Change the pump stall timeout (default 30 s): the longest silence
    /// a pump thread tolerates while queries are outstanding before it
    /// gives up with [`WarehouseError::SourceStalled`]. Tests drop this
    /// to milliseconds so a wedged peer fails fast instead of hanging
    /// the suite.
    pub fn set_stall_timeout(&mut self, timeout: std::time::Duration) {
        self.stall_timeout = timeout;
    }

    /// Pump one source's transport until `expected_notifications` update
    /// notifications have arrived *and* the shard is quiescent. Blocks on
    /// `recv`; intended to run on its own thread, one per source — which
    /// is exactly what [`ConcurrentWarehouse::pump_all`] arranges.
    ///
    /// Answer payloads are **not** charged to the transport meter here:
    /// concurrent deployments meter each link once, on the source side
    /// (`Source::serve`/`serve_pool` record them), because both ends of a
    /// [`eca_wire::SharedFifo`] share one meter.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`] for an unregistered handle;
    /// [`WarehouseError::SourceHungUp`] if the peer disconnects before
    /// the shard settles; [`WarehouseError::SourceStalled`] if nothing
    /// arrives for a full stall timeout while the shard is unsettled (a
    /// wedged channel must not hang the pump thread forever — see
    /// [`ConcurrentWarehouse::set_stall_timeout`]); transport, routing
    /// and maintainer failures.
    pub fn pump(
        &self,
        source: SourceId,
        transport: &mut dyn Transport,
        expected_notifications: u64,
    ) -> Result<u64, WarehouseError> {
        shard::pump_until_settled(
            self.set.shard(source)?,
            source,
            transport,
            expected_notifications,
            self.stall_timeout,
            false,
        )
    }

    /// Spawn one pump thread per endpoint and drive every source to
    /// completion. `endpoints` pairs each source with its transport and
    /// the number of update notifications to expect (the count of
    /// *effective* updates in that source's script). Returns the total
    /// number of messages processed.
    ///
    /// # Errors
    /// [`WarehouseError::UnknownSource`], before any thread is spawned,
    /// if an endpoint names an unregistered source; otherwise the first
    /// error any pump thread hit.
    pub fn pump_all(
        &self,
        endpoints: Vec<(SourceId, Box<dyn Transport + Send>, u64)>,
    ) -> Result<u64, WarehouseError> {
        for (source, ..) in &endpoints {
            self.set.shard(*source)?;
        }
        let results: Vec<Result<u64, WarehouseError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = endpoints
                .into_iter()
                .map(|(source, mut transport, expected)| {
                    scope.spawn(move || self.pump(source, transport.as_mut(), expected))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        let mut total = 0u64;
        for r in results {
            total += r?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_core::algorithms::AlgorithmKind;
    use eca_core::{BaseDb, ViewDef};
    use eca_relational::{Predicate, Schema, Tuple, Update};
    use eca_wire::{Message, SharedFifo, TransferMeter};

    fn view_def(name: &str, r1: &str, r2: &str) -> ViewDef {
        ViewDef::new(
            name,
            vec![Schema::new(r1, &["W", "X"]), Schema::new(r2, &["X", "Y"])],
            Predicate::col_eq(1, 2),
            vec![0],
        )
        .unwrap()
    }

    /// Two sources, one view each, pumped by two threads over SharedFifo
    /// links with scripted "sources" on the far end: both views converge
    /// and the runtime reports quiescence.
    #[test]
    fn two_source_pump_converges() {
        let mut wh = Warehouse::new();
        let mut dbs = Vec::new();
        let mut views = Vec::new();
        let mut ids = Vec::new();
        for s in 0..2usize {
            let src = wh.add_source(format!("s{s}"));
            let (r1, r2) = (format!("q{s}_1"), format!("q{s}_2"));
            let view = view_def(&format!("V{s}"), &r1, &r2);
            let mut db = BaseDb::new();
            db.register(&r1);
            db.register(&r2);
            db.insert(&r1, Tuple::ints([1, 2]));
            let initial = view.eval(&db).unwrap();
            let id = wh
                .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
                .unwrap();
            dbs.push(db);
            views.push(view);
            ids.push((src, id));
        }
        let cw = wh.into_concurrent();

        std::thread::scope(|scope| {
            let mut endpoints = Vec::new();
            for (s, db) in dbs.iter_mut().enumerate() {
                let (mut src_end, wh_end) = SharedFifo::pair(TransferMeter::new());
                let (r1, r2) = (format!("q{s}_1"), format!("q{s}_2"));
                let updates = vec![
                    Update::insert(&r2, Tuple::ints([2, 3])),
                    Update::insert(&r1, Tuple::ints([4, 2])),
                ];
                endpoints.push((
                    SourceId(s),
                    Box::new(wh_end) as Box<dyn Transport + Send>,
                    updates.len() as u64,
                ));
                scope.spawn(move || {
                    // Scripted source: apply + notify, then answer every
                    // query on the *final* state (AllUpdatesFirst).
                    for u in &updates {
                        db.apply(u);
                        src_end
                            .send(&Message::UpdateNotification { update: u.clone() })
                            .unwrap();
                    }
                    let catalog =
                        vec![Schema::new(&r1, &["W", "X"]), Schema::new(&r2, &["X", "Y"])];
                    while let Some(msg) = src_end.recv().unwrap() {
                        let Message::QueryRequest { id, query } = msg else {
                            panic!("unexpected message at source");
                        };
                        let answer = query.to_query(&catalog).unwrap().eval(db).unwrap();
                        src_end.send(&Message::QueryAnswer { id, answer }).unwrap();
                    }
                });
            }
            cw.pump_all(endpoints).unwrap();
            // Dropping the endpoints hangs up the scripted sources.
        });

        assert!(cw.is_quiescent());
        for (s, (_, id)) in ids.iter().enumerate() {
            assert_eq!(cw.materialized(*id), views[s].eval(&dbs[s]).unwrap());
        }
    }

    /// Sessions carry over to both threaded drivers untouched: a query
    /// put in flight on the serial warehouse is answered through its
    /// shard afterwards — same global id, same epoch, same shard-local
    /// route — and the view converges.
    #[test]
    fn into_concurrent_carries_in_flight_sessions() {
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        db.insert("r1", Tuple::ints([1, 2]));
        let u = Update::insert("r2", Tuple::ints([2, 3]));
        // A serial warehouse one reset in (epoch 1), with one query in
        // flight: returns it with the handles and the carried query.
        let in_flight = || {
            let mut wh = Warehouse::new();
            let src = wh.add_source("s");
            let initial = view.eval(&db).unwrap();
            let id = wh
                .add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
                .unwrap();
            assert!(wh.on_reset(src, false).unwrap().is_empty());
            let mut qs = wh.on_update(src, &u).unwrap();
            assert_eq!((qs.len(), wh.epoch(src)), (1, 1));
            (wh, src, id, qs.remove(0))
        };
        let mut after = db.clone();
        after.apply(&u);
        // Answer the carried query straight through the driver's shard.
        let answer_carried =
            |set: &ShardSet, src: SourceId, q: &eca_core::maintainer::OutboundQuery| {
                let mut shard = crate::lock(set.shard(src).unwrap());
                assert_eq!(shard.session.epoch(), 1);
                assert_eq!(shard.session.oldest_pending(), Some(q.id));
                let answer = q.query.eval(&after).unwrap();
                assert!(shard.on_answer(q.id, answer).unwrap().is_empty());
            };

        let (wh, src, id, q) = in_flight();
        let cw = wh.into_concurrent();
        assert!(!cw.is_quiescent(), "the in-flight query survived");
        answer_carried(&cw.set, src, &q);
        assert!(cw.is_quiescent());
        assert_eq!(cw.materialized(id), view.eval(&after).unwrap());

        let (wh, src, id, q) = in_flight();
        let rw = wh.into_reactor(2);
        assert!(!rw.is_quiescent(), "the in-flight query survived");
        answer_carried(&rw.set, src, &q);
        assert!(rw.is_quiescent());
        assert_eq!(rw.materialized(id), view.eval(&after).unwrap());
    }

    /// A handle the warehouse never issued is a typed error on the
    /// pump paths, raised before any thread is spawned or any message
    /// read — not an index panic.
    #[test]
    fn unregistered_source_is_a_typed_error() {
        let mut wh = Warehouse::new();
        wh.add_source("s");
        let cw = wh.into_concurrent();
        let (_src_end, mut wh_end) = SharedFifo::pair(TransferMeter::new());
        assert!(matches!(
            cw.pump(SourceId(7), &mut wh_end, 1),
            Err(WarehouseError::UnknownSource { id: 7 })
        ));
        assert!(matches!(
            cw.pump_all(vec![(SourceId(7), Box::new(wh_end), 1)]),
            Err(WarehouseError::UnknownSource { id: 7 })
        ));
    }

    #[test]
    fn early_hangup_is_an_error() {
        let mut wh = Warehouse::new();
        let src = wh.add_source("s");
        let view = view_def("V", "r1", "r2");
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        let initial = view.eval(&db).unwrap();
        wh.add_view(src, AlgorithmKind::Eca.instantiate(&view, initial).unwrap())
            .unwrap();
        let cw = wh.into_concurrent();
        let (src_end, mut wh_end) = SharedFifo::pair(TransferMeter::new());
        drop(src_end); // peer gone before any notification
        assert!(matches!(
            cw.pump(src, &mut wh_end, 1),
            Err(WarehouseError::SourceHungUp { source: 0 })
        ));
    }
}
