//! Durable warehouse state: WAL hooks, quiescent checkpoints, crash
//! recovery.
//!
//! A [`Warehouse`] can be given a disk via
//! [`Warehouse::enable_durability`]: every committed maintenance event
//! on a source channel — applied update notifications, applied answers
//! (by session-global id), epoch bumps — is appended to
//! that channel's write-ahead log (`eca-durable`), and a checkpoint of
//! view bags + session counters is cut at the first quiescent point
//! after every [`eca_durable::DurabilityConfig::checkpoint_every`]
//! events. The log belongs to the channel's shard, so it keeps being
//! written, unchanged, under [`Warehouse::into_reactor`].
//!
//! Because per-source processing is single-threaded and deterministic
//! (sequential global ids, deterministic maintainer emissions), the log
//! records only *inputs*: [`Warehouse::recover_durability`] replays them
//! through the ordinary `on_update`/`on_answer`/`on_reset` paths and
//! re-derives every view bag, every pending route and every id exactly,
//! discarding the outbound queries regenerated along the way (they were
//! already on the wire before the crash). A torn or corrupt log tail is
//! truncated at the last valid record; an unusable checkpoint or log
//! falls back to the paper's §4 story — degrade every view and resync
//! from a fresh `V(ss)` ([`RecoveryOutcome::Full`]).
//!
//! Checkpoint/log pairing is by *generation*: cutting a checkpoint
//! names a fresh WAL generation and the old log file is deleted, so a
//! crash between "checkpoint written" and "old log removed" can never
//! replay pre-checkpoint records on top of the new checkpoint.

use std::collections::VecDeque;

use eca_core::QueryId;
use eca_durable::{
    DurabilityConfig, DurableError, SourceCheckpoint, ViewCheckpoint, Wal, WalRecord, WalScan,
};
use eca_wire::Message;

use crate::shard::Shard;
use crate::{SourceId, ViewStatus, Warehouse, WarehouseError};

/// Durable bookkeeping for one source channel, owned by its shard.
pub(crate) struct SourceDurability {
    config: DurabilityConfig,
    source: usize,
    wal: Wal,
    /// Generation of the WAL currently appended to; the on-disk
    /// checkpoint (if any) names the generation it pairs with.
    gen: u64,
    records_since_checkpoint: u64,
    /// A baseline checkpoint is still owed (durability enabled or a
    /// full-fallback recovery happened while the channel was not
    /// quiescent): cut one at the first quiescent point regardless of
    /// cadence. Until it lands, a crash recovers via the full path.
    needs_baseline: bool,
    /// The channel's notification watermark as of the last record a
    /// completed sync covers (or the checkpoint cut): what a crash cannot
    /// take back, so what the warehouse may acknowledge to the source.
    synced_watermark: u64,
    /// Sync requests not yet seen complete, oldest first, each with the
    /// watermark of the last record it covers.
    requests: VecDeque<(u64, u64)>,
}

impl SourceDurability {
    /// Wipe any previous durable state of `source` and start a fresh
    /// generation-0 log. The caller owes a baseline checkpoint.
    fn fresh(config: &DurabilityConfig, source: usize) -> Result<Self, DurableError> {
        let _ = std::fs::remove_file(config.checkpoint_path(source));
        config.remove_stale_wals(source, u64::MAX);
        let wal = Wal::open(config.wal_path(source, 0), config.fsync)?;
        Ok(SourceDurability {
            config: config.clone(),
            source,
            wal,
            gen: 0,
            records_since_checkpoint: 0,
            needs_baseline: true,
            synced_watermark: 0,
            requests: VecDeque::new(),
        })
    }

    /// Resume appending to an existing generation after recovery, at the
    /// end of the valid frames `scan` found in it (a torn tail is cut
    /// there; the file is not read again). The `replayed` records already
    /// in the file count against the checkpoint cadence; `watermark` is
    /// the recovered, hence durable, notification watermark.
    fn resume(
        config: &DurabilityConfig,
        source: usize,
        gen: u64,
        scan: &WalScan,
        replayed: u64,
        watermark: u64,
    ) -> Result<Self, DurableError> {
        let wal = Wal::resume(config.wal_path(source, gen), config.fsync, scan)?;
        config.remove_stale_wals(source, gen);
        Ok(SourceDurability {
            config: config.clone(),
            source,
            wal,
            gen,
            records_since_checkpoint: replayed,
            needs_baseline: false,
            synced_watermark: watermark,
            requests: VecDeque::new(),
        })
    }

    /// Append `record`, logged at notification watermark `watermark`. At
    /// a policy point the log requests a sync of it, which this pairs
    /// with `watermark`; nothing here waits for the sync.
    pub(crate) fn log(&mut self, record: &WalRecord, watermark: u64) -> Result<(), DurableError> {
        self.wal.append(record)?;
        self.records_since_checkpoint += 1;
        if self.wal.buffered() == 0 {
            self.settle_completed();
            self.requests.push_back((self.wal.requested(), watermark));
        }
        Ok(())
    }

    /// Move `synced_watermark` over every request whose sync completed.
    fn settle_completed(&mut self) {
        let synced = self.wal.synced();
        while let Some(&(request, watermark)) = self.requests.front() {
            if request > synced {
                break;
            }
            self.synced_watermark = watermark;
            self.requests.pop_front();
        }
    }

    /// The watermark of the newest record a completed sync covers.
    pub(crate) fn ack_watermark(&self) -> u64 {
        let synced = self.wal.synced();
        self.requests
            .iter()
            .take_while(|(request, _)| *request <= synced)
            .last()
            .map_or(self.synced_watermark, |(_, watermark)| *watermark)
    }

    /// Wait for every sync requested so far, so the ack watermark covers
    /// every record written at a policy point.
    pub(crate) fn wait_requested(&mut self) -> Result<(), DurableError> {
        self.wal.wait_synced(self.wal.requested())?;
        self.settle_completed();
        Ok(())
    }

    pub(crate) fn due_for_checkpoint(&self) -> bool {
        self.needs_baseline || self.records_since_checkpoint >= self.config.checkpoint_every
    }

    /// Install `ckpt` as the new durable baseline and rotate to a fresh
    /// WAL generation. `ckpt.wal_gen` must be `self.gen + 1` (the
    /// generation the checkpoint will pair with).
    pub(crate) fn cut(&mut self, ckpt: &SourceCheckpoint) -> Result<(), DurableError> {
        debug_assert_eq!(ckpt.wal_gen, self.gen + 1);
        ckpt.write(&self.config.checkpoint_path(self.source))?;
        let fresh = Wal::open(
            self.config.wal_path(self.source, ckpt.wal_gen),
            self.config.fsync,
        )?;
        self.wal = fresh;
        let _ = std::fs::remove_file(self.config.wal_path(self.source, self.gen));
        self.gen = ckpt.wal_gen;
        self.records_since_checkpoint = 0;
        self.needs_baseline = false;
        self.synced_watermark = ckpt.notifications_applied;
        self.requests.clear();
        Ok(())
    }

    /// The generation a cut made *now* would pair with.
    pub(crate) fn next_gen(&self) -> u64 {
        self.gen + 1
    }

    /// Force buffered records, logged up to notification watermark
    /// `watermark`, to disk regardless of policy (clean shutdown).
    pub(crate) fn sync(&mut self, watermark: u64) -> Result<(), DurableError> {
        self.wal.sync()?;
        self.synced_watermark = watermark;
        self.requests.clear();
        Ok(())
    }
}

/// How one source channel came back from a crash.
#[derive(Debug)]
pub enum RecoveryOutcome {
    /// Checkpoint + log tail replayed: sessions are back at the correct
    /// epoch with the pre-crash in-flight queries pending, and the
    /// channel only needs the source to re-send notifications past the
    /// watermark plus answers to the re-issued queries.
    Incremental {
        /// The recovered channel.
        source: SourceId,
        /// WAL records replayed on top of the checkpoint.
        replayed: u64,
        /// Update notifications durably accounted for — the source
        /// resumes its outbox *from this index on* (per-channel FIFO:
        /// re-sends precede answers to the re-issued queries).
        notifications_seen: u64,
        /// Query messages to put on the fresh channel (in-flight work
        /// re-issued under the post-recovery epoch).
        messages: Vec<Message>,
    },
    /// Checkpoint or log unusable (missing, damaged, or inconsistent
    /// with the deployment): the paper's §4 fallback. Every view over
    /// the source is degraded and resyncs from a fresh `V(ss)`.
    Full {
        /// The recovered channel.
        source: SourceId,
        /// Resync query messages to put on the fresh channel.
        messages: Vec<Message>,
    },
}

impl RecoveryOutcome {
    /// The channel this outcome describes.
    pub fn source(&self) -> SourceId {
        match self {
            RecoveryOutcome::Incremental { source, .. } | RecoveryOutcome::Full { source, .. } => {
                *source
            }
        }
    }

    /// Whether the channel recovered incrementally (checkpoint + log).
    pub fn is_incremental(&self) -> bool {
        matches!(self, RecoveryOutcome::Incremental { .. })
    }

    /// The query messages to send on the fresh channel.
    pub fn messages(&self) -> &[Message] {
        match self {
            RecoveryOutcome::Incremental { messages, .. }
            | RecoveryOutcome::Full { messages, .. } => messages,
        }
    }
}

/// Per-source recovery plan assembled from the on-disk state before any
/// warehouse state is touched.
enum Plan {
    /// The checkpoint and the one scan of the log it pairs with: its
    /// records to replay, and where appends resume.
    Incremental {
        ckpt: SourceCheckpoint,
        scan: WalScan,
    },
    Full,
}

impl Plan {
    /// Read source `s`'s checkpoint and log tail and decide how a
    /// channel hosting `views` views can come back.
    fn read(config: &DurabilityConfig, s: usize, views: usize) -> Result<Plan, WarehouseError> {
        let loaded = match SourceCheckpoint::load(&config.checkpoint_path(s)) {
            Ok(loaded) => loaded,
            Err(DurableError::Io(e)) => return Err(DurableError::Io(e).into()),
            // Checksum-valid but undecodable: version skew — fall
            // back rather than brick the restart.
            Err(_) => None,
        };
        let Some(ckpt) = loaded.filter(|ckpt| ckpt.views.len() == views) else {
            return Ok(Plan::Full);
        };
        let wal_path = config.wal_path(s, ckpt.wal_gen);
        // An undecodable record past a valid checksum is version skew
        // too: the log cannot be trusted.
        let Ok(scan) = Wal::scan(&wal_path) else {
            return Ok(Plan::Full);
        };
        Ok(Plan::Incremental { ckpt, scan })
    }
}

impl Shard {
    /// Append one committed event to the channel's log (no-op without
    /// durability), then cut a checkpoint if one is due and the channel
    /// is quiescent.
    pub(crate) fn log_event(
        &mut self,
        record: impl FnOnce() -> WalRecord,
    ) -> Result<(), WarehouseError> {
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        d.log(&record(), self.notifications_seen)?;
        self.maybe_checkpoint()
    }

    /// Cut a checkpoint if one is due and the channel is quiescent
    /// (nothing pending, every view active and settled — so no in-flight
    /// compensation state needs serializing).
    fn maybe_checkpoint(&mut self) -> Result<(), WarehouseError> {
        let due = self
            .durability
            .as_ref()
            .is_some_and(SourceDurability::due_for_checkpoint);
        if !due || !self.is_quiescent() {
            return Ok(());
        }
        let Some(d) = &mut self.durability else {
            return Ok(());
        };
        d.cut(&SourceCheckpoint {
            epoch: self.session.epoch(),
            next_global_id: self.session.next_global_id(),
            notifications_applied: self.notifications_seen,
            wal_gen: d.next_gen(),
            views: self
                .views
                .iter()
                .map(|v| ViewCheckpoint {
                    mv: v.maintainer.materialized().clone(),
                    aux: v.maintainer.checkpoint_aux(),
                })
                .collect(),
        })?;
        Ok(())
    }

    /// Force buffered WAL records to disk regardless of policy (clean
    /// shutdown). No-op without durability.
    pub(crate) fn sync_durability(&mut self) -> Result<(), WarehouseError> {
        if let Some(d) = &mut self.durability {
            d.sync(self.notifications_seen)?;
        }
        Ok(())
    }

    /// The notification watermark this channel may acknowledge to its
    /// source: everything applied on a volatile channel, everything a
    /// completed sync of the log covers (or a checkpoint holds) on a
    /// durable one — never more than a crash would recover.
    pub(crate) fn ack_watermark(&self) -> u64 {
        self.durability
            .as_ref()
            .map_or(self.notifications_seen, SourceDurability::ack_watermark)
    }

    /// Bring this channel back per `plan`: restore + replay, resume (or
    /// restart) the durable lineage, then reset the channel — the crash
    /// killed the connection — so an incremental channel re-issues its
    /// in-flight queries and an unusable one degrades to full resyncs.
    fn recover(
        &mut self,
        config: &DurabilityConfig,
        source: SourceId,
        plan: Plan,
    ) -> Result<RecoveryOutcome, WarehouseError> {
        // Replay runs with no log installed: the events it applies are
        // the ones already in the log being replayed.
        let resumed = match plan {
            Plan::Incremental { ckpt, mut scan } => {
                let records = std::mem::take(&mut scan.records);
                let (gen, replayed) = (ckpt.wal_gen, records.len() as u64);
                if self.restore_and_replay(ckpt, records) {
                    Some((gen, scan, replayed))
                } else {
                    // Partial replay may have left garbage: restart the
                    // durable lineage and let the resync overwrite the
                    // in-memory state wholesale.
                    self.restart_history();
                    None
                }
            }
            Plan::Full => None,
        };
        self.durability = Some(match &resumed {
            Some((gen, scan, replayed)) => SourceDurability::resume(
                config,
                source.0,
                *gen,
                scan,
                *replayed,
                self.notifications_seen,
            )?,
            None => SourceDurability::fresh(config, source.0)?,
        });
        let messages = self.on_reset(resumed.is_none())?;
        Ok(match resumed {
            Some((_, _, replayed)) => RecoveryOutcome::Incremental {
                source,
                replayed,
                notifications_seen: self.notifications_seen,
                messages,
            },
            None => RecoveryOutcome::Full { source, messages },
        })
    }

    /// Restore the channel from `ckpt` and replay `records` through the
    /// ordinary event handlers (outbound queries discarded — they were
    /// on the wire before the crash). Returns `false` on any mismatch.
    fn restore_and_replay(&mut self, ckpt: SourceCheckpoint, records: Vec<WalRecord>) -> bool {
        self.session
            .restore_durable(ckpt.epoch, ckpt.next_global_id);
        self.notifications_seen = ckpt.notifications_applied;
        for (entry, vck) in self.views.iter_mut().zip(ckpt.views) {
            if entry
                .maintainer
                .restore_checkpoint(vck.mv, vck.aux)
                .is_err()
            {
                return false;
            }
            entry.status = ViewStatus::Active;
        }
        self.restart_history();
        records.into_iter().all(|record| match record {
            WalRecord::Update(update) => self.on_update(&update).is_ok(),
            WalRecord::Answer { id, answer } => self.on_answer(QueryId(id), answer).is_ok(),
            WalRecord::EpochBump { notifications_lost } => {
                self.on_reset(notifications_lost).is_ok()
            }
        })
    }
}

impl Warehouse {
    /// Whether durability is enabled.
    fn durability_enabled(&self) -> bool {
        self.shards.iter().any(|s| s.durability.is_some())
    }

    /// Update notifications applied on `source`'s channel over its
    /// whole life — the watermark the source's outbox resumes from after
    /// a reset or a crash.
    pub fn notifications_seen(&self, source: SourceId) -> u64 {
        self.shards[source.0].notifications_seen
    }

    /// The notification watermark `source`'s channel may acknowledge, so
    /// the source can trim its outbox: [`Warehouse::notifications_seen`]
    /// on a volatile warehouse, and on a durable one only as far as a
    /// completed sync of the log covers records (written per its
    /// [`eca_durable::FsyncPolicy`]) or a checkpoint holds them. It does
    /// not wait for a sync in flight.
    pub fn ack_watermark(&self, source: SourceId) -> u64 {
        self.shards[source.0].ack_watermark()
    }

    /// The [`Message::Ack`] of [`Warehouse::ack_watermark`], or `None`
    /// when it has not advanced since the last ack on this connection;
    /// [`Warehouse::on_reset`] (so every recovery) re-arms it. On a
    /// durable warehouse it first waits for the log syncs already
    /// requested, so the ack covers every record written at a policy
    /// point, as if the maintainer had synced them itself. Panics on an
    /// unregistered handle, as [`Warehouse::ack_watermark`] does.
    ///
    /// # Errors
    /// [`WarehouseError::Durability`] if a sync of the log failed.
    pub fn ack(&mut self, source: SourceId) -> Result<Option<Message>, WarehouseError> {
        self.shards[source.0].ack()
    }

    /// Turn on durability: every source channel gets a write-ahead log
    /// under `config.dir` and a baseline checkpoint (cut immediately if
    /// the channel is quiescent, else at its first quiescent point).
    /// Any durable state already in `config.dir` is wiped — this call
    /// starts a new durable lineage; use
    /// [`Warehouse::recover_durability`] to *resume* one.
    ///
    /// Fault-free behaviour is unchanged: logging touches neither
    /// transports nor meters nor scheduling, so runs stay meter- and
    /// trace-identical to the same deployment without durability.
    ///
    /// # Panics
    /// If durability is already enabled.
    ///
    /// # Errors
    /// [`WarehouseError::Durability`] on filesystem failures.
    pub fn enable_durability(&mut self, config: DurabilityConfig) -> Result<(), WarehouseError> {
        assert!(
            !self.durability_enabled(),
            "durability is already enabled on this warehouse"
        );
        std::fs::create_dir_all(&config.dir).map_err(DurableError::Io)?;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            shard.durability = Some(SourceDurability::fresh(&config, s)?);
            shard.maybe_checkpoint()?;
        }
        Ok(())
    }

    /// Force every buffered WAL record to disk regardless of the fsync
    /// policy (clean-shutdown helper). No-op without durability.
    ///
    /// # Errors
    /// [`WarehouseError::Durability`] on filesystem failures.
    pub fn sync_durability(&mut self) -> Result<(), WarehouseError> {
        self.shards.iter_mut().try_for_each(Shard::sync_durability)
    }

    /// Restart from disk after a crash. Call on a freshly built
    /// warehouse with the *same* sources and views (same registration
    /// order) as the crashed deployment, before any traffic.
    ///
    /// Per source channel: load the checkpoint and scan the log once,
    /// restore view bags and session counters from the checkpoint,
    /// replay the log's valid records through the ordinary event
    /// handlers (re-deriving pending queries under their original ids),
    /// resume the log at its last valid record (cutting a torn tail
    /// there), and finally reset the channel — re-issuing the in-flight
    /// work under a fresh epoch. A missing/damaged checkpoint, an
    /// undecodable log, or a replay mismatch falls back to
    /// [`RecoveryOutcome::Full`]: every view over that source degrades
    /// and resyncs from a fresh `V(ss)`.
    ///
    /// Durability stays enabled afterwards, resuming the recovered
    /// lineage (incremental channels keep their generation; full ones
    /// start a new one and owe a baseline checkpoint).
    ///
    /// # Panics
    /// If durability is already enabled on this instance.
    ///
    /// # Errors
    /// [`WarehouseError::Durability`] on filesystem failures;
    /// maintainer failures surfaced while resetting unusable channels.
    pub fn recover_durability(
        &mut self,
        config: DurabilityConfig,
    ) -> Result<Vec<RecoveryOutcome>, WarehouseError> {
        assert!(
            !self.durability_enabled(),
            "recover_durability needs a fresh warehouse without durability enabled"
        );
        std::fs::create_dir_all(&config.dir).map_err(DurableError::Io)?;
        // Read every channel's disk state before touching any shard, so
        // an unreadable directory fails the call with nothing changed.
        let mut plans = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter().enumerate() {
            plans.push(Plan::read(&config, s, shard.views.len())?);
        }
        let mut outcomes = Vec::with_capacity(plans.len());
        for (s, (shard, plan)) in self.shards.iter_mut().zip(plans).enumerate() {
            outcomes.push(shard.recover(&config, SourceId(s), plan)?);
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SourceId, ViewId, ViewStatus, Warehouse};
    use eca_core::algorithms::AlgorithmKind;
    use eca_core::{BaseDb, ViewDef};
    use eca_relational::{Predicate, Schema, Tuple, Update};
    use eca_wire::Message;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eca-wh-durable-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn view_def() -> ViewDef {
        ViewDef::new(
            "V",
            vec![
                Schema::new("r1", &["W", "X"]),
                Schema::new("r2", &["X", "Y"]),
            ],
            Predicate::col_eq(1, 2),
            vec![0, 3],
        )
        .unwrap()
    }

    fn base_db() -> BaseDb {
        let mut db = BaseDb::new();
        db.register("r1");
        db.register("r2");
        db.insert("r1", Tuple::ints([1, 2]));
        db.insert("r2", Tuple::ints([2, 7]));
        db
    }

    fn catalog() -> Vec<Schema> {
        vec![
            Schema::new("r1", &["W", "X"]),
            Schema::new("r2", &["X", "Y"]),
        ]
    }

    /// A fresh warehouse with one ECA view over one source, in the
    /// deployment shape recovery expects to be rebuilt into.
    fn build(db: &BaseDb) -> (Warehouse, SourceId, ViewId) {
        let v = view_def();
        let mut wh = Warehouse::new();
        let src = wh.add_source("src");
        let id = wh
            .add_view(
                src,
                AlgorithmKind::Eca
                    .instantiate(&v, v.eval(db).unwrap())
                    .unwrap(),
            )
            .unwrap();
        (wh, src, id)
    }

    fn answer_all(wh: &mut Warehouse, src: SourceId, db: &BaseDb, msgs: Vec<Message>) {
        let mut queue: Vec<Message> = msgs;
        while let Some(msg) = queue.pop() {
            let Message::QueryRequest { id, query } = msg else {
                panic!("only query requests expected");
            };
            let answer = query.to_query(&catalog()).unwrap().eval(db).unwrap();
            for q in wh.on_answer(src, id, answer).unwrap() {
                queue.push(Message::QueryRequest {
                    id: q.id,
                    query: eca_wire::WireQuery::from_query(&q.query),
                });
            }
        }
    }

    #[test]
    fn crash_mid_flight_recovers_incrementally_and_converges() {
        let dir = tmpdir("midflight");
        let mut db = base_db();
        let (mut wh, src, view) = build(&db);
        // Large cadence: only the baseline checkpoint exists, so the
        // whole run replays from the log.
        let cfg = DurabilityConfig::new(&dir).with_checkpoint_every(1_000);
        wh.enable_durability(cfg.clone()).unwrap();

        // One settled round, then an update whose queries stay in
        // flight across the crash.
        let u1 = Update::insert("r1", Tuple::ints([4, 2]));
        db.apply(&u1);
        let q1 = wh.on_update(src, &u1).unwrap();
        for q in &q1 {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        let u2 = Update::insert("r2", Tuple::ints([2, 9]));
        db.apply(&u2);
        let q2 = wh.on_update(src, &u2).unwrap();
        assert_eq!(q2.len(), 1);
        assert_eq!(wh.notifications_seen(src), 2);
        drop(wh); // crash: the process dies with a query in flight

        let (mut wh, src, view2) = build(&base_db());
        assert_eq!(view, view2);
        let outcomes = wh.recover_durability(cfg).unwrap();
        assert_eq!(outcomes.len(), 1);
        let RecoveryOutcome::Incremental {
            replayed,
            notifications_seen,
            ref messages,
            ..
        } = outcomes[0]
        else {
            panic!("expected incremental recovery, got {:?}", outcomes[0]);
        };
        assert_eq!(replayed, 3, "u1 + its answer + u2");
        assert_eq!(notifications_seen, 2);
        assert_eq!(messages.len(), 1, "the in-flight query re-issued");
        assert!(wh.epoch(src) > 0, "recovery starts a fresh epoch");
        assert_eq!(wh.view_status(view), ViewStatus::Active);

        answer_all(
            &mut wh,
            src,
            &db,
            outcomes.into_iter().next().unwrap().messages().to_vec(),
        );
        assert!(wh.is_quiescent());
        assert_eq!(*wh.materialized(view), view_def().eval(&db).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_rotation_bounds_replay_to_the_log_tail() {
        let dir = tmpdir("rotate");
        let mut db = base_db();
        let (mut wh, src, view) = build(&db);
        // Cut a checkpoint at every quiescent point.
        let cfg = DurabilityConfig::new(&dir).with_checkpoint_every(1);
        wh.enable_durability(cfg.clone()).unwrap();

        for i in 0..5i64 {
            let u = Update::insert("r2", Tuple::ints([2, 10 + i]));
            db.apply(&u);
            let qs = wh.on_update(src, &u).unwrap();
            for q in &qs {
                wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
            }
        }
        assert!(wh.is_quiescent());
        drop(wh); // crash exactly at a checkpointed quiescent point

        let (mut wh, _, _) = build(&base_db());
        let outcomes = wh.recover_durability(cfg).unwrap();
        let RecoveryOutcome::Incremental {
            replayed,
            ref messages,
            ..
        } = outcomes[0]
        else {
            panic!("expected incremental recovery");
        };
        assert_eq!(replayed, 0, "the checkpoint already covers everything");
        assert!(messages.is_empty(), "nothing was in flight");
        assert_eq!(*wh.materialized(view), view_def().eval(&db).unwrap());
        assert!(wh.is_quiescent());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unusable_checkpoint_falls_back_to_full_resync() {
        let dir = tmpdir("fallback");
        let mut db = base_db();
        let (mut wh, src, view) = build(&db);
        let cfg = DurabilityConfig::new(&dir).with_checkpoint_every(1_000);
        wh.enable_durability(cfg.clone()).unwrap();
        let u = Update::insert("r1", Tuple::ints([5, 2]));
        db.apply(&u);
        let qs = wh.on_update(src, &u).unwrap();
        for q in &qs {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        drop(wh);
        std::fs::remove_file(cfg.checkpoint_path(0)).unwrap();

        let (mut wh, src, _) = build(&base_db());
        let outcomes = wh.recover_durability(cfg.clone()).unwrap();
        let RecoveryOutcome::Full { ref messages, .. } = outcomes[0] else {
            panic!("expected full fallback, got {:?}", outcomes[0]);
        };
        assert_eq!(messages.len(), 1, "one resync query for the view");
        assert_eq!(wh.view_status(view), ViewStatus::Degraded);
        answer_all(
            &mut wh,
            src,
            &db,
            outcomes.into_iter().next().unwrap().messages().to_vec(),
        );
        assert_eq!(*wh.materialized(view), view_def().eval(&db).unwrap());
        assert!(wh.is_quiescent());

        // The fallback re-establishes a durable lineage: a second crash
        // right after quiescence now recovers incrementally again.
        drop(wh);
        let (mut wh, _, _) = build(&base_db());
        let outcomes = wh.recover_durability(cfg).unwrap();
        assert!(
            outcomes[0].is_incremental(),
            "baseline checkpoint after fallback, got {:?}",
            outcomes[0]
        );
        assert_eq!(*wh.materialized(view), view_def().eval(&db).unwrap());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fault_free_run_is_identical_with_durability_enabled() {
        let dir = tmpdir("identity");
        let mut db1 = base_db();
        let mut db2 = base_db();
        let (mut plain, src1, v1) = build(&db1);
        let (mut durable, src2, v2) = build(&db2);
        durable
            .enable_durability(DurabilityConfig::new(&dir).with_checkpoint_every(2))
            .unwrap();

        for i in 0..6i64 {
            let u = if i % 3 == 2 {
                Update::delete("r2", Tuple::ints([2, 7]))
            } else {
                Update::insert("r2", Tuple::ints([2, 20 + i]))
            };
            db1.apply(&u);
            db2.apply(&u);
            let a = plain.on_update(src1, &u).unwrap();
            let b = durable.on_update(src2, &u).unwrap();
            assert_eq!(a.len(), b.len());
            for (qa, qb) in a.iter().zip(&b) {
                assert_eq!(qa.id, qb.id, "identical global id allocation");
                plain
                    .on_answer(src1, qa.id, qa.query.eval(&db1).unwrap())
                    .unwrap();
                durable
                    .on_answer(src2, qb.id, qb.query.eval(&db2).unwrap())
                    .unwrap();
            }
        }
        assert_eq!(plain.view_states(v1), durable.view_states(v2));
        assert_eq!(plain.epoch(src1), durable.epoch(src2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// History off keeps no state: not at registration, not per event,
    /// not when recovery restores and replays a channel, not when it
    /// falls back to a full resync. Switching it on starts the history
    /// at the current `MV`; switching it off drops it.
    #[test]
    fn history_off_keeps_no_state_across_events_and_recovery() {
        let dir = tmpdir("history");
        let mut db = base_db();
        let build_off = || {
            let v = view_def();
            let mut wh = Warehouse::new();
            wh.set_record_history(false);
            let src = wh.add_source("src");
            let initial = v.eval(&base_db()).unwrap();
            let id = wh
                .add_view(src, AlgorithmKind::Eca.instantiate(&v, initial).unwrap())
                .unwrap();
            (wh, src, id)
        };
        let (mut wh, src, view) = build_off();
        assert!(wh.view_states(view).is_empty(), "no initial state");
        let cfg = DurabilityConfig::new(&dir).with_checkpoint_every(1_000);
        wh.enable_durability(cfg.clone()).unwrap();
        for i in 0..3i64 {
            let u = Update::insert("r2", Tuple::ints([2, 40 + i]));
            db.apply(&u);
            for q in wh.on_update(src, &u).unwrap() {
                wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
            }
        }
        let u = Update::insert("r1", Tuple::ints([6, 2]));
        db.apply(&u);
        assert_eq!(wh.on_update(src, &u).unwrap().len(), 1);
        assert!(wh.view_states(view).is_empty(), "no state per event");
        drop(wh); // crash with the last query in flight

        let (mut wh, src, view) = build_off();
        let outcomes = wh.recover_durability(cfg.clone()).unwrap();
        assert!(outcomes[0].is_incremental(), "{:?}", outcomes[0]);
        assert!(wh.view_states(view).is_empty(), "none restored or replayed");
        answer_all(
            &mut wh,
            src,
            &db,
            outcomes.into_iter().next().unwrap().messages().to_vec(),
        );
        assert_eq!(*wh.materialized(view), view_def().eval(&db).unwrap());
        assert!(wh.view_states(view).is_empty());

        wh.set_record_history(true);
        assert_eq!(wh.view_states(view), [wh.materialized(view).clone()]);
        let u = Update::delete("r2", Tuple::ints([2, 40]));
        db.apply(&u);
        for q in wh.on_update(src, &u).unwrap() {
            wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
        }
        let states = wh.view_states(view);
        assert_eq!(states.len(), 3, "start, update event, answer event");
        assert_eq!(states[2], view_def().eval(&db).unwrap());
        wh.set_record_history(false);
        assert!(wh.view_states(view).is_empty(), "switching off drops it");
        wh.sync_durability().unwrap();
        drop(wh);

        // The full fallback keeps nothing either.
        std::fs::remove_file(cfg.checkpoint_path(0)).unwrap();
        let (mut wh, _, view) = build_off();
        let outcomes = wh.recover_durability(cfg).unwrap();
        assert!(!outcomes[0].is_incremental());
        assert!(wh.view_states(view).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The watermark a channel acknowledges to its source only moves
    /// forward, trails records no completed sync of the log covers, and
    /// never exceeds what recovery brings back — so a source that trims
    /// its outbox to it can always serve the post-crash tail.
    #[test]
    fn watermark_notes_are_durable_and_monotonic() {
        let dir = tmpdir("watermark");
        let mut db = base_db();
        let (mut volatile, vsrc, _) = build(&db);
        let (mut wh, src, _) = build(&db);
        let cfg = DurabilityConfig::new(&dir)
            .with_fsync(eca_durable::FsyncPolicy::PerBatch(3))
            .with_checkpoint_every(1_000);
        wh.enable_durability(cfg.clone()).unwrap();
        let mut acked = Vec::new();
        for i in 0..4 {
            let u = Update::insert("r2", Tuple::ints([2, 30 + i]));
            db.apply(&u);
            let _ = volatile.on_update(vsrc, &u).unwrap();
            assert_eq!(
                volatile.ack_watermark(vsrc),
                i as u64 + 1,
                "volatile acks on apply"
            );
            for q in wh.on_update(src, &u).unwrap() {
                acked.push(wh.ack_watermark(src));
                wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
                acked.push(wh.ack_watermark(src));
            }
        }
        assert!(
            acked.windows(2).all(|w| w[0] <= w[1]),
            "monotonic: {acked:?}"
        );
        let last = *acked.last().unwrap();
        assert!(
            last < wh.notifications_seen(src),
            "unsynced records are not acked: {acked:?}"
        );
        drop(wh);

        let (mut wh, src, _) = build(&base_db());
        let outcomes = wh.recover_durability(cfg).unwrap();
        assert!(outcomes[0].is_incremental());
        assert!(
            wh.notifications_seen(src) >= last,
            "recovery keeps every ack"
        );
        assert_eq!(wh.ack_watermark(src), wh.notifications_seen(src));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log whose syncs fail: `/dev/null` in its place takes every
    /// write, and its `fdatasync` returns `EINVAL`. The failure comes back
    /// from the next ack, logged event and clean shutdown, and the ack
    /// watermark stays where it was before the failed sync.
    #[test]
    fn a_failed_log_sync_fails_the_ack_and_holds_the_watermark() {
        let dir = tmpdir("failed-sync");
        let mut db = base_db();
        let (mut wh, _, _) = build(&db);
        let cfg = DurabilityConfig::new(&dir)
            .with_fsync(eca_durable::FsyncPolicy::PerBatch(2))
            .with_checkpoint_every(1_000);
        wh.enable_durability(cfg.clone()).unwrap();
        drop(wh);
        let ckpt = SourceCheckpoint::load(&cfg.checkpoint_path(0))
            .unwrap()
            .unwrap();
        let live = cfg.wal_path(0, ckpt.wal_gen);
        std::fs::remove_file(&live).unwrap();
        std::os::unix::fs::symlink("/dev/null", &live).unwrap();

        let (mut wh, src, _) = build(&base_db());
        assert!(wh.recover_durability(cfg).unwrap()[0].is_incremental());
        let before = wh.ack_watermark(src);
        // Recovery's epoch bump and this update fill one batch: its frames
        // are written and a sync requested, which fails on the thread.
        let u = Update::insert("r2", Tuple::ints([2, 50]));
        db.apply(&u);
        let qs = wh.on_update(src, &u).unwrap();
        assert_eq!(wh.notifications_seen(src), before + 1);
        let einval = |r: Result<(), WarehouseError>| match r {
            Err(WarehouseError::Durability(DurableError::Io(e))) => {
                assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}");
            }
            other => panic!("expected the failed sync, got {other:?}"),
        };
        einval(wh.ack(src).map(drop));
        assert_eq!(wh.ack_watermark(src), before, "no ack past a failed sync");
        einval(
            wh.on_answer(src, qs[0].id, qs[0].query.eval(&db).unwrap())
                .map(drop),
        );
        einval(wh.sync_durability());
        einval(wh.ack(src).map(drop));
        assert_eq!(wh.ack_watermark(src), before);
        drop(wh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// However many records a sync batches, every notification an ack
    /// covers is in the files when the ack is made: under the
    /// checkpoint's watermark or an `Update` record of the log it pairs
    /// with — across checkpoint rotations too.
    #[test]
    fn an_ack_never_runs_ahead_of_the_files() {
        for n in [1, 2, 3, 5, 8] {
            let dir = tmpdir(&format!("ack-ahead-{n}"));
            let mut db = base_db();
            let (mut wh, src, view) = build(&db);
            let cfg = DurabilityConfig::new(&dir)
                .with_fsync(eca_durable::FsyncPolicy::PerBatch(n))
                .with_checkpoint_every(7);
            wh.enable_durability(cfg.clone()).unwrap();
            let mut last = (0, 0);
            let mut check = |wh: &mut Warehouse| {
                let Some(Message::Ack { next, .. }) = wh.ack(src).unwrap() else {
                    return;
                };
                let ckpt = SourceCheckpoint::load(&cfg.checkpoint_path(0))
                    .unwrap()
                    .unwrap();
                let logged = Wal::scan(&cfg.wal_path(0, ckpt.wal_gen))
                    .unwrap()
                    .records
                    .iter()
                    .filter(|r| matches!(r, WalRecord::Update(_)))
                    .count() as u64;
                assert!(
                    next <= ckpt.notifications_applied + logged,
                    "PerBatch({n}): ack {next} past checkpoint {} + {logged} logged",
                    ckpt.notifications_applied
                );
                last = (next, ckpt.wal_gen);
            };
            for i in 0..24i64 {
                let u = match i % 3 {
                    0 => Update::insert("r1", Tuple::ints([100 + i, 2])),
                    1 => Update::insert("r2", Tuple::ints([2, 100 + i])),
                    _ => Update::delete("r2", Tuple::ints([2, 99 + i])),
                };
                db.apply(&u);
                let qs = wh.on_update(src, &u).unwrap();
                check(&mut wh);
                for q in qs {
                    wh.on_answer(src, q.id, q.query.eval(&db).unwrap()).unwrap();
                    check(&mut wh);
                }
            }
            let (acked, gen) = last;
            assert!(acked >= 24 - n, "PerBatch({n}): acks stopped at {acked}");
            assert!(gen >= 3, "PerBatch({n}): only generation {gen} was reached");
            assert_eq!(*wh.materialized(view), view_def().eval(&db).unwrap());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
