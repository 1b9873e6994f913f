//! `durable_recover` — `maintain_burst` plus
//! `enable_durability(PerBatch(32), checkpoint every 8192 events)`, then a
//! crash and a recovery from the write-ahead log and the last checkpoint.
//!
//! Why: the only workload where `durable` and `warehouse::durability`
//! work. Maintenance is the same as in `maintain_burst`, so the difference
//! between the two *is* the durability tax. The flush policy is fixed and
//! recorded; fsync latencies are the sandbox's, not a device's.
//!
//! The crash: at least [`MIN_TAIL_EVENTS`] logged events past the last
//! checkpoint, one more burst is delivered to the warehouse and its
//! queries are left unanswered, then the warehouse is dropped without
//! `sync_durability`. `Wal` buffers in user space and has no flush on
//! drop, so the unflushed records are really lost. Recovery runs
//! [`RECOVERIES`] times, each on its own copy of the crashed directory.

use std::path::Path;
use std::time::Instant;

use eca_relational::Update;
use eca_warehouse::{DurabilityConfig, FsyncPolicy, RecoveryOutcome};
use eca_wire::{Message, Transport};

use crate::deploy::{warehouse_over, Initial};
use crate::phases::timed_setups;
use crate::probes;
use crate::rig::Rig;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{drive_serial, maintain_burst, Plan, RunOutput};
use crate::Failure;

pub use maintain_burst::{BURST, VIEWS};
pub const EXACT_PREFIX: u64 = 16_000;
pub const FSYNC_BATCH: u64 = 32;
pub const CHECKPOINT_EVERY: u64 = 8_192;
/// Logged events the crash must leave past the last checkpoint.
pub const MIN_TAIL_EVENTS: u64 = 2_000;
/// Recoveries per run; `recovery_ms` is their median.
pub const RECOVERIES: u64 = 7;

pub fn config(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .with_fsync(FsyncPolicy::PerBatch(FSYNC_BATCH))
        .with_checkpoint_every(CHECKPOINT_EVERY)
}

/// Follows the durable files from outside: which WAL generation is live,
/// how many events were logged since the last checkpoint, and how many
/// bytes reached the files.
struct DiskWatch {
    cfg: DurabilityConfig,
    gen: u64,
    wal_len: u64,
    events_at_checkpoint: u64,
    pub checkpoints: u64,
    pub bytes_written: u64,
}

impl DiskWatch {
    fn new(cfg: DurabilityConfig) -> DiskWatch {
        // `enable_durability` on a quiescent warehouse cuts the baseline
        // checkpoint at once and rotates to generation 1.
        let gen = (0..).find(|g| cfg.wal_path(0, *g).exists()).unwrap_or(0);
        DiskWatch {
            cfg,
            gen,
            wal_len: 0,
            events_at_checkpoint: 0,
            checkpoints: 0,
            bytes_written: 0,
        }
    }

    fn len(path: &Path) -> u64 {
        std::fs::metadata(path).map_or(0, |m| m.len())
    }

    /// Account for the burst just settled; returns whether a checkpoint
    /// was cut at its end.
    fn after_burst(&mut self, events: u64) -> bool {
        let cut = self.cfg.wal_path(0, self.gen + 1).exists();
        if cut {
            // A checkpoint was cut at the end of this burst: the old log's
            // last records and the checkpoint file were written.
            self.gen += 1;
            self.checkpoints += 1;
            self.events_at_checkpoint = events;
            self.bytes_written += Self::len(&self.cfg.checkpoint_path(0));
            self.wal_len = 0;
        }
        let len = Self::len(&self.cfg.wal_path(0, self.gen));
        self.bytes_written += len.saturating_sub(self.wal_len);
        self.wal_len = len;
        cut
    }

    fn tail_events(&self, events: u64) -> u64 {
        events - self.events_at_checkpoint
    }
}

/// Copy the durable files and force the copies to disk, so that the
/// syncs a recovery issues pay for the recovery's writes and not for the
/// copy's.
fn copy_dir(from: &Path, to: &Path) -> Result<(), Failure> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let copy = to.join(entry.file_name());
        std::fs::copy(entry.path(), &copy)?;
        std::fs::File::open(&copy)?.sync_all()?;
    }
    std::fs::File::open(to)?.sync_all()?;
    Ok(())
}

/// The notifications the source has sent since the warehouse's last
/// checkpoint — all a recovery can ever ask to have re-sent, since the
/// checkpoint's watermark covers everything before it.
#[derive(Default)]
struct History {
    /// Notifications sent before `tail[0]`.
    base: u64,
    tail: Vec<Update>,
}

impl History {
    fn sent(&mut self, burst: &[Update], checkpoint_cut: bool) {
        self.tail.extend_from_slice(burst);
        if checkpoint_cut {
            self.base += self.tail.len() as u64;
            self.tail.clear();
        }
    }

    /// The notifications from index `seen` on.
    fn from(&self, seen: u64) -> Result<&[Update], Failure> {
        seen.checked_sub(self.base)
            .and_then(|i| self.tail.get(i as usize..))
            .ok_or_else(|| Failure::new("the recovered watermark is outside the kept history"))
    }
}

/// What one recovery did.
pub struct Recovered {
    pub total_ms: f64,
    pub call_ms: f64,
    pub replayed: u64,
    pub resent: u64,
    pub incremental: bool,
}

/// Recover a fresh warehouse from `dir`, re-send the notifications it
/// never logged, answer the re-issued queries, and hand the settled rig
/// back. The clock runs from the `recover_durability` call to quiescence.
fn recover(
    site: crate::deploy::Site,
    dir: &Path,
    history: &History,
) -> Result<(Rig, Recovered), Failure> {
    let (wh, mut ids) = warehouse_over(&[&site], Initial::Empty)?;
    let mut rig = Rig::new(site, wh, ids.remove(0));
    let mut tr = Tracer::off();
    let t0 = Instant::now();
    let outcomes = rig.wh.recover_durability(config(dir))?;
    let call_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut rec = Recovered {
        total_ms: 0.0,
        call_ms,
        replayed: 0,
        resent: 0,
        incremental: outcomes.iter().all(RecoveryOutcome::is_incremental),
    };
    for outcome in &outcomes {
        // Per-channel FIFO: the re-sent notifications go first, then the
        // re-issued queries, whose answers therefore follow them.
        let seen = match outcome {
            RecoveryOutcome::Incremental {
                notifications_seen,
                replayed,
                ..
            } => {
                rec.replayed += replayed;
                *notifications_seen
            }
            // Full fallback: every view resyncs from V(ss); nothing to
            // re-send. Counted as a failure by the caller.
            RecoveryOutcome::Full { .. } => history.base + history.tail.len() as u64,
        };
        for update in history.from(seen)? {
            rig.src_end.send(&Message::UpdateNotification {
                update: update.clone(),
            })?;
            rec.resent += 1;
        }
        for msg in outcome.messages() {
            rig.wh_end.send(msg)?;
        }
    }
    rig.settle(&mut tr)?;
    rec.total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((rig, rec))
}

pub fn run(plan: &Plan) -> Result<RunOutput, Failure> {
    let mut out = RunOutput::default();
    let scratch = Path::new(crate::OUT_DIR).join(format!("tmp-{}", std::process::id()));
    let wal_dir = scratch.join("wal");
    let result = run_in(plan, &mut out, &scratch, &wal_dir);
    let _ = std::fs::remove_dir_all(&scratch);
    result.map(|()| out)
}

fn run_in(plan: &Plan, out: &mut RunOutput, scratch: &Path, wal_dir: &Path) -> Result<(), Failure> {
    let (mut rig, setup_s) = timed_setups(
        plan,
        || {
            let mut rig = maintain_burst::build(plan.seed, &VIEWS)?;
            rig.wh.enable_durability(config(wal_dir))?;
            Ok(rig)
        },
        drop,
    )?;
    out.e2e.insert("setup_s", setup_s);

    out.note_script(rig.site.spec.stream());
    let mut stream = rig.site.spec.stream();
    let prefix = plan.scaled(EXACT_PREFIX, BURST as u64);
    let mut watch = DiskWatch::new(config(wal_dir));
    let mut history = History::default();
    let driven = drive_serial(&mut rig, &mut stream, BURST, prefix, plan, |rig, burst| {
        history.sent(burst, watch.after_burst(rig.events));
        Ok(())
    })?;
    let disk_bytes_per_update = watch.bytes_written as f64 / rig.updates.max(1) as f64;
    let checkpoints_per_update = watch.checkpoints as f64 / rig.updates.max(1) as f64;
    out.maintenance(&driven.samples, plan.window, &driven.exact);
    out.note("checkpoints", watch.checkpoints as f64);

    // Run on until the crash point, then crash mid-burst.
    let mut tr = Tracer::off();
    let min_tail = plan.scaled(MIN_TAIL_EVENTS, 1);
    while watch.tail_events(rig.events) < min_tail {
        let burst = stream.next_burst(BURST);
        rig.send_burst(&burst, &mut tr)?;
        rig.settle(&mut tr)?;
        history.sent(&burst, watch.after_burst(rig.events));
    }
    let last = stream.next_burst(BURST);
    rig.send_burst(&last, &mut tr)?;
    rig.pump_warehouse(&mut tr)?;
    history.sent(&last, false);
    out.note("crash_tail_events", watch.tail_events(rig.events) as f64);
    out.check((rig.updates + rig.failed, rig.failed));
    if rig.failed > 0 {
        // `history` would no longer line up with `notifications_seen`.
        return Err(Failure::new("an update was ineffective; cannot replay"));
    }
    let Rig { mut site, wh, .. } = rig;
    drop(wh);

    // Every recovery starts from its own copy of the crashed directory
    // and meets the source as the crash left it.
    let crashed = scratch.join("crashed");
    let mut recoveries = Vec::new();
    let rig = loop {
        copy_dir(wal_dir, &crashed)?;
        let (rig, rec) = recover(site, &crashed, &history)?;
        out.check((1, u64::from(!rec.incremental)));
        let (checks, bad, _) = rig.oracle()?;
        out.check((checks, bad));
        recoveries.push(rec);
        if recoveries.len() as u64 == plan.scaled(RECOVERIES, 1) {
            break rig;
        }
        site = rig.site;
    };
    out.e2e.insert(
        "recovery_ms",
        median(&recoveries.iter().map(|r| r.total_ms).collect::<Vec<_>>()),
    );
    out.note("recovery_replayed", recoveries[0].replayed as f64);
    out.note("recovery_resent", recoveries[0].resent as f64);

    if plan.trace {
        let parts = probes::serial_layers(out, plan, &rig, &driven, BURST)?;
        probes::durable_layers(
            out,
            &rig,
            &parts,
            &recoveries,
            disk_bytes_per_update,
            checkpoints_per_update,
            scratch,
        )?;
    } else {
        out.e2e.insert("peak_rss_mb", driven.rss_at_prefix_mb);
    }
    Ok(())
}
