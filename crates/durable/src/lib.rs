//! Warehouse durability: write-ahead log and quiescent checkpoints.
//!
//! The paper's recovery story (§4) treats a warehouse restart as total
//! amnesia: every view degrades and re-derives itself through a full
//! RV-style resync against its source — `O(|view|)` source traffic per
//! crash. This crate gives the warehouse a disk: an append-only,
//! length-prefixed, checksummed **write-ahead log** of committed
//! maintenance events per source channel, plus periodic **checkpoints**
//! of view bags and session state cut at quiescent points, so a crashed
//! warehouse restarts from `checkpoint + log tail` and only asks the
//! source for what was genuinely in flight — `O(updates since
//! checkpoint)` traffic instead.
//!
//! Design in one paragraph: the warehouse's per-source processing is
//! single-threaded and deterministic (sequential global query ids,
//! deterministic maintainer emissions), so a redo log of the *inputs* —
//! update notifications, query answers (by global id), epoch bumps — is
//! enough: replaying them through the ordinary `on_update`/`on_answer`/
//! `on_reset` paths re-derives every view bag, every session route and
//! every id exactly, and the outbound queries regenerated during replay
//! are discarded (they were already on the wire before the crash).
//! Checkpoints are only cut when the source channel is quiescent
//! (`UQS = ∅`, nothing pending), which keeps them to view bags +
//! auxiliary bags + a handful of counters — no in-flight compensation
//! state ever needs serializing.
//!
//! Frames reuse the `eca-wire` codec discipline: `[u32 MARK | len][u64
//! checksum(body)][body]`, capped at [`eca_wire::MAX_FRAME_LEN`]. The
//! length word's top bit is set in every frame, and the checksum folds
//! the body in 64-bit words (DESIGN §15). A torn or corrupt tail (partial
//! final write, bit rot) is detected by the length/checksum pair and the
//! scan stops cleanly at the last valid record — see [`Wal::scan`].
//!
//! The log file grows a [`SEGMENT_LEN`] segment of zeros at a time, and
//! syncs overwrite those zeros in place, so most of them flush data
//! without a journal commit for a new file size. Zeros never validate as
//! a frame, so a segment's unused tail is not a torn tail, and
//! [`Wal::open`] resumes right after the last valid frame. Checkpoints
//! are written in one pass, checksummed as they stream to the file.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod checkpoint;
mod record;
mod wal;

use std::path::PathBuf;

pub use checkpoint::{AuxCheckpoint, SourceCheckpoint, ViewCheckpoint};
pub use record::WalRecord;
pub use wal::{Wal, WalScan, SEGMENT_LEN};

use eca_wire::DecodeError;

/// When the WAL forces its buffered records to disk.
///
/// The buffer is the crash window: records not yet flushed are lost
/// with the process. Recovery is correct under every policy — the
/// incremental-resync protocol re-covers lost records from the source —
/// but the amount of resync traffic after a crash grows with the
/// window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Flush and sync after every record: zero-record crash window,
    /// one `fdatasync` per maintenance event.
    PerRecord,
    /// Flush and sync every `n` records: bounded window, amortized
    /// syncs.
    PerBatch(u64),
    /// Flush and sync only when a checkpoint is cut: everything since
    /// the last checkpoint may need re-fetching after a crash.
    OnCheckpoint,
}

/// Durability configuration handed to a warehouse runtime.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding one `source-<i>.wal` / `source-<i>.ckpt` pair
    /// per source channel.
    pub dir: PathBuf,
    /// When WAL records are forced to disk.
    pub fsync: FsyncPolicy,
    /// Logged events per source between checkpoint attempts. A
    /// checkpoint is only *cut* at the first quiescent point at or
    /// after the threshold, so bursts of in-flight compensation defer
    /// it harmlessly.
    pub checkpoint_every: u64,
}

impl DurabilityConfig {
    /// A config with the given directory, per-record fsync, and a
    /// checkpoint every 64 events.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::PerRecord,
            checkpoint_every: 64,
        }
    }

    /// Replace the fsync policy.
    pub fn with_fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Replace the checkpoint cadence.
    pub fn with_checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Path of source `i`'s write-ahead log for checkpoint generation
    /// `gen`. The generation is baked into the file name so a crash
    /// between "checkpoint written" and "old log emptied" can never
    /// replay pre-checkpoint records against the new checkpoint: the
    /// checkpoint names the only log it pairs with.
    pub fn wal_path(&self, source: usize, gen: u64) -> PathBuf {
        self.dir.join(format!("source-{source}.g{gen}.wal"))
    }

    /// Path of source `i`'s checkpoint.
    pub fn checkpoint_path(&self, source: usize) -> PathBuf {
        self.dir.join(format!("source-{source}.ckpt"))
    }

    /// Delete every WAL file of source `i` whose generation is not
    /// `keep` — stale logs superseded by a newer checkpoint. Missing
    /// files and unreadable directories are ignored (cleanup is
    /// best-effort; correctness never depends on it).
    pub fn remove_stale_wals(&self, source: usize, keep: u64) {
        let prefix = format!("source-{source}.g");
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(rest) = name.strip_prefix(&prefix) else {
                continue;
            };
            let Some(gen) = rest.strip_suffix(".wal") else {
                continue;
            };
            if gen.parse::<u64>().is_ok_and(|g| g != keep) {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }
}

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum DurableError {
    /// The filesystem refused.
    Io(std::io::Error),
    /// A record or checkpoint body failed to decode *after* passing its
    /// checksum — a logic error or version skew, never silently
    /// replayed.
    Decode(DecodeError),
    /// A record exceeded [`eca_wire::MAX_FRAME_LEN`] at append time.
    RecordTooLarge {
        /// The offending encoded length.
        len: usize,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durability I/O error: {e}"),
            DurableError::Decode(e) => write!(f, "durable record decode error: {e}"),
            DurableError::RecordTooLarge { len } => {
                write!(f, "durable record of {len} bytes exceeds the frame cap")
            }
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Decode(e) => Some(e),
            DurableError::RecordTooLarge { .. } => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<DecodeError> for DurableError {
    fn from(e: DecodeError) -> Self {
        DurableError::Decode(e)
    }
}
