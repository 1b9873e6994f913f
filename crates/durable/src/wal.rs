//! The append-only log file: buffered writes into zero-filled segments
//! at policy points, `fdatasync` on a thread of its own, torn-tail
//! scanning.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use bytes::{Bytes, BytesMut};

use crate::record::{put_frame, unframe, WalRecord};
use crate::{DurableError, FsyncPolicy};

/// The log file grows by whole segments of this many bytes: a write
/// whose frames run past the zero-filled end writes zeros up to the next
/// multiple of it.
pub const SEGMENT_LEN: u64 = 1 << 20;

/// The zeros a segment is filled from, a page at a time: a larger block
/// would sit resident in every process that ever fills a segment.
static ZEROS: [u8; 4096] = [0; 4096];

/// Stack of a log's sync thread, which only waits on a lock and calls
/// `fdatasync`.
const SYNC_STACK: usize = 64 << 10;

/// One source channel's write-ahead log.
///
/// Appends go through an internal buffer that is only written at the
/// points the [`FsyncPolicy`] dictates — deliberately *not* a
/// `BufWriter`, whose `Drop` flushes and would make every simulated
/// crash look like a clean shutdown. Dropping a `Wal` loses exactly the
/// buffered records, which is the crash window the policy promises.
///
/// At a policy point the calling thread writes the buffered frames with
/// `pwrite` and *requests* a sync; the log's sync thread, started at the
/// first request, runs `fdatasync` up to the newest request and
/// publishes it as done, so requests made during one sync share the
/// next. The caller never waits for it: [`Wal::synced`] says how far
/// the syncs have got, and [`Wal::wait_synced`], [`Wal::sync`] and
/// `Drop` wait. A failed sync is sticky: every later append, sync or
/// wait returns it, and [`Wal::synced`] never passes it.
///
/// The file is grown a [`SEGMENT_LEN`] segment of zeros at a time and
/// frames overwrite those zeros in place, so most syncs change no file
/// size and flush data alone, with no journal commit of a new length.
/// Zeros never scan as a frame ([`Wal::scan`]), so the tail of a segment
/// is not a torn tail.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: Arc<File>,
    policy: FsyncPolicy,
    /// Encoded frames not yet written; each record is encoded straight
    /// into it.
    buf: BytesMut,
    /// Records in `buf`.
    buffered: u64,
    /// End of the last frame written: where `buf` is written.
    pos: u64,
    /// End of the file; every byte from `pos` up to it is zero.
    zeroed_end: u64,
    syncs: Arc<Syncs>,
    /// The sync thread, started at the first request.
    thread: Option<JoinHandle<()>>,
}

/// What a log shares with its sync thread.
#[derive(Debug, Default)]
struct Syncs {
    state: Mutex<SyncState>,
    /// The thread sleeps here until a request or `closing`.
    requested: Condvar,
    /// Waiters sleep here until `done` moves or a sync fails.
    done: Condvar,
}

#[derive(Debug, Default)]
struct SyncState {
    /// Sync requests made so far; each covers every frame written before
    /// it.
    requested: u64,
    /// The newest request a completed `fdatasync` covers.
    done: u64,
    /// The first failed `fdatasync`. A later success would not bring the
    /// failed pages back, so the thread stops and `done` stays.
    failed: Option<io::Error>,
    /// The log is dropped: sync what was requested, then exit.
    closing: bool,
}

impl SyncState {
    /// The sticky failure, as an error of its own for each caller.
    fn check(&self) -> Result<(), DurableError> {
        match &self.failed {
            None => Ok(()),
            Some(e) => Err(DurableError::Io(match e.raw_os_error() {
                Some(code) => io::Error::from_raw_os_error(code),
                None => io::Error::new(e.kind(), e.to_string()),
            })),
        }
    }
}

impl Syncs {
    /// Every update of the state is a single store, so a lock poisoned
    /// by a panic elsewhere still guards a consistent state.
    fn lock(&self) -> MutexGuard<'_, SyncState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The sync thread: `fdatasync` up to the newest request, publish
    /// it, repeat; exit once closing with nothing left, or on a failure.
    fn run(&self, file: &File) {
        let mut state = self.lock();
        while state.failed.is_none() {
            if state.done < state.requested {
                let target = state.requested;
                drop(state);
                let synced = file.sync_data();
                state = self.lock();
                match synced {
                    Ok(()) => state.done = target,
                    Err(e) => state.failed = Some(e),
                }
                self.done.notify_all();
            } else if state.closing {
                return;
            } else {
                state = self
                    .requested
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        }
    }
}

/// The result of scanning a log file from disk.
#[derive(Debug)]
pub struct WalScan {
    /// Every record up to the last valid frame, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last valid frame — where a torn
    /// tail was (or would be) truncated, and where appends resume.
    pub valid_len: u64,
    /// Whether non-zero bytes follow `valid_len` (partial write or
    /// corruption); they are never replayed. The zeros of a segment's
    /// unused tail are not a tear.
    pub torn: bool,
}

/// The whole file at `path`; a missing file reads as empty.
fn read_log(path: &Path) -> Result<Bytes, DurableError> {
    match std::fs::read(path) {
        Ok(raw) => Ok(Bytes::from(raw)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Bytes::new()),
        Err(e) => Err(e.into()),
    }
}

/// The end of the valid frame prefix of `raw`, and whether anything but
/// zeros follows it.
fn valid_prefix(
    raw: &Bytes,
    mut each: impl FnMut(Bytes) -> Result<(), DurableError>,
) -> Result<(usize, bool), DurableError> {
    let mut offset = 0usize;
    while let Some((body, next)) = unframe(raw, offset) {
        each(body)?;
        offset = next;
    }
    let zeros = raw[offset..]
        .chunks(ZEROS.len())
        .all(|c| c == &ZEROS[..c.len()]);
    Ok((offset, !zeros))
}

/// Cut a torn tail off `file` at `len` and sync the cut, so that no
/// frame is ever written in front of garbage.
fn cut_torn_tail(file: &File, len: u64) -> Result<(), DurableError> {
    file.set_len(len)?;
    file.sync_data()?;
    Ok(())
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending. An
    /// existing file resumes at the end of its last valid frame, over
    /// the zeros that follow it; a torn tail (non-zero bytes past the
    /// valid frames) is cut off first, so no frame is ever written in
    /// front of garbage. A fresh file stays empty until its first write.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, DurableError> {
        let path = path.into();
        let raw = read_log(&path)?;
        let (valid_len, torn) = valid_prefix(&raw, |_| Ok(()))?;
        Wal::open_at(path, policy, valid_len as u64, torn)
    }

    /// [`Wal::open`] for a file already read by [`Wal::scan`]: appends
    /// resume at `scan.valid_len` and a torn tail is cut off there, with
    /// no second read of the file. `scan` must describe the file as it
    /// is now.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn resume(
        path: impl Into<PathBuf>,
        policy: FsyncPolicy,
        scan: &WalScan,
    ) -> Result<Self, DurableError> {
        Wal::open_at(path.into(), policy, scan.valid_len, scan.torn)
    }

    /// Open the log at `path` to append at `valid_len`, the end of its
    /// valid frames, cutting the file there first if it is `torn`.
    fn open_at(
        path: PathBuf,
        policy: FsyncPolicy,
        valid_len: u64,
        torn: bool,
    ) -> Result<Self, DurableError> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(&path)?;
        let zeroed_end = if torn {
            cut_torn_tail(&file, valid_len)?;
            valid_len
        } else {
            file.metadata()?.len()
        };
        Ok(Wal {
            path,
            file: Arc::new(file),
            policy,
            buf: BytesMut::new(),
            buffered: 0,
            pos: valid_len,
            zeroed_end,
            syncs: Arc::default(),
            thread: None,
        })
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record. At a policy point, write the buffered records
    /// and request a sync of them, without waiting for it.
    ///
    /// # Errors
    /// [`DurableError::RecordTooLarge`]; filesystem errors, among them
    /// an earlier request's failed sync.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), DurableError> {
        if self.thread.is_some() {
            self.syncs.lock().check()?;
        }
        put_frame(&mut self.buf, record.encoded_len(), |e| record.encode(e))?;
        self.buffered += 1;
        let due = match self.policy {
            FsyncPolicy::PerRecord => true,
            FsyncPolicy::PerBatch(n) => self.buffered >= n.max(1),
            FsyncPolicy::OnCheckpoint => false,
        };
        if due {
            self.request()?;
        }
        Ok(())
    }

    /// Write every buffered record and wait until an `fdatasync` covers
    /// it (clean shutdown).
    ///
    /// # Errors
    /// Filesystem errors, the failed sync included.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        let request = self.request()?;
        self.wait_synced(request)
    }

    /// Write the buffered records and request a sync that covers them;
    /// returns the request.
    fn request(&mut self) -> Result<u64, DurableError> {
        self.write()?;
        if self.thread.is_none() {
            let (file, syncs) = (Arc::clone(&self.file), Arc::clone(&self.syncs));
            self.thread = Some(
                std::thread::Builder::new()
                    .name("eca-wal-sync".into())
                    .stack_size(SYNC_STACK)
                    .spawn(move || syncs.run(&file))?,
            );
        }
        let mut state = self.syncs.lock();
        state.check()?;
        state.requested += 1;
        let request = state.requested;
        drop(state);
        self.syncs.requested.notify_one();
        Ok(request)
    }

    /// Write the buffered frames over the zeros at `pos`; a batch that
    /// runs past the zero-filled end is followed by zeros up to the next
    /// segment boundary.
    fn write(&mut self) -> Result<(), DurableError> {
        if !self.buf.is_empty() {
            self.file.write_all_at(self.buf.as_ref(), self.pos)?;
            self.pos += self.buf.len() as u64;
            self.buf.clear();
        }
        self.buffered = 0;
        if self.pos > self.zeroed_end {
            let end = self.pos.div_ceil(SEGMENT_LEN) * SEGMENT_LEN;
            let mut at = self.pos;
            while at < end {
                let n = (end - at).min(ZEROS.len() as u64);
                self.file.write_all_at(&ZEROS[..n as usize], at)?;
                at += n;
            }
            self.zeroed_end = end;
        }
        Ok(())
    }

    /// Records appended since the last sync request: what the process
    /// dying now would lose.
    pub fn buffered(&self) -> u64 {
        self.buffered
    }

    /// Sync requests made so far. Request `r` covers every record
    /// appended before it; the policy makes one at each of its points.
    pub fn requested(&self) -> u64 {
        self.syncs.lock().requested
    }

    /// The newest request a completed `fdatasync` covers: the records
    /// before it survive a machine crash. It never passes a failed sync.
    pub fn synced(&self) -> u64 {
        self.syncs.lock().done
    }

    /// Wait until the syncs cover request `request` (capped at
    /// [`Wal::requested`]).
    ///
    /// # Errors
    /// The failed sync that stopped them.
    pub fn wait_synced(&self, request: u64) -> Result<(), DurableError> {
        let mut state = self.syncs.lock();
        loop {
            state.check()?;
            if state.done >= request.min(state.requested) {
                return Ok(());
            }
            state = self
                .syncs
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Drop every buffered (unsynced) record — the in-process stand-in
    /// for the machine dying: whatever the policy had not yet synced is
    /// gone, whatever it had synced survives on disk.
    #[cfg(test)]
    fn simulate_crash(&mut self) {
        self.buf.clear();
        self.buffered = 0;
    }

    /// Scan a log file, stopping cleanly at the first torn or corrupt
    /// frame, or at the zeros of a segment's unused tail (a zero header
    /// never validates). A missing file scans as empty.
    ///
    /// # Errors
    /// Filesystem errors other than "not found"; [`DurableError::Decode`]
    /// when a checksum-valid body fails to parse (version skew — never
    /// silently skipped).
    pub fn scan(path: &Path) -> Result<WalScan, DurableError> {
        let raw = read_log(path)?;
        let mut records = Vec::new();
        let (valid_len, torn) = valid_prefix(&raw, |body| {
            records.push(WalRecord::decode_body(body)?);
            Ok(())
        })?;
        Ok(WalScan {
            records,
            valid_len: valid_len as u64,
            torn,
        })
    }

    /// Truncate a log file at its last valid record, so future appends
    /// never interleave with garbage. No-op for a clean (or missing)
    /// file, zero tail included.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn truncate_torn_tail(path: &Path, scan: &WalScan) -> Result<(), DurableError> {
        if !scan.torn {
            return Ok(());
        }
        cut_torn_tail(&OpenOptions::new().write(true).open(path)?, scan.valid_len)
    }
}

impl Drop for Wal {
    /// Waits for the sync thread to finish the requests made so far;
    /// the buffered records are dropped, as a crash would lose them.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.syncs.lock().closing = true;
            self.syncs.requested.notify_one();
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::{Tuple, Update};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eca-durable-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn recs(n: u64) -> Vec<WalRecord> {
        (0..n)
            .map(|i| WalRecord::Update(Update::insert("r1", Tuple::ints([i as i64, 2 * i as i64]))))
            .collect()
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("a.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::PerRecord).unwrap();
        let records = recs(5);
        for r in &records {
            wal.append(r).unwrap();
        }
        let scan = Wal::scan(&path).unwrap();
        assert_eq!(scan.records, records);
        assert!(!scan.torn);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn policy_bounds_the_crash_window() {
        let dir = tmpdir("window");
        for (policy, survive) in [
            (FsyncPolicy::PerRecord, 7),
            (FsyncPolicy::PerBatch(3), 6),
            (FsyncPolicy::OnCheckpoint, 0),
        ] {
            let path = dir.join(format!("{policy:?}.wal"));
            let _ = std::fs::remove_file(&path);
            let mut wal = Wal::open(&path, policy).unwrap();
            for r in recs(7) {
                wal.append(&r).unwrap();
            }
            wal.simulate_crash();
            drop(wal);
            let scan = Wal::scan(&path).unwrap();
            assert_eq!(scan.records.len(), survive, "{policy:?}");
            assert!(!scan.torn, "{policy:?}: a lost buffer is not a torn file");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `pwrite` succeeds on `/dev/null` but `fdatasync` fails there with
    /// `EINVAL`. The sync thread's failure comes back from the next
    /// append, sync or wait and from every one after it, and the synced
    /// mark never passes it.
    #[test]
    fn a_failed_sync_is_returned_from_every_later_call() {
        let einval = |e: DurableError| match e {
            DurableError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{e}"),
            e => panic!("expected an I/O error, got {e}"),
        };
        let record = &recs(1)[0];

        // Noticed by a wait, then by every later call, an append that
        // requests no sync included.
        let mut wal = Wal::open("/dev/null", FsyncPolicy::PerBatch(2)).unwrap();
        wal.append(record).unwrap();
        wal.append(record).unwrap();
        assert_eq!(wal.requested(), 1);
        einval(wal.wait_synced(1).unwrap_err());
        einval(wal.append(record).unwrap_err());
        einval(wal.sync().unwrap_err());
        einval(wal.wait_synced(1).unwrap_err());
        assert_eq!(wal.synced(), 0);
    }

    #[test]
    fn torn_tail_stops_at_last_valid_record_every_offset() {
        let dir = tmpdir("torn");
        let path = dir.join("full.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::PerRecord).unwrap();
        let records = recs(4);
        for r in &records {
            wal.append(r).unwrap();
        }
        drop(wal);
        let intact = Wal::scan(&path).unwrap();
        let full = std::fs::read(&path).unwrap()[..intact.valid_len as usize].to_vec();
        assert_eq!(intact.valid_len as usize, full.len());

        // Find each record's frame boundary by rescanning prefixes.
        let mut boundaries = vec![0usize];
        for cut in 1..=full.len() {
            let p = dir.join("cut.wal");
            std::fs::write(&p, &full[..cut]).unwrap();
            let scan = Wal::scan(&p).unwrap();
            assert!(scan.records.len() <= records.len());
            assert_eq!(scan.records[..], records[..scan.records.len()]);
            assert_eq!(scan.torn, (cut as u64) != scan.valid_len);
            if !scan.torn && cut > *boundaries.last().unwrap() {
                boundaries.push(cut);
            }
            // Truncation is idempotent and lands exactly on a boundary.
            Wal::truncate_torn_tail(&p, &scan).unwrap();
            let again = Wal::scan(&p).unwrap();
            assert!(!again.torn);
            assert_eq!(again.records, scan.records);
        }
        assert_eq!(boundaries.len(), records.len() + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_appends_where_the_scan_stopped() {
        let dir = tmpdir("resume");
        for torn in [false, true] {
            let path = dir.join(format!("torn-{torn}.wal"));
            let _ = std::fs::remove_file(&path);
            let mut wal = Wal::open(&path, FsyncPolicy::PerRecord).unwrap();
            wal.append(&recs(1)[0]).unwrap();
            drop(wal);
            if torn {
                // Garbage inside the zero-filled segment, past the frame.
                let valid = Wal::scan(&path).unwrap().valid_len;
                let f = OpenOptions::new().write(true).open(&path).unwrap();
                f.write_all_at(&[0xAB; 7], valid + 3).unwrap();
            }
            let scan = Wal::scan(&path).unwrap();
            assert_eq!(scan.torn, torn);
            let mut wal = Wal::resume(&path, FsyncPolicy::PerRecord, &scan).unwrap();
            wal.append(&recs(2)[1]).unwrap();
            drop(wal);
            let again = Wal::scan(&path).unwrap();
            assert_eq!(again.records, recs(2), "torn: {torn}");
            assert!(!again.torn, "torn: {torn}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_appends_after_tail() {
        let dir = tmpdir("reopen");
        let path = dir.join("a.wal");
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path, FsyncPolicy::PerRecord).unwrap();
        wal.append(&recs(1)[0]).unwrap();
        drop(wal);
        // Reopen and append: the new record lands after the old tail.
        let mut wal = Wal::open(&path, FsyncPolicy::PerRecord).unwrap();
        wal.append(&recs(2)[1]).unwrap();
        assert_eq!(Wal::scan(&path).unwrap().records, recs(2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
