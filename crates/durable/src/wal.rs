//! The append-only log file: buffered writes, policy-driven syncs into
//! zero-filled segments, torn-tail scanning.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::{Bytes, BytesMut};

use crate::record::{put_frame, unframe, WalRecord};
use crate::{DurableError, FsyncPolicy};

/// The log file grows by whole segments of this many bytes: a sync whose
/// frames run past the zero-filled end writes zeros up to the next
/// multiple of it.
pub const SEGMENT_LEN: u64 = 1 << 20;

/// The zeros a segment is filled from, a page at a time: a larger block
/// would sit resident in every process that ever fills a segment.
static ZEROS: [u8; 4096] = [0; 4096];

/// One source channel's write-ahead log.
///
/// Appends go through an internal buffer that is only written (and
/// synced) at the points the [`FsyncPolicy`] dictates — deliberately
/// *not* a `BufWriter`, whose `Drop` flushes and would make every
/// simulated crash look like a clean shutdown. Dropping a `Wal` loses
/// exactly the unflushed records, which is the crash window the policy
/// promises.
///
/// The file is grown a [`SEGMENT_LEN`] segment of zeros at a time and
/// frames overwrite those zeros in place, so most syncs change no file
/// size and flush data alone, with no journal commit of a new length.
/// Zeros never scan as a frame ([`Wal::scan`]), so the tail of a segment
/// is not a torn tail.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
    /// Encoded frames not yet handed to the OS; each record is encoded
    /// straight into it.
    buf: BytesMut,
    /// Records in `buf`.
    buffered: u64,
    /// End of the last frame handed to the OS: where `buf` is written.
    pos: u64,
    /// End of the file; every byte from `pos` up to it is zero.
    zeroed_end: u64,
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

impl Wal {
    /// Open (creating if absent) the log at `path` for appending. An
    /// existing file resumes at the end of its last valid frame, over
    /// the zeros that follow it; a torn tail (non-zero bytes past the
    /// valid frames) is cut off first, so no frame is ever written in
    /// front of garbage. A fresh file stays empty until its first sync.
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
            file.set_len(valid_len)?;
            file.sync_data()?;
            valid_len
        } else {
            file.metadata()?.len()
        };
        Ok(Wal {
            path,
            file,
            policy,
            buf: BytesMut::new(),
            buffered: 0,
            pos: valid_len,
            zeroed_end,
        })
    }

    /// The file this log appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record, flushing and syncing per the policy.
    ///
    /// # Errors
    /// [`DurableError::RecordTooLarge`]; filesystem errors.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), DurableError> {
        put_frame(&mut self.buf, record.encoded_len(), |e| record.encode(e))?;
        self.buffered += 1;
        match self.policy {
            FsyncPolicy::PerRecord => self.sync()?,
            FsyncPolicy::PerBatch(n) => {
                if self.buffered >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::OnCheckpoint => {}
        }
        Ok(())
    }

    /// Force every buffered record to disk (`write` + `fdatasync`). The
    /// frames overwrite zeros in place; a batch that runs past the
    /// zero-filled end is followed by zeros up to the next segment
    /// boundary before the one `fdatasync`.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn sync(&mut self) -> Result<(), DurableError> {
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
        self.file.sync_data()?;
        Ok(())
    }

    /// Records currently exposed to a crash (appended but not synced).
    pub fn unsynced(&self) -> u64 {
        self.buffered
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
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(scan.valid_len)?;
        f.sync_data()?;
        Ok(())
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
