//! The append-only log file: buffered writes, policy-driven syncs,
//! torn-tail scanning.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use bytes::{Bytes, BytesMut};

use crate::record::{put_frame, unframe, WalRecord};
use crate::{DurableError, FsyncPolicy};

/// One source channel's write-ahead log.
///
/// Appends go through an internal buffer that is only written (and
/// synced) at the points the [`FsyncPolicy`] dictates — deliberately
/// *not* a `BufWriter`, whose `Drop` flushes and would make every
/// simulated crash look like a clean shutdown. Dropping a `Wal` loses
/// exactly the unflushed records, which is the crash window the policy
/// promises.
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
}

/// The result of scanning a log file from disk.
#[derive(Debug)]
pub struct WalScan {
    /// Every record up to the last valid frame, in append order.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last valid frame — where a torn
    /// tail was (or would be) truncated.
    pub valid_len: u64,
    /// Whether bytes past `valid_len` existed (partial write or
    /// corruption); they are never replayed.
    pub torn: bool,
}

impl Wal {
    /// Open (creating if absent) the log at `path` for appending.
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn open(path: impl Into<PathBuf>, policy: FsyncPolicy) -> Result<Self, DurableError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            path,
            file,
            policy,
            buf: BytesMut::new(),
            buffered: 0,
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

    /// Force every buffered record to disk (`write` + `fdatasync`).
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        if !self.buf.is_empty() {
            self.file.write_all(self.buf.as_ref())?;
            self.buf.clear();
        }
        self.buffered = 0;
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
    /// frame. A missing file scans as empty.
    ///
    /// # Errors
    /// Filesystem errors other than "not found"; [`DurableError::Decode`]
    /// when a checksum-valid body fails to parse (version skew — never
    /// silently skipped).
    pub fn scan(path: &Path) -> Result<WalScan, DurableError> {
        let raw = match std::fs::read(path) {
            Ok(raw) => Bytes::from(raw),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Bytes::new(),
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let mut offset = 0usize;
        while let Some((body, next)) = unframe(&raw, offset) {
            records.push(WalRecord::decode_body(body)?);
            offset = next;
        }
        Ok(WalScan {
            records,
            valid_len: offset as u64,
            torn: offset < raw.len(),
        })
    }

    /// Truncate a log file at its last valid record, so future appends
    /// never interleave with garbage. No-op for a clean (or missing)
    /// file.
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
        let full = std::fs::read(&path).unwrap();
        let intact = Wal::scan(&path).unwrap();
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
