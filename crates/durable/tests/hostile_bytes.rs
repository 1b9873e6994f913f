//! Hostile bytes: `Wal::scan`, `Wal::open` and `SourceCheckpoint::load`
//! on files no log or checkpoint wrote — random files, zero tails,
//! garbage after zeros, huge length prefixes in frame headers and in
//! checksum-valid bodies. Every call returns a typed result or `None`,
//! never panics, and allocates no more than a small multiple of the
//! file's size.
//!
//! Checksum-valid frames around hostile bodies are built here from the
//! documented layout (`[u32 MARK | len][u64 checksum][body]`, DESIGN
//! §15); `reference_frame_is_what_the_log_writes` keeps that copy honest.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

use eca_durable::{
    DurableError, FsyncPolicy, SourceCheckpoint, ViewCheckpoint, Wal, WalRecord, SEGMENT_LEN,
};
use eca_relational::{SignedBag, Tuple, Update};

/// Counts the bytes live on each thread, and their peak.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call is passed straight to `System`; the counters are
// const-initialised thread-locals of `Cell<isize>`, which neither
// allocate nor register a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Run `f` and return its result with the most bytes it held at once.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start).max(0) as usize)
}

/// What a load may hold at once: the file, a few times over for what it
/// decodes into, and a fixed allowance.
fn budget(file_len: usize) -> usize {
    16 * file_len + 64 * 1024
}

/// splitmix64: a small deterministic source of hostile bytes.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// The frame checksum as DESIGN §15 specifies it.
fn checksum(body: &[u8]) -> u64 {
    let step = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    };
    let mut h = 0xcbf2_9ce4_8422_2325;
    for word in body.chunks(8) {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        h = step(h, u64::from_le_bytes(w));
    }
    step(h, body.len() as u64)
}

/// `body` in a frame that passes the length and checksum checks.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32 | 1 << 31).to_be_bytes().to_vec();
    out.extend_from_slice(&checksum(body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

fn test_dir(test: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("eca-durable-hostile-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Scan, load and open `bytes` as a file: no panic, a typed outcome,
/// and allocation within the budget. Returns the scan.
fn survive(path: &Path, bytes: &[u8]) -> Result<eca_durable::WalScan, DurableError> {
    std::fs::write(path, bytes).unwrap();
    let (scan, held) = peak_alloc(|| Wal::scan(path));
    assert!(
        held <= budget(bytes.len()),
        "scan of {} bytes held {held}",
        bytes.len()
    );
    let (load, held) = peak_alloc(|| SourceCheckpoint::load(path));
    assert!(
        held <= budget(bytes.len()),
        "load of {} bytes held {held}",
        bytes.len()
    );
    match load {
        Ok(_) | Err(DurableError::Decode(_)) => {}
        Err(e) => panic!("load of hostile bytes: {e}"),
    }
    if let Ok(scan) = &scan {
        // Opening resumes at the valid prefix and never appends after
        // whatever followed it.
        let mut wal = Wal::open(path, FsyncPolicy::PerRecord).unwrap();
        wal.append(&WalRecord::EpochBump {
            notifications_lost: false,
        })
        .unwrap();
        drop(wal);
        let again = Wal::scan(path).unwrap();
        assert!(!again.torn);
        assert_eq!(again.records.len(), scan.records.len() + 1);
        assert_eq!(again.records[..scan.records.len()], scan.records[..]);
    }
    scan
}

fn sample_records() -> Vec<WalRecord> {
    vec![
        WalRecord::Update(Update::insert("r1", Tuple::ints([1, 2]))),
        WalRecord::Answer {
            id: 3,
            answer: SignedBag::from_tuples([Tuple::ints([4]), Tuple::ints([5])]),
        },
        WalRecord::EpochBump {
            notifications_lost: true,
        },
    ]
}

/// The frames of `records` as the log writes them, without the zeros
/// after them.
fn logged(dir: &Path, records: &[WalRecord]) -> Vec<u8> {
    let path = dir.join("logged.wal");
    let _ = std::fs::remove_file(&path);
    let mut wal = Wal::open(&path, FsyncPolicy::OnCheckpoint).unwrap();
    for r in records {
        wal.append(r).unwrap();
    }
    wal.sync().unwrap();
    drop(wal);
    let image = std::fs::read(&path).unwrap();
    assert_eq!(image.len() as u64 % SEGMENT_LEN, 0, "whole segments");
    let valid = Wal::scan(&path).unwrap().valid_len as usize;
    image[..valid].to_vec()
}

#[test]
fn reference_frame_is_what_the_log_writes() {
    let dir = test_dir("reference");
    let record = &sample_records()[1];
    let image = logged(&dir, std::slice::from_ref(record));
    assert_eq!(frame(&image[12..]), image);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn random_files_scan_and_load_to_nothing() {
    let dir = test_dir("random");
    let path = dir.join("h.bin");
    let mut rng = Rng(1);
    for round in 0..400 {
        let len = rng.below(2048) as usize;
        let bytes = rng.bytes(len);
        let scan = survive(&path, &bytes).expect("random bytes never pass a checksum");
        assert!(scan.records.is_empty(), "round {round}");
        assert_eq!(scan.valid_len, 0);
        assert_eq!(scan.torn, bytes.iter().any(|&b| b != 0));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_tails_are_clean_and_garbage_after_them_is_torn() {
    let dir = test_dir("zeros");
    let path = dir.join("h.wal");
    let records = sample_records();
    let frames = logged(&dir, &records);
    let mut rng = Rng(2);
    for round in 0..200 {
        let zeros = rng.below(3000) as usize;
        let mut bytes = frames.clone();
        bytes.resize(frames.len() + zeros, 0);
        let scan = survive(&path, &bytes).unwrap();
        assert_eq!(scan.records, records, "round {round}");
        assert_eq!(scan.valid_len as usize, frames.len());
        assert!(!scan.torn, "zeros are not a torn tail");

        // Garbage after the zeros: the records stand, the file is torn,
        // and truncation heals it.
        let garbage = 1 + rng.below(64) as usize;
        let mut tail = rng.bytes(garbage);
        tail[0] |= 1;
        bytes.extend_from_slice(&tail);
        let scan = survive(&path, &bytes).unwrap();
        assert_eq!(scan.records, records);
        assert_eq!(scan.valid_len as usize, frames.len());
        assert!(scan.torn);
        std::fs::write(&path, &bytes).unwrap();
        Wal::truncate_torn_tail(&path, &scan).unwrap();
        assert!(!Wal::scan(&path).unwrap().torn);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn huge_length_prefixes_are_refused_cheaply() {
    let dir = test_dir("huge");
    let path = dir.join("h.bin");
    let frames = logged(&dir, &sample_records());
    // Frame headers that claim more than the cap or than the file.
    for len in [0x7fff_ffffu32, 0x00ff_ffff, 16 << 20, (16 << 20) + 1, 4096] {
        for mark in [0, 1u32 << 31] {
            let mut bytes = frames.clone();
            bytes.extend_from_slice(&(len | mark).to_be_bytes());
            bytes.extend_from_slice(&[0xab; 40]);
            let scan = survive(&path, &bytes).unwrap();
            assert_eq!(scan.records.len(), 3);
            assert!(scan.torn);
        }
    }
    // Checksum-valid bodies whose counts claim far more than they hold.
    let max32 = u32::MAX.to_be_bytes();
    let hostile_records: Vec<Vec<u8>> = vec![
        // Answer: id, then a bag of 2^32 - 1 occurrences.
        [&[1u8][..], &7u64.to_be_bytes(), &max32].concat(),
        // Answer: one occurrence of a 65535-ary tuple.
        [
            &[1u8][..],
            &7u64.to_be_bytes(),
            &1u32.to_be_bytes(),
            &[0, 0xff, 0xff],
        ]
        .concat(),
        // Update: a relation name of 2^32 - 1 bytes.
        [&[0u8, 0][..], &max32].concat(),
        // Update: a string value of 2^32 - 1 bytes.
        [&[0u8, 0, 0, 0, 0, 1, b'r', 0, 1, 1][..], &max32].concat(),
    ];
    for body in &hostile_records {
        let mut bytes = frames.clone();
        bytes.extend_from_slice(&frame(body));
        assert!(matches!(
            survive(&path, &bytes),
            Err(DurableError::Decode(_))
        ));
    }
    let counters = [1u64, 2, 3, 4].map(u64::to_be_bytes).concat();
    let hostile_checkpoints: Vec<Vec<u8>> = vec![
        // 2^32 - 1 views.
        [&counters[..], &max32].concat(),
        // One view whose bag claims 2^32 - 1 occurrences.
        [&counters[..], &1u32.to_be_bytes(), &max32].concat(),
        // One empty view with 2^32 - 1 auxiliary slots.
        [
            &counters[..],
            &1u32.to_be_bytes(),
            &0u32.to_be_bytes(),
            &max32,
        ]
        .concat(),
        // One view of one 65535-ary tuple.
        [
            &counters[..],
            &1u32.to_be_bytes(),
            &1u32.to_be_bytes(),
            &[0, 0xff, 0xff],
        ]
        .concat(),
    ];
    for body in &hostile_checkpoints {
        let bytes = frame(body);
        std::fs::write(&path, &bytes).unwrap();
        let (load, held) = peak_alloc(|| SourceCheckpoint::load(&path));
        assert!(matches!(load, Err(DurableError::Decode(_))), "{load:?}");
        assert!(held <= budget(bytes.len()), "held {held}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checksum_valid_random_bodies_decode_or_refuse() {
    let dir = test_dir("bodies");
    let path = dir.join("h.bin");
    let mut rng = Rng(3);
    for _ in 0..400 {
        // A plausible start (a record tag, small counts) then noise, so
        // decoding gets past the first field.
        let len = rng.below(512) as usize;
        let mut body = rng.bytes(len);
        if let Some(tag) = body.first_mut() {
            *tag %= 4;
        }
        let bytes = frame(&body);
        match survive(&path, &bytes) {
            Ok(scan) => assert!(scan.records.len() <= 1),
            Err(DurableError::Decode(_)) => {}
            Err(e) => panic!("scan of a hostile body: {e}"),
        }
        // The same body as a checkpoint.
        std::fs::write(&path, &bytes).unwrap();
        let (load, held) = peak_alloc(|| SourceCheckpoint::load(&path));
        assert!(matches!(load, Ok(_) | Err(DurableError::Decode(_))));
        assert!(held <= budget(bytes.len()), "held {held}");
    }
    // A real checkpoint loads; the same frame with a zero tail is damage.
    let ck = SourceCheckpoint {
        epoch: 1,
        next_global_id: 2,
        notifications_applied: 3,
        wal_gen: 4,
        views: vec![ViewCheckpoint {
            mv: SignedBag::from_tuples([Tuple::ints([9])]),
            aux: Vec::new(),
        }],
    };
    ck.write(&path).unwrap();
    assert_eq!(SourceCheckpoint::load(&path).unwrap(), Some(ck));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&[0; 16]);
    std::fs::write(&path, &bytes).unwrap();
    assert!(SourceCheckpoint::load(&path).unwrap().is_none());
    let _ = std::fs::remove_dir_all(&dir);
}
