//! Torn-tail hardening: recovery must stop cleanly at the last valid
//! record — never panic, never replay a corrupt record — for *any*
//! truncation point and any checksum-byte corruption, over random
//! record streams.
//!
//! The exhaustive sweeps (`every byte offset` × `every checksum byte`)
//! run on a fixed stream; the proptest harness then drives the same
//! invariants over random streams × random damage.

use std::path::{Path, PathBuf};

use eca_durable::{FsyncPolicy, SourceCheckpoint, Wal, WalRecord};
use eca_relational::{SignedBag, Tuple, Update};
use proptest::prelude::*;

/// Frame header layout: `[u32 len][u64 checksum(body)]`; the log file
/// runs on past its last frame in zeros to the end of its segment, so
/// each image below is read up to `Wal::scan(..).valid_len`.
const LEN_BYTES: std::ops::Range<usize> = 0..4;
const CHECKSUM_BYTES: std::ops::Range<usize> = 4..12;

/// A temp directory private to one test (tests run in parallel in
/// one process); each test removes it once it passes.
fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("eca-durable-torn-{test}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `records` through a per-record-sync WAL in `dir` and return the
/// raw file image plus each record's frame boundary offset.
fn written_image(dir: &Path, records: &[WalRecord]) -> (Vec<u8>, Vec<usize>) {
    let path = dir.join("image.wal");
    let _ = std::fs::remove_file(&path);
    let mut wal = Wal::open(&path, FsyncPolicy::PerRecord).unwrap();
    let mut boundaries = vec![0usize];
    for r in records {
        wal.append(r).unwrap();
        boundaries.push(Wal::scan(&path).unwrap().valid_len as usize);
    }
    drop(wal);
    let valid_len = Wal::scan(&path).unwrap().valid_len as usize;
    let image = std::fs::read(&path).unwrap()[..valid_len].to_vec();
    assert_eq!(*boundaries.last().unwrap(), image.len());
    (image, boundaries)
}

fn fixed_stream() -> Vec<WalRecord> {
    vec![
        WalRecord::Update(Update::insert("r2", Tuple::ints([2, 3]))),
        WalRecord::Answer {
            id: 1,
            answer: SignedBag::from_tuples([Tuple::ints([1])]),
        },
        WalRecord::Update(Update::delete("r2", Tuple::ints([2, 3]))),
        WalRecord::EpochBump {
            notifications_lost: false,
        },
        WalRecord::EpochBump {
            notifications_lost: true,
        },
        WalRecord::Answer {
            id: 2,
            answer: SignedBag::new(),
        },
    ]
}

/// The number of whole records that survive when the file is cut at
/// byte `cut`.
fn expect_survivors(boundaries: &[usize], cut: usize) -> usize {
    boundaries.iter().take_while(|&&b| b <= cut).count() - 1
}

#[test]
fn truncation_at_every_byte_offset_of_the_final_record() {
    let dir = test_dir("trunc-final");
    let (image, boundaries) = written_image(&dir, &fixed_stream());
    let records = fixed_stream();
    let last_start = boundaries[boundaries.len() - 2];
    let path = dir.join("cut.wal");
    // Every byte offset inside the final record, including the frame
    // header bytes and the empty and full cuts.
    for cut in last_start..=image.len() {
        std::fs::write(&path, &image[..cut]).unwrap();
        let scan = Wal::scan(&path).unwrap();
        let survive = expect_survivors(&boundaries, cut);
        assert_eq!(scan.records.len(), survive, "cut at {cut}");
        assert_eq!(scan.records[..], records[..survive], "cut at {cut}");
        assert_eq!(scan.torn, cut != boundaries[survive], "cut at {cut}");
        Wal::truncate_torn_tail(&path, &scan).unwrap();
        let clean = Wal::scan(&path).unwrap();
        assert!(!clean.torn);
        assert_eq!(clean.records.len(), survive);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flips_in_every_checksum_byte_reject_the_record() {
    let dir = test_dir("flip-checksum");
    let (image, boundaries) = written_image(&dir, &fixed_stream());
    let records = fixed_stream();
    let path = dir.join("cut.wal");
    for rec in 0..records.len() {
        let start = boundaries[rec];
        for byte in CHECKSUM_BYTES {
            for bit in 0..8u8 {
                let mut evil = image.clone();
                evil[start + byte] ^= 1 << bit;
                std::fs::write(&path, &evil).unwrap();
                let scan = Wal::scan(&path).unwrap();
                // The damaged record and everything after it is gone;
                // everything before survives verbatim.
                assert_eq!(
                    scan.records.len(),
                    rec,
                    "record {rec} checksum byte {byte} bit {bit}"
                );
                assert_eq!(scan.records[..], records[..rec]);
                assert!(scan.torn);
                assert_eq!(scan.valid_len as usize, start);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn length_corruption_never_panics_or_over_reads() {
    let dir = test_dir("flip-len");
    let (image, boundaries) = written_image(&dir, &fixed_stream());
    let records = fixed_stream();
    let path = dir.join("cut.wal");
    for rec in 0..records.len() {
        let start = boundaries[rec];
        for byte in LEN_BYTES {
            for bit in 0..8u8 {
                let mut evil = image.clone();
                evil[start + byte] ^= 1 << bit;
                std::fs::write(&path, &evil).unwrap();
                let scan = Wal::scan(&path).unwrap();
                // A corrupt length can only shrink the valid prefix.
                assert!(scan.records.len() <= rec + records.len());
                assert!(scan.valid_len as usize <= evil.len());
                assert_eq!(
                    scan.records[..rec.min(scan.records.len())],
                    records[..rec.min(scan.records.len())]
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

fn arb_record() -> impl Strategy<Value = WalRecord> {
    let tuple = prop::collection::vec(-50i64..50, 1..4).prop_map(Tuple::ints);
    let bag = prop::collection::vec(
        (
            prop::collection::vec(-50i64..50, 1..4).prop_map(Tuple::ints),
            -2i64..=2,
        ),
        0..6,
    )
    .prop_map(|entries| {
        let mut bag = SignedBag::new();
        for (t, c) in entries {
            bag.add(t, c);
        }
        bag
    });
    prop_oneof![
        (any::<bool>(), "[a-z]{1,6}", tuple).prop_map(|(ins, rel, t)| {
            WalRecord::Update(if ins {
                Update::insert(rel, t)
            } else {
                Update::delete(rel, t)
            })
        }),
        (any::<u64>(), bag).prop_map(|(id, answer)| WalRecord::Answer { id, answer }),
        any::<bool>().prop_map(|notifications_lost| WalRecord::EpochBump { notifications_lost }),
    ]
}

proptest! {
    /// Random streams × random truncation points: the scan yields an
    /// exact prefix, flags the tear, and truncation heals the file.
    #[test]
    fn random_stream_truncates_to_a_clean_prefix(
        records in prop::collection::vec(arb_record(), 1..12),
        cut_ppm in 0u64..1_000_000,
    ) {
        let dir = test_dir("prop-trunc");
    let (image, boundaries) = written_image(&dir, &records);
        let cut = (image.len() as u64 * cut_ppm / 1_000_000) as usize;
        let path = dir.join("cut.wal");
        std::fs::write(&path, &image[..cut]).unwrap();
        let scan = Wal::scan(&path).unwrap();
        let survive = expect_survivors(&boundaries, cut);
        prop_assert_eq!(scan.records.len(), survive);
        prop_assert_eq!(&scan.records[..], &records[..survive]);
        Wal::truncate_torn_tail(&path, &scan).unwrap();
        let clean = Wal::scan(&path).unwrap();
        prop_assert!(!clean.torn);
        prop_assert_eq!(clean.records.len(), survive);
        // A healed log accepts appends again.
        let mut wal = Wal::open(&path, FsyncPolicy::PerRecord).unwrap();
        wal.append(&WalRecord::EpochBump {
            notifications_lost: false,
        })
        .unwrap();
        drop(wal);
        prop_assert_eq!(Wal::scan(&path).unwrap().records.len(), survive + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Random streams × a random single-byte corruption anywhere in the
    /// file: never a panic, never a record that was not written, and
    /// everything before the damaged frame survives.
    #[test]
    fn random_corruption_never_replays_garbage(
        records in prop::collection::vec(arb_record(), 1..12),
        pos_ppm in 0u64..1_000_000,
        flip in 1u8..=255,
    ) {
        let dir = test_dir("prop-flip");
    let (image, boundaries) = written_image(&dir, &records);
        let pos = ((image.len() - 1) as u64 * pos_ppm / 1_000_000) as usize;
        let mut evil = image.clone();
        evil[pos] ^= flip;
        let path = dir.join("cut.wal");
        std::fs::write(&path, &evil).unwrap();
        let scan = Wal::scan(&path).unwrap();
        // The frame containing `pos` is the first that may die.
        let damaged = expect_survivors(&boundaries, pos);
        prop_assert!(scan.records.len() <= records.len());
        let intact = damaged.min(scan.records.len());
        prop_assert_eq!(&scan.records[..intact], &records[..intact]);
        // Structural invariant: whatever scanned is a real prefix of
        // frames, so truncation is always safe.
        Wal::truncate_torn_tail(&path, &scan).unwrap();
        prop_assert!(!Wal::scan(&path).unwrap().torn);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Checkpoint files go through the same frame validation: damage is
/// detected, never deserialized.
#[test]
fn checkpoint_damage_is_detected_not_loaded() {
    let dir = test_dir("ckpt");
    let path = dir.join("s.ckpt");
    let ck = SourceCheckpoint {
        epoch: 2,
        next_global_id: 11,
        notifications_applied: 6,
        wal_gen: 1,
        views: vec![],
    };
    ck.write(&path).unwrap();
    let image = std::fs::read(&path).unwrap();
    for cut in 0..image.len() {
        std::fs::write(&path, &image[..cut]).unwrap();
        assert!(
            SourceCheckpoint::load(&path).unwrap().is_none(),
            "cut {cut}"
        );
    }
    std::fs::write(&path, &image).unwrap();
    assert!(SourceCheckpoint::load(&path).unwrap().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
