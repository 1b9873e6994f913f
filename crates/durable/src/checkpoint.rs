//! Quiescent checkpoints of one source channel's warehouse state.
//!
//! A checkpoint is cut only when the channel is settled (`UQS = ∅`, no
//! pending queries, every view active and quiescent), so it never has
//! to serialize in-flight compensation state: per view it is the
//! materialized bag plus any auxiliary-view bags, and per channel the
//! session epoch, the next global query id and the
//! notifications-applied watermark. Written atomically: temp file,
//! sync, rename, directory sync — a crash mid-checkpoint leaves the
//! previous checkpoint intact.

use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};
use std::path::Path;

use bytes::Bytes;
use eca_core::AuxDurableState;
use eca_relational::SignedBag;
use eca_wire::{DecodeError, Decoder, MAX_FRAME_LEN};

use crate::record::{unframe, FrameWriter};
use crate::DurableError;

/// One auxiliary-view slot inside a view checkpoint.
pub type AuxCheckpoint = AuxDurableState;

/// The durable state of one hosted view at a quiescent point.
#[derive(Clone, Debug, PartialEq)]
pub struct ViewCheckpoint {
    /// The materialized view bag.
    pub mv: SignedBag,
    /// Algorithm-specific auxiliary state
    /// ([`eca_core::ViewMaintainer::checkpoint_aux`]), empty for the
    /// paper's non-self-maintaining algorithms.
    pub aux: Vec<AuxCheckpoint>,
}

/// The durable state of one source channel at a quiescent point.
#[derive(Clone, Debug, PartialEq)]
pub struct SourceCheckpoint {
    /// Session epoch at checkpoint time.
    pub epoch: u64,
    /// Next session-global query id — replayed events must re-allocate
    /// the exact ids the original run used, so answers route by id.
    pub next_global_id: u64,
    /// Effective update notifications applied on this channel over its
    /// whole life — the watermark incremental resync resumes from.
    pub notifications_applied: u64,
    /// Generation of the *only* WAL file this checkpoint pairs with
    /// ([`crate::DurabilityConfig::wal_path`]). Cutting a checkpoint
    /// rotates to a fresh generation, so records covered by the
    /// checkpoint can never be replayed on top of it.
    pub wal_gen: u64,
    /// One entry per view over this source, in registration order.
    pub views: Vec<ViewCheckpoint>,
}

impl SourceCheckpoint {
    /// Length of the body [`SourceCheckpoint::encode_body`] writes.
    fn encoded_len(&self) -> usize {
        let views: usize = self
            .views
            .iter()
            .map(|v| {
                let aux: usize = v.aux.iter().map(|a| 1 + a.bag.encoded_len()).sum();
                v.mv.encoded_len() + 4 + aux
            })
            .sum();
        4 * 8 + 4 + views
    }

    fn encode_body<W: Write + Seek>(&self, w: &mut FrameWriter<W>) -> std::io::Result<()> {
        let e = w.encoder();
        e.put_u64(self.epoch);
        e.put_u64(self.next_global_id);
        e.put_u64(self.notifications_applied);
        e.put_u64(self.wal_gen);
        e.put_u32(self.views.len() as u32);
        for v in &self.views {
            put_bag(w, &v.mv)?;
            w.encoder().put_u32(v.aux.len() as u32);
            for a in &v.aux {
                w.encoder().put_u8(u8::from(a.fresh));
                put_bag(w, &a.bag)?;
            }
        }
        Ok(())
    }

    fn decode_body(bytes: Bytes) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let epoch = d.get_u64()?;
        let next_global_id = d.get_u64()?;
        let notifications_applied = d.get_u64()?;
        let wal_gen = d.get_u64()?;
        let n_views = d.get_u32()? as usize;
        let mut views = Vec::with_capacity(n_views.min(1024));
        for _ in 0..n_views {
            let mv = d.get_bag()?;
            let n_aux = d.get_u32()? as usize;
            let mut aux = Vec::with_capacity(n_aux.min(1024));
            for _ in 0..n_aux {
                let fresh = d.get_u8()? != 0;
                let bag = d.get_bag()?;
                aux.push(AuxCheckpoint { fresh, bag });
            }
            views.push(ViewCheckpoint { mv, aux });
        }
        Ok(SourceCheckpoint {
            epoch,
            next_global_id,
            notifications_applied,
            wal_gen,
            views,
        })
    }

    /// Write atomically to `path`: temp file + sync + rename + dir
    /// sync. The body is framed exactly like a WAL record, so the same
    /// length/checksum validation guards it, and streamed to the file as
    /// it is encoded (`FrameWriter`): a multi-megabyte frame buffer per
    /// checkpoint left the process's resident set to where the allocator
    /// happened to place each one.
    ///
    /// # Errors
    /// [`DurableError::RecordTooLarge`] past [`eca_wire::MAX_FRAME_LEN`];
    /// filesystem errors.
    pub fn write(&self, path: &Path) -> Result<(), DurableError> {
        let len = self.encoded_len();
        if len > MAX_FRAME_LEN {
            return Err(DurableError::RecordTooLarge { len });
        }
        let tmp = path.with_extension("ckpt.tmp");
        {
            let f = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&tmp)?;
            let mut w = FrameWriter::new(f)?;
            self.encode_body(&mut w)?;
            w.finish(len)?.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        if let Some(dir) = path.parent() {
            // Make the rename itself durable.
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_data();
            }
        }
        Ok(())
    }

    /// Load a checkpoint. `Ok(None)` when the file is missing, torn or
    /// checksum-invalid — the caller falls back to a full resync rather
    /// than trusting a damaged snapshot.
    ///
    /// # Errors
    /// Filesystem errors other than "not found"; [`DurableError::Decode`]
    /// when a checksum-valid body fails to parse.
    pub fn load(path: &Path) -> Result<Option<Self>, DurableError> {
        let raw = match std::fs::read(path) {
            Ok(raw) => Bytes::from(raw),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        let Some((body, end)) = unframe(&raw, 0) else {
            return Ok(None);
        };
        if end != raw.len() {
            // Trailing garbage after the frame: treat as damage.
            return Ok(None);
        }
        Ok(Some(SourceCheckpoint::decode_body(body)?))
    }
}

/// [`eca_wire::Encoder::put_bag`]'s layout — a `u32` occurrence count,
/// then per occurrence a sign byte and the tuple — passed on to `w` as
/// it goes.
fn put_bag<W: Write + Seek>(w: &mut FrameWriter<W>, bag: &SignedBag) -> std::io::Result<()> {
    w.encoder().put_u32((bag.pos_len() + bag.neg_len()) as u32);
    for (tuple, count) in bag.iter() {
        let sign = u8::from(count < 0);
        for _ in 0..count.unsigned_abs() {
            let e = w.encoder();
            e.put_u8(sign);
            e.put_tuple(tuple);
        }
        w.pass_on()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("eca-durable-ckpt-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> SourceCheckpoint {
        SourceCheckpoint {
            epoch: 3,
            next_global_id: 17,
            notifications_applied: 9,
            wal_gen: 2,
            views: vec![
                ViewCheckpoint {
                    mv: SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])]),
                    aux: vec![],
                },
                ViewCheckpoint {
                    mv: SignedBag::new(),
                    aux: vec![
                        AuxCheckpoint {
                            fresh: true,
                            bag: SignedBag::from_tuples([Tuple::ints([2, 3])]),
                        },
                        AuxCheckpoint {
                            fresh: false,
                            bag: SignedBag::new(),
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn write_load_roundtrip() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("s.ckpt");
        let ck = sample();
        ck.write(&path).unwrap();
        assert_eq!(SourceCheckpoint::load(&path).unwrap().unwrap(), ck);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streamed_frame_is_the_in_memory_frame() {
        // Bags large enough that the body crosses many 64 KiB chunks.
        let mut big = SignedBag::new();
        for i in 0..20_000 {
            big.add(Tuple::ints([i, i % 7]), if i % 5 == 0 { -2 } else { 1 });
        }
        let mut ck = sample();
        ck.views[1].mv = big.clone();
        ck.views[1].aux[1].bag = big.negated();
        let dir = tmpdir("streamed");
        let path = dir.join("s.ckpt");
        ck.write(&path).unwrap();
        // The reference: the whole body in one buffer, through the wire
        // codec's own `put_bag`.
        let mut framed = bytes::BytesMut::new();
        crate::record::put_frame(&mut framed, ck.encoded_len(), |e| {
            e.put_u64(ck.epoch);
            e.put_u64(ck.next_global_id);
            e.put_u64(ck.notifications_applied);
            e.put_u64(ck.wal_gen);
            e.put_u32(ck.views.len() as u32);
            for v in &ck.views {
                e.put_bag(&v.mv);
                e.put_u32(v.aux.len() as u32);
                for a in &v.aux {
                    e.put_u8(u8::from(a.fresh));
                    e.put_bag(&a.bag);
                }
            }
        })
        .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), framed.as_ref());
        assert_eq!(SourceCheckpoint::load(&path).unwrap().unwrap(), ck);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_loads_none() {
        let dir = tmpdir("missing");
        let path = dir.join("absent.ckpt");
        let _ = std::fs::remove_file(&path);
        assert!(SourceCheckpoint::load(&path).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_checkpoint_loads_none_at_every_truncation_and_flip() {
        let dir = tmpdir("damage");
        let path = dir.join("s.ckpt");
        sample().write(&path).unwrap();
        let full = std::fs::read(&path).unwrap();
        let p = dir.join("cut.ckpt");
        for cut in 0..full.len() {
            std::fs::write(&p, &full[..cut]).unwrap();
            assert!(
                SourceCheckpoint::load(&p).unwrap().is_none(),
                "truncation at {cut} must not load"
            );
        }
        for byte in 0..full.len() {
            let mut evil = full.clone();
            evil[byte] ^= 0x40;
            std::fs::write(&p, &evil).unwrap();
            assert!(
                SourceCheckpoint::load(&p).unwrap().is_none(),
                "flip at {byte} must not load"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rewrite_replaces_atomically() {
        let dir = tmpdir("rewrite");
        let path = dir.join("s.ckpt");
        let mut ck = sample();
        ck.write(&path).unwrap();
        ck.epoch = 99;
        ck.write(&path).unwrap();
        assert_eq!(SourceCheckpoint::load(&path).unwrap().unwrap().epoch, 99);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
