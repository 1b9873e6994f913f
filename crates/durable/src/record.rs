//! WAL record vocabulary and its frame codec.
//!
//! One record per committed maintenance event on one source channel,
//! in apply order. The log is a *redo* log of inputs: replaying the
//! records through the warehouse's ordinary event handlers re-derives
//! all view and session state deterministically (sequential global ids,
//! deterministic maintainer emissions), so nothing derived is ever
//! logged.

use std::io::{Seek, SeekFrom, Write};

use bytes::{Bytes, BytesMut};
use eca_relational::{SignedBag, Update, UpdateKind};
use eca_wire::{DecodeError, Decoder, Encoder, MAX_FRAME_LEN};

use crate::DurableError;

/// Byte length of the `[u32 len][u64 checksum]` frame header.
pub(crate) const HEADER_LEN: usize = 12;

/// One committed maintenance event on one source channel.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// An update notification was applied (fanned out to every view
    /// over the source).
    Update(Update),
    /// A query answer was applied, addressed by its session-global id.
    /// The bag rides along: at replay time the source may long since
    /// have moved past the state the answer was evaluated on.
    Answer {
        /// The session-global query id the answer resolved.
        id: u64,
        /// The answer relation as delivered.
        answer: SignedBag,
    },
    /// The session epoch was bumped by a channel reset
    /// (`Warehouse::on_reset`). Replay re-drains and re-issues exactly
    /// as the original call did.
    EpochBump {
        /// Whether notifications may have been lost (source restart →
        /// every view degraded to a resync).
        notifications_lost: bool,
    },
}

impl WalRecord {
    /// Length of the record body [`WalRecord::encode`] writes.
    pub(crate) fn encoded_len(&self) -> usize {
        match self {
            WalRecord::Update(u) => 2 + 4 + u.relation.len() + u.tuple.encoded_len(),
            WalRecord::Answer { answer, .. } => 1 + 8 + answer.encoded_len(),
            WalRecord::EpochBump { .. } => 2,
        }
    }

    /// Encode just the record body (no frame header).
    pub(crate) fn encode(&self, e: &mut Encoder) {
        match self {
            WalRecord::Update(u) => {
                e.put_u8(0);
                e.put_u8(match u.kind {
                    UpdateKind::Insert => 0,
                    UpdateKind::Delete => 1,
                });
                e.put_str(&u.relation);
                e.put_tuple(&u.tuple);
            }
            WalRecord::Answer { id, answer } => {
                e.put_u8(1);
                e.put_u64(*id);
                e.put_bag(answer);
            }
            WalRecord::EpochBump { notifications_lost } => {
                e.put_u8(2);
                e.put_u8(u8::from(*notifications_lost));
            }
        }
    }

    /// Decode a record body (the frame's checksum already verified).
    ///
    /// # Errors
    /// [`DecodeError`] on a malformed body.
    pub fn decode_body(bytes: Bytes) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let rec = match d.get_u8()? {
            0 => {
                let kind = match d.get_u8()? {
                    0 => UpdateKind::Insert,
                    1 => UpdateKind::Delete,
                    tag => {
                        return Err(DecodeError::BadTag {
                            context: "WalRecord update kind",
                            tag,
                        })
                    }
                };
                let relation = d.get_str()?;
                let tuple = d.get_tuple()?;
                WalRecord::Update(Update {
                    relation,
                    kind,
                    tuple,
                })
            }
            1 => WalRecord::Answer {
                id: d.get_u64()?,
                answer: d.get_bag()?,
            },
            2 => WalRecord::EpochBump {
                notifications_lost: d.get_u8()? != 0,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    context: "WalRecord",
                    tag,
                })
            }
        };
        Ok(rec)
    }
}

/// FNV-1a over `bytes`: the frame checksum.
fn fnv1a_checksum(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// FNV-1a continued from the hash `h` of the bytes before `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

/// One frame laid out as [`put_frame`] lays it out, written to the start
/// of `out` while its body is encoded: the body passes through a buffer
/// of about 64 KiB on its way, its checksum is kept as it goes, and the
/// header goes last, over the zeros that held its place. However large
/// the frame, it never sits in memory whole.
pub(crate) struct FrameWriter<W: Write + Seek> {
    out: W,
    pending: Encoder,
    checksum: u64,
    written: usize,
}

impl<W: Write + Seek> FrameWriter<W> {
    /// Bytes gathered before they are passed on to the writer.
    const CHUNK: usize = 64 * 1024;

    pub(crate) fn new(mut out: W) -> std::io::Result<Self> {
        out.write_all(&[0; HEADER_LEN])?;
        Ok(FrameWriter {
            out,
            pending: Encoder::new(),
            checksum: fnv1a_checksum(&[]),
            written: 0,
        })
    }

    /// Where the next piece of the body is encoded. Call
    /// [`FrameWriter::pass_on`] between pieces.
    pub(crate) fn encoder(&mut self) -> &mut Encoder {
        &mut self.pending
    }

    /// Pass the encoded bytes on once they fill a chunk.
    pub(crate) fn pass_on(&mut self) -> std::io::Result<()> {
        if self.pending.len() >= Self::CHUNK {
            self.flush()?;
        }
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let mut buf = std::mem::take(&mut self.pending).into_buf();
        self.checksum = fnv1a_extend(self.checksum, buf.as_ref());
        self.written += buf.len();
        self.out.write_all(buf.as_ref())?;
        buf.clear();
        self.pending = Encoder::with_buf(buf);
        Ok(())
    }

    /// Write the last bytes and then the header; hand the writer back.
    /// `body_len` is the length the body was expected to have.
    ///
    /// # Errors
    /// [`DurableError::RecordTooLarge`] past [`MAX_FRAME_LEN`]; I/O
    /// errors.
    pub(crate) fn finish(mut self, body_len: usize) -> Result<W, DurableError> {
        self.flush()?;
        debug_assert_eq!(self.written, body_len, "frame body length hint");
        if self.written > MAX_FRAME_LEN {
            return Err(DurableError::RecordTooLarge { len: self.written });
        }
        self.out.seek(SeekFrom::Start(0))?;
        self.out.write_all(&(self.written as u32).to_be_bytes())?;
        self.out.write_all(&self.checksum.to_be_bytes())?;
        Ok(self.out)
    }
}

/// Append one frame `[u32 len][u64 fnv1a(body)][body]` to `out`, with
/// the body encoded in place: room for the header and the `body_len`
/// bytes `encode` will write is reserved first, the header is written as
/// zeros and back-filled once the body is there. No intermediate buffer,
/// no copy. On error `out` is left as it was.
///
/// # Errors
/// [`DurableError::RecordTooLarge`] past [`MAX_FRAME_LEN`].
pub(crate) fn put_frame(
    out: &mut BytesMut,
    body_len: usize,
    encode: impl FnOnce(&mut Encoder),
) -> Result<(), DurableError> {
    let start = out.len();
    out.reserve(HEADER_LEN + body_len);
    let mut e = Encoder::with_buf(std::mem::take(out));
    e.put_u32(0);
    e.put_u64(0);
    encode(&mut e);
    *out = e.into_buf();
    let len = out.len() - start - HEADER_LEN;
    debug_assert_eq!(len, body_len, "frame body length hint");
    if len > MAX_FRAME_LEN {
        out.truncate(start);
        return Err(DurableError::RecordTooLarge { len });
    }
    let frame = &mut out.as_mut()[start..];
    let checksum = fnv1a_checksum(&frame[HEADER_LEN..]);
    frame[..4].copy_from_slice(&(len as u32).to_be_bytes());
    frame[4..HEADER_LEN].copy_from_slice(&checksum.to_be_bytes());
    Ok(())
}

/// Try to lift one frame off `buf[offset..]`.
///
/// Returns `Some((body, next_offset))` when a complete frame with a
/// valid length and matching checksum starts at `offset`; `None` for
/// anything else — a partial header, a length past the cap or past the
/// buffer end, or a checksum mismatch. `None` is the torn-tail signal:
/// the caller stops scanning and truncates at `offset`.
///
/// The body is a slice of `buf`, sharing its allocation.
pub(crate) fn unframe(buf: &Bytes, offset: usize) -> Option<(Bytes, usize)> {
    let rest = buf.get(offset..)?;
    if rest.len() < HEADER_LEN {
        return None;
    }
    let len = u32::from_be_bytes(rest[0..4].try_into().ok()?) as usize;
    if len > MAX_FRAME_LEN || rest.len() < HEADER_LEN + len {
        return None;
    }
    let want = u64::from_be_bytes(rest[4..12].try_into().ok()?);
    let body = &rest[HEADER_LEN..HEADER_LEN + len];
    if fnv1a_checksum(body) != want {
        return None;
    }
    let body_start = offset + HEADER_LEN;
    Some((buf.slice(body_start..body_start + len), body_start + len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eca_relational::Tuple;

    fn samples() -> Vec<WalRecord> {
        vec![
            WalRecord::Update(Update::insert("r1", Tuple::ints([1, 2]))),
            WalRecord::Update(Update::delete("r2", Tuple::ints([7]))),
            WalRecord::Answer {
                id: 42,
                answer: SignedBag::from_tuples([Tuple::ints([1]), Tuple::ints([4])]),
            },
            WalRecord::EpochBump {
                notifications_lost: true,
            },
            WalRecord::EpochBump {
                notifications_lost: false,
            },
        ]
    }

    fn framed(rec: &WalRecord) -> Bytes {
        let mut out = BytesMut::new();
        put_frame(&mut out, rec.encoded_len(), |e| rec.encode(e)).unwrap();
        out.freeze()
    }

    #[test]
    fn records_roundtrip() {
        for rec in samples() {
            let mut e = Encoder::new();
            rec.encode(&mut e);
            assert_eq!(e.len(), rec.encoded_len(), "{rec:?}");
            assert_eq!(WalRecord::decode_body(e.finish()).unwrap(), rec);
        }
    }

    #[test]
    fn frames_roundtrip_and_reject_flips() {
        for rec in samples() {
            let framed = framed(&rec);
            let (got, next) = unframe(&framed, 0).expect("intact frame");
            assert_eq!(next, framed.len());
            assert_eq!(WalRecord::decode_body(got).unwrap(), rec);

            // Any single bit flip anywhere in the frame is rejected
            // (header: bad length or checksum; body: checksum mismatch).
            for byte in 0..framed.len() {
                for bit in 0..8 {
                    let mut evil = framed.to_vec();
                    evil[byte] ^= 1 << bit;
                    if let Some((body, _)) = unframe(&Bytes::from(evil), 0) {
                        // A length flip can only "succeed" by pointing
                        // at a shorter prefix whose checksum happens to
                        // match — impossible here since the checksum
                        // bytes would need to match the new body too.
                        panic!(
                            "flip at byte {byte} bit {bit} yielded a frame: {:?}",
                            body.as_slice()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn oversized_record_is_refused() {
        let first = WalRecord::EpochBump {
            notifications_lost: false,
        };
        let mut out = BytesMut::new();
        put_frame(&mut out, first.encoded_len(), |e| first.encode(e)).unwrap();
        let body = "\0".repeat(MAX_FRAME_LEN);
        assert!(matches!(
            put_frame(&mut out, 4 + body.len(), |e| e.put_str(&body)),
            Err(DurableError::RecordTooLarge { .. })
        ));
        assert_eq!(out.freeze(), framed(&first), "earlier frames untouched");
    }
}
