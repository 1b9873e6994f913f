//! A compact binary codec for relational values and messages.
//!
//! The encoding is deliberately simple and deterministic:
//!
//! * `Value::Int` — tag `0`, 8-byte big-endian payload.
//! * `Value::Str` — tag `1`, u32 length prefix, UTF-8 bytes.
//! * `Tuple` — u16 arity, then each value.
//! * `SignedBag` — u32 *occurrence* count, then per occurrence a sign byte
//!   and the tuple. Occurrences (not distinct tuples) are what travel on
//!   the wire, matching the paper's per-tuple byte accounting.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use eca_relational::{SignedBag, Tuple, Value};

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended before the value was complete.
    UnexpectedEof,
    /// An unknown tag byte was encountered.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of buffer"),
            DecodeError::BadTag { context, tag } => write!(f, "bad tag {tag} decoding {context}"),
            DecodeError::BadUtf8 => write!(f, "invalid UTF-8 in string value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Streaming encoder over a growable buffer.
#[derive(Default)]
pub struct Encoder {
    buf: BytesMut,
}

impl Encoder {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Continue writing at the end of `buf` — e.g. to encode a frame in
    /// place behind earlier frames. [`Encoder::into_buf`] hands it back.
    pub fn with_buf(buf: BytesMut) -> Self {
        Encoder { buf }
    }

    /// Finish and take the encoded bytes.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    /// Finish and take the growable buffer back, without copying.
    pub fn into_buf(self) -> BytesMut {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Write a raw u8.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    /// Write a raw u16 (big-endian).
    pub fn put_u16(&mut self, v: u16) {
        self.buf.put_u16(v);
    }

    /// Write a raw u32 (big-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Write a raw u64 (big-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Write a raw i64 (big-endian).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64(v);
    }

    /// Write a length-prefixed string.
    pub fn put_str(&mut self, s: &str) {
        self.buf.put_u32(s.len() as u32);
        self.buf.put_slice(s.as_bytes());
    }

    /// Write a value with its tag.
    pub fn put_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => {
                self.buf.put_u8(0);
                self.buf.put_i64(*i);
            }
            Value::Str(s) => {
                self.buf.put_u8(1);
                self.put_str(s);
            }
        }
    }

    /// Write a tuple.
    pub fn put_tuple(&mut self, t: &Tuple) {
        self.buf.put_u16(t.arity() as u16);
        for v in t.values() {
            self.put_value(v);
        }
    }

    /// Write a signed bag as a stream of occurrences.
    ///
    /// One pass over the bag by reference: the occurrence count is summed
    /// while the tuples are written and patched into the header after.
    pub fn put_bag(&mut self, bag: &SignedBag) {
        let header = self.buf.len();
        self.buf.put_u32(0);
        let mut occurrences = 0u64;
        for (tuple, count) in bag.iter() {
            let sign = u8::from(count < 0);
            for _ in 0..count.unsigned_abs() {
                self.buf.put_u8(sign);
                self.put_tuple(tuple);
            }
            occurrences += count.unsigned_abs();
        }
        self.buf.as_mut()[header..header + 4].copy_from_slice(&(occurrences as u32).to_be_bytes());
    }
}

/// Streaming decoder over a byte slice.
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Decode from the given bytes.
    pub fn new(buf: Bytes) -> Self {
        Decoder { buf }
    }

    /// Remaining undecoded bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError::UnexpectedEof)
        } else {
            Ok(())
        }
    }

    /// Read a u8.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// Read a u16.
    pub fn get_u16(&mut self) -> Result<u16, DecodeError> {
        self.need(2)?;
        Ok(self.buf.get_u16())
    }

    /// Read a u32.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    /// Read a u64.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    /// Read an i64.
    pub fn get_i64(&mut self) -> Result<i64, DecodeError> {
        self.need(8)?;
        Ok(self.buf.get_i64())
    }

    /// Read a length-prefixed string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let len = self.get_u32()? as usize;
        self.need(len)?;
        let bytes = self.buf.copy_to_bytes(len);
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Read a tagged value.
    pub fn get_value(&mut self) -> Result<Value, DecodeError> {
        match self.get_u8()? {
            0 => Ok(Value::Int(self.get_i64()?)),
            1 => Ok(Value::str(self.get_str()?)),
            tag => Err(DecodeError::BadTag {
                context: "Value",
                tag,
            }),
        }
    }

    /// Read a tuple.
    pub fn get_tuple(&mut self) -> Result<Tuple, DecodeError> {
        let arity = self.get_u16()? as usize;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(self.get_value()?);
        }
        Ok(Tuple::new(values))
    }

    /// Read a signed bag (stream of occurrences).
    pub fn get_bag(&mut self) -> Result<SignedBag, DecodeError> {
        let n = self.get_u32()?;
        let mut bag = SignedBag::new();
        for _ in 0..n {
            let sign = match self.get_u8()? {
                0 => 1i64,
                1 => -1i64,
                tag => {
                    return Err(DecodeError::BadTag {
                        context: "Sign",
                        tag,
                    })
                }
            };
            let tuple = self.get_tuple()?;
            bag.add(tuple, sign);
        }
        Ok(bag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bag(bag: &SignedBag) -> SignedBag {
        let mut e = Encoder::new();
        e.put_bag(bag);
        let mut d = Decoder::new(e.finish());
        let out = d.get_bag().unwrap();
        assert_eq!(d.remaining(), 0);
        out
    }

    #[test]
    fn value_roundtrip() {
        for v in [
            Value::Int(-5),
            Value::Int(i64::MAX),
            Value::str(""),
            Value::str("héllo"),
        ] {
            let mut e = Encoder::new();
            e.put_value(&v);
            let mut d = Decoder::new(e.finish());
            assert_eq!(d.get_value().unwrap(), v);
        }
    }

    #[test]
    fn tuple_roundtrip() {
        let t = Tuple::new([Value::Int(1), Value::str("x"), Value::Int(-9)]);
        let mut e = Encoder::new();
        e.put_tuple(&t);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.get_tuple().unwrap(), t);
    }

    #[test]
    fn bag_roundtrip_with_signs_and_duplicates() {
        let mut bag = SignedBag::new();
        bag.add(Tuple::ints([1, 2]), 3);
        bag.add(Tuple::ints([4, 5]), -2);
        assert_eq!(roundtrip_bag(&bag), bag);
        assert_eq!(roundtrip_bag(&SignedBag::new()), SignedBag::new());
    }

    #[test]
    fn encoded_len_matches_predicted() {
        // The relational layer's encoded_len must agree with the real
        // codec, since the paper's B metric is measured from it.
        let mut bag = SignedBag::new();
        bag.add(Tuple::ints([1, 2]), 2);
        bag.add(Tuple::new([Value::str("ab"), Value::Int(1)]), -1);
        let mut e = Encoder::new();
        e.put_bag(&bag);
        assert_eq!(e.len(), bag.encoded_len());
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.put_tuple(&Tuple::ints([1, 2, 3]));
        let bytes = e.finish();
        let mut d = Decoder::new(bytes.slice(0..bytes.len() - 1));
        assert_eq!(d.get_tuple(), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn bad_tags_error() {
        let mut e = Encoder::new();
        e.put_u8(9);
        let mut d = Decoder::new(e.finish());
        assert!(matches!(d.get_value(), Err(DecodeError::BadTag { .. })));
    }
}
