//! Compact self-describing binary encoding of [`Value`] trees.
//!
//! The simulated DFS stores records in this encoding; its byte length is the
//! basis of all size accounting (file sizes, shuffle volumes, broadcast
//! memory-fit checks), mirroring how the paper measures everything in bytes
//! on HDFS. The format is a tag byte followed by a varint-length payload.
//!
//! The writer side appends to a plain `Vec<u8>`; the reader side consumes
//! from the front of a `&[u8]` cursor, advancing it in place.

use crate::value::{Record, Value};

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_LONG: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ARRAY: u8 = 6;
const TAG_RECORD: u8 = 7;

/// Error produced when decoding malformed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended in the middle of a value.
    UnexpectedEof,
    /// Unknown tag byte.
    BadTag(u8),
    /// String payload was not valid UTF-8.
    BadUtf8,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEof => write!(f, "unexpected end of input"),
            DecodeError::BadTag(t) => write!(f, "unknown value tag {t}"),
            DecodeError::BadUtf8 => write!(f, "invalid utf-8 in string payload"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn get_u8(buf: &mut &[u8]) -> Result<u8, DecodeError> {
    let (&first, rest) = buf.split_first().ok_or(DecodeError::UnexpectedEof)?;
    *buf = rest;
    Ok(first)
}

fn get_bytes<'a>(buf: &mut &'a [u8], len: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < len {
        return Err(DecodeError::UnexpectedEof);
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

fn get_varint(buf: &mut &[u8]) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = get_u8(buf)?;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::BadTag(byte));
        }
    }
}

/// The number of bytes the varint encoding of `v` takes.
pub fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Append the encoding of `value` to `buf`.
pub fn encode_value(value: &Value, buf: &mut Vec<u8>) {
    match value {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_FALSE),
        Value::Bool(true) => buf.push(TAG_TRUE),
        Value::Long(v) => {
            buf.push(TAG_LONG);
            // zigzag so small negatives stay small
            put_varint(buf, ((v << 1) ^ (v >> 63)) as u64);
        }
        Value::Double(v) => {
            buf.push(TAG_DOUBLE);
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            buf.push(TAG_ARRAY);
            put_varint(buf, items.len() as u64);
            for item in items {
                encode_value(item, buf);
            }
        }
        Value::Record(r) => {
            buf.push(TAG_RECORD);
            put_varint(buf, r.len() as u64);
            for (name, v) in r.iter() {
                put_varint(buf, name.len() as u64);
                buf.extend_from_slice(name.as_bytes());
                encode_value(v, buf);
            }
        }
    }
}

/// Decode one value from the front of `buf`, advancing the cursor.
pub fn decode_value(buf: &mut &[u8]) -> Result<Value, DecodeError> {
    let tag = get_u8(buf)?;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_LONG => {
            let z = get_varint(buf)?;
            Ok(Value::Long(((z >> 1) as i64) ^ -((z & 1) as i64)))
        }
        TAG_DOUBLE => {
            let raw = get_bytes(buf, 8)?;
            let bits = u64::from_le_bytes(raw.try_into().expect("8 bytes"));
            Ok(Value::Double(f64::from_bits(bits)))
        }
        TAG_STR => {
            let len = get_varint(buf)? as usize;
            let raw = get_bytes(buf, len)?;
            let s = std::str::from_utf8(raw).map_err(|_| DecodeError::BadUtf8)?;
            Ok(Value::str(s))
        }
        TAG_ARRAY => {
            let n = get_varint(buf)? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_value(buf)?);
            }
            Ok(Value::Array(items))
        }
        TAG_RECORD => {
            let n = get_varint(buf)? as usize;
            let mut rec = Record::with_capacity(n.min(64));
            for _ in 0..n {
                let len = get_varint(buf)? as usize;
                let raw = get_bytes(buf, len)?;
                let name = std::str::from_utf8(raw)
                    .map_err(|_| DecodeError::BadUtf8)?
                    .to_owned();
                let v = decode_value(buf)?;
                rec.set(name, v);
            }
            Ok(Value::Record(rec))
        }
        other => Err(DecodeError::BadTag(other)),
    }
}

/// The number of bytes [`encode_value`] would produce, without allocating.
///
/// This is the "record size" every statistic and cost formula in the system
/// uses, so it must agree exactly with the encoder.
pub fn encoded_len(value: &Value) -> usize {
    match value {
        Value::Null | Value::Bool(_) => 1,
        Value::Long(v) => 1 + varint_len(((v << 1) ^ (v >> 63)) as u64),
        Value::Double(_) => 9,
        Value::Str(s) => 1 + varint_len(s.len() as u64) + s.len(),
        Value::Array(items) => {
            1 + varint_len(items.len() as u64)
                + items.iter().map(encoded_len).sum::<usize>()
        }
        Value::Record(r) => {
            1 + varint_len(r.len() as u64)
                + r.iter()
                    .map(|(n, v)| varint_len(n.len() as u64) + n.len() + encoded_len(v))
                    .sum::<usize>()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Value) -> Value {
        let mut buf = Vec::new();
        encode_value(v, &mut buf);
        assert_eq!(buf.len(), encoded_len(v), "encoded_len mismatch for {v}");
        let mut bytes = buf.as_slice();
        let out = decode_value(&mut bytes).unwrap();
        assert!(bytes.is_empty(), "trailing bytes for {v}");
        out
    }

    #[test]
    fn roundtrip_scalars() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Long(0),
            Value::Long(-1),
            Value::Long(i64::MAX),
            Value::Long(i64::MIN),
            Value::Double(3.5),
            Value::Double(-0.0),
            Value::str(""),
            Value::str("héllo"),
        ] {
            assert_eq!(roundtrip(&v), v);
        }
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::Record(
            Record::new()
                .with("id", 7i64)
                .with("tags", Value::Array(vec![Value::str("a"), Value::Null]))
                .with("inner", Value::Record(Record::new().with("x", 1.25f64))),
        );
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn roundtrip_deeply_nested_records_arrays_nulls() {
        // Nested record → array → record → array of nulls, exercising the
        // recursive length accounting on every container shape at once.
        let v = Value::Record(
            Record::new()
                .with("empty_arr", Value::Array(vec![]))
                .with("empty_rec", Value::Record(Record::new()))
                .with("null", Value::Null)
                .with(
                    "outer",
                    Value::Array(vec![
                        Value::Record(
                            Record::new()
                                .with("nulls", Value::Array(vec![Value::Null; 5]))
                                .with("mix", Value::Array(vec![
                                    Value::Long(-42),
                                    Value::Bool(false),
                                    Value::Double(f64::MIN_POSITIVE),
                                ])),
                        ),
                        Value::Null,
                    ]),
                ),
        );
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn roundtrip_long_strings() {
        // Lengths straddling the 1- and 2-byte varint boundary, plus a
        // multi-kilobyte multi-byte-UTF-8 payload.
        for len in [0usize, 1, 127, 128, 129, 16_383, 16_384] {
            let v = Value::str("x".repeat(len));
            assert_eq!(roundtrip(&v), v);
        }
        let v = Value::str("héllo wörld ".repeat(500));
        assert_eq!(roundtrip(&v), v);
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut buf = Vec::new();
        encode_value(&Value::str("hello world"), &mut buf);
        for cut in 0..buf.len() {
            let mut partial = &buf[..cut];
            assert!(decode_value(&mut partial).is_err());
        }
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut bytes: &[u8] = &[0xEE];
        assert_eq!(decode_value(&mut bytes), Err(DecodeError::BadTag(0xEE)));
    }

    #[test]
    fn decode_rejects_bad_utf8() {
        // STR tag, length 2, invalid continuation bytes.
        let mut bytes: &[u8] = &[TAG_STR, 2, 0xC3, 0x28];
        assert_eq!(decode_value(&mut bytes), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn varint_roundtrip_property() {
        dyno_common::prop::check(
            "varint_roundtrip",
            256,
            |g| g.any_u64(),
            |&v| {
                let mut buf = Vec::new();
                put_varint(&mut buf, v);
                dyno_common::prop_ensure_eq!(buf.len(), varint_len(v));
                let mut b = buf.as_slice();
                dyno_common::prop_ensure_eq!(get_varint(&mut b).unwrap(), v);
                Ok(())
            },
        );
    }

    #[test]
    fn long_roundtrip_property() {
        dyno_common::prop::check(
            "long_roundtrip",
            256,
            |g| g.any_i64(),
            |&v| {
                let val = Value::Long(v);
                dyno_common::prop_ensure_eq!(roundtrip(&val), val);
                Ok(())
            },
        );
    }
}

#[cfg(test)]
mod nested_roundtrip {
    use super::*;
    use crate::value::Record;
    use dyno_common::prop::{check, Gen};
    use dyno_common::{prop_ensure, prop_ensure_eq, Rng};

    /// An arbitrary [`Value`] tree: scalars at the leaves, arrays/records
    /// up to `depth` levels deep, with container widths drawn through the
    /// size-budgeted generator so failures shrink.
    fn arb_value(g: &mut Gen, depth: u32) -> Value {
        let pick = if depth == 0 {
            g.gen_range(0..5u32)
        } else {
            g.gen_range(0..7u32)
        };
        match pick {
            0 => Value::Null,
            1 => Value::Bool(g.gen_bool(0.5)),
            2 => Value::Long(g.any_i64()),
            3 => Value::Double(g.any_finite_f64()),
            4 => Value::str(g.ascii_string(0, 12)),
            5 => {
                let n = g.len_in(0, 4);
                Value::Array((0..n).map(|_| arb_value(g, depth - 1)).collect())
            }
            _ => {
                let n = g.len_in(0, 4);
                let mut r = Record::new();
                for _ in 0..n {
                    let k = g.ascii_string(1, 6);
                    let v = arb_value(g, depth - 1);
                    r.set(k, v);
                }
                Value::Record(r)
            }
        }
    }

    /// Arbitrary nested values round-trip through the binary encoding
    /// and the length accounting always matches the encoder.
    #[test]
    fn arbitrary_values_roundtrip() {
        check(
            "arbitrary_values_roundtrip",
            192,
            |g| arb_value(g, 3),
            |v| {
                let mut buf = Vec::new();
                encode_value(v, &mut buf);
                prop_ensure_eq!(buf.len(), encoded_len(v));
                let mut bytes = buf.as_slice();
                let back = decode_value(&mut bytes).map_err(|e| e.to_string())?;
                prop_ensure!(bytes.is_empty(), "trailing bytes after decode");
                prop_ensure_eq!(&back, v);
                Ok(())
            },
        );
    }
}
