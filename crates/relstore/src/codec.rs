//! Binary tuple codec.
//!
//! Tuple *fragments* (the slice of a row belonging to one attribute group)
//! are serialized into page bytes with a compact tagged encoding. The codec
//! is the unit that makes "pages touched" a meaningful metric: fragment size
//! determines how many fragments fit a 4 KiB page, which determines how many
//! pages a schema change or scan touches.
//!
//! The module also provides the little-endian primitives ([`put_u32`],
//! [`put_str`], [`Cursor`], …) shared by every on-disk encoding in the crate
//! (page images, WAL records, snapshot metadata — see `docs/STORAGE.md`).

use dataspread_types::{CellError, DsError, DsResult, Value};

/// Decode a little-endian `u16` from the first 2 bytes of `b`.
///
/// Bounds are the caller's contract (panics on a short slice, like
/// indexing); unlike `try_into().unwrap()` chains this keeps decode paths
/// free of `unwrap` so the panic audit (`cargo run -p xcheck`) stays sharp.
pub fn u16_le(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}

/// Decode a little-endian `u32` from the first 4 bytes of `b`.
pub fn u32_le(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

/// Decode a little-endian `u64` from the first 8 bytes of `b`.
pub fn u64_le(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

// Little-endian read helpers over an advancing slice. Bounds are checked by
// the callers (decode reports truncation as `DsError`, not a panic).
fn get_u8(buf: &mut &[u8]) -> u8 {
    let v = buf[0];
    *buf = &buf[1..];
    v
}

fn get_u16_le(buf: &mut &[u8]) -> u16 {
    let v = u16_le(buf);
    *buf = &buf[2..];
    v
}

fn get_u32_le(buf: &mut &[u8]) -> u32 {
    let v = u32_le(buf);
    *buf = &buf[4..];
    v
}

fn get_i64_le(buf: &mut &[u8]) -> i64 {
    let v = u64_le(buf) as i64;
    *buf = &buf[8..];
    v
}

fn get_f64_le(buf: &mut &[u8]) -> f64 {
    let v = f64::from_bits(u64_le(buf));
    *buf = &buf[8..];
    v
}

const TAG_EMPTY: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_TEXT: u8 = 5;
const TAG_ERROR: u8 = 6;

/// Append one value to `buf`.
pub fn encode_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Empty => buf.push(TAG_EMPTY),
        Value::Bool(false) => buf.push(TAG_BOOL_FALSE),
        Value::Bool(true) => buf.push(TAG_BOOL_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&f.to_le_bytes());
        }
        Value::Text(s) => {
            buf.push(TAG_TEXT);
            buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
            buf.extend_from_slice(s.as_bytes());
        }
        Value::Error(e) => {
            buf.push(TAG_ERROR);
            buf.push(error_code(*e));
        }
    }
}

fn error_code(e: CellError) -> u8 {
    match e {
        CellError::Div0 => 0,
        CellError::Ref => 1,
        CellError::Value => 2,
        CellError::Name => 3,
        CellError::Cycle => 4,
        CellError::Na => 5,
        CellError::Num => 6,
        CellError::Db => 7,
    }
}

fn error_from_code(c: u8) -> DsResult<CellError> {
    Ok(match c {
        0 => CellError::Div0,
        1 => CellError::Ref,
        2 => CellError::Value,
        3 => CellError::Name,
        4 => CellError::Cycle,
        5 => CellError::Na,
        6 => CellError::Num,
        7 => CellError::Db,
        _ => return Err(DsError::Storage(format!("bad error code {c}"))),
    })
}

/// Decode one value from the front of `buf`, advancing it.
pub fn decode_value(buf: &mut &[u8]) -> DsResult<Value> {
    if buf.is_empty() {
        return Err(DsError::Storage("truncated value".into()));
    }
    let tag = get_u8(buf);
    Ok(match tag {
        TAG_EMPTY => Value::Empty,
        TAG_BOOL_FALSE => Value::Bool(false),
        TAG_BOOL_TRUE => Value::Bool(true),
        TAG_INT => {
            if buf.len() < 8 {
                return Err(DsError::Storage("truncated int".into()));
            }
            Value::Int(get_i64_le(buf))
        }
        TAG_FLOAT => {
            if buf.len() < 8 {
                return Err(DsError::Storage("truncated float".into()));
            }
            Value::Float(get_f64_le(buf))
        }
        TAG_TEXT => {
            if buf.len() < 4 {
                return Err(DsError::Storage("truncated text length".into()));
            }
            let len = get_u32_le(buf) as usize;
            if buf.len() < len {
                return Err(DsError::Storage("truncated text body".into()));
            }
            let s = std::str::from_utf8(&buf[..len])
                .map_err(|_| DsError::Storage("invalid utf8 in text value".into()))?
                .to_string();
            *buf = &buf[len..];
            Value::Text(s)
        }
        TAG_ERROR => {
            if buf.is_empty() {
                return Err(DsError::Storage("truncated error".into()));
            }
            Value::Error(error_from_code(get_u8(buf))?)
        }
        _ => return Err(DsError::Storage(format!("bad value tag {tag}"))),
    })
}

/// Serialize a fragment (a fixed-arity slice of values).
pub fn encode_fragment(values: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(fragment_size_hint(values));
    buf.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        encode_value(&mut buf, v);
    }
    buf
}

/// Deserialize a fragment.
pub fn decode_fragment(mut bytes: &[u8]) -> DsResult<Vec<Value>> {
    if bytes.len() < 2 {
        return Err(DsError::Storage("truncated fragment".into()));
    }
    let n = get_u16_le(&mut bytes) as usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_value(&mut bytes)?);
    }
    if !bytes.is_empty() {
        return Err(DsError::Storage("trailing bytes after fragment".into()));
    }
    Ok(out)
}

/// Deserialize only the first `len` values of a fragment — the columns a
/// caller needs when they lead it — leaving the rest undecoded.
pub(crate) fn decode_fragment_prefix(mut bytes: &[u8], len: usize) -> DsResult<Vec<Value>> {
    if bytes.len() < 2 {
        return Err(DsError::Storage("truncated fragment".into()));
    }
    let n = get_u16_le(&mut bytes) as usize;
    if n < len {
        return Err(DsError::Storage(format!(
            "fragment of {n} values read for {len}"
        )));
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(decode_value(&mut bytes)?);
    }
    Ok(out)
}

/// Exact encoded size of one value.
pub fn value_size(v: &Value) -> usize {
    match v {
        Value::Empty | Value::Bool(_) => 1,
        Value::Int(_) | Value::Float(_) => 9,
        Value::Text(s) => 5 + s.len(),
        Value::Error(_) => 2,
    }
}

fn fragment_size_hint(values: &[Value]) -> usize {
    2 + values.iter().map(value_size).sum::<usize>()
}

// ---- little-endian write helpers ------------------------------------------

/// Append a `u16` little-endian.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64` little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed (`u32`) UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over an encoded byte slice.
///
/// Every accessor reports truncation as [`DsError::Storage`] instead of
/// panicking — the counterpart of the `put_*` helpers, used by the WAL and
/// snapshot decoders where the input may be torn or corrupt.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Start reading at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn take(&mut self, n: usize, what: &str) -> DsResult<&'a [u8]> {
        if self.buf.len() < n {
            return Err(DsError::Storage(format!("truncated {what}")));
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> DsResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a `u16` little-endian.
    pub fn u16(&mut self) -> DsResult<u16> {
        Ok(u16_le(self.take(2, "u16")?))
    }

    /// Read a `u32` little-endian.
    pub fn u32(&mut self) -> DsResult<u32> {
        Ok(u32_le(self.take(4, "u32")?))
    }

    /// Read a `u64` little-endian.
    pub fn u64(&mut self) -> DsResult<u64> {
        Ok(u64_le(self.take(8, "u64")?))
    }

    /// Read `n` raw bytes.
    pub fn bytes(&mut self, n: usize) -> DsResult<&'a [u8]> {
        self.take(n, "bytes")
    }

    /// Read a length-prefixed (`u32`) UTF-8 string.
    pub fn str(&mut self) -> DsResult<String> {
        let len = self.u32()? as usize;
        let raw = self.take(len, "string body")?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| DsError::Storage("invalid utf8 in string".into()))
    }

    /// Read one tagged [`Value`] (the [`decode_value`] encoding).
    pub fn value(&mut self) -> DsResult<Value> {
        decode_value(&mut self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(vals: Vec<Value>) {
        let bytes = encode_fragment(&vals);
        let back = decode_fragment(&bytes).unwrap();
        assert_eq!(back, vals);
        assert_eq!(bytes.len(), fragment_size_hint(&vals), "size hint exact");
    }

    #[test]
    fn all_variants_round_trip() {
        round_trip(vec![
            Value::Empty,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MAX),
            Value::Float(3.25),
            Value::Float(f64::MIN_POSITIVE),
            Value::text(""),
            Value::text("héllo wörld"),
            Value::Error(CellError::Div0),
            Value::Error(CellError::Db),
        ]);
    }

    #[test]
    fn empty_fragment() {
        round_trip(vec![]);
    }

    #[test]
    fn truncation_detected() {
        let bytes = encode_fragment(&[Value::Int(5), Value::text("abc")]);
        for cut in 0..bytes.len() {
            assert!(
                decode_fragment(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let mut bytes = encode_fragment(&[Value::Int(5)]);
        bytes.push(0);
        assert!(decode_fragment(&bytes).is_err());
    }

    #[test]
    fn bad_tag_detected() {
        let bytes = vec![1, 0, 99];
        assert!(decode_fragment(&bytes).is_err());
    }

    #[test]
    fn value_size_matches_encoding() {
        for v in [
            Value::Empty,
            Value::Bool(true),
            Value::Int(7),
            Value::Float(1.5),
            Value::text("abcd"),
            Value::Error(CellError::Na),
        ] {
            let mut buf = Vec::new();
            encode_value(&mut buf, &v);
            assert_eq!(buf.len(), value_size(&v), "{v:?}");
        }
    }
}
