//! Minimal CBOR (RFC 8949) subset: unsigned integers, byte strings, text
//! strings, arrays, and integer-keyed maps — exactly what a SUIT-style
//! manifest envelope needs.
//!
//! Encoding is deterministic (definite lengths, shortest-form integers),
//! matching the SUIT requirement that manifests be byte-reproducible for
//! signing.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use alloc::string::String;
use alloc::vec::Vec;

/// A CBOR data item (the subset used by [`crate::suit`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// Major type 0: unsigned integer.
    Uint(u64),
    /// Major type 2: byte string.
    Bytes(Vec<u8>),
    /// Major type 3: UTF-8 text string.
    Text(String),
    /// Major type 4: array.
    Array(Vec<Value>),
    /// Major type 5: map with unsigned-integer keys (sorted ascending, as
    /// deterministic CBOR requires).
    Map(Vec<(u64, Value)>),
}

/// Maximum container nesting the decoder accepts.
///
/// Manifests nest two or three levels deep; anything beyond this bound is
/// an attack on the decoder's stack (a stream of `0x81` bytes recurses once
/// per byte), so decoding fails with [`CborError::DepthExceeded`] instead.
pub const MAX_DEPTH: usize = 16;

/// Errors from CBOR decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CborError {
    /// Input ended inside an item.
    Truncated,
    /// A major type or additional-info value outside the supported subset.
    Unsupported,
    /// Text string was not valid UTF-8.
    BadText,
    /// Map keys were not unsigned integers in ascending order.
    BadMapKey,
    /// Extra bytes followed the top-level item.
    TrailingBytes,
    /// Containers nested deeper than [`MAX_DEPTH`].
    DepthExceeded,
    /// A declared length exceeds the remaining input (a length-lying
    /// header; rejected before any allocation is sized from it).
    LengthOverflow,
}

impl core::fmt::Display for CborError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Truncated => f.write_str("CBOR input truncated"),
            Self::Unsupported => f.write_str("CBOR item outside the supported subset"),
            Self::BadText => f.write_str("CBOR text string is not valid UTF-8"),
            Self::BadMapKey => f.write_str("CBOR map keys must be ascending unsigned integers"),
            Self::TrailingBytes => f.write_str("trailing bytes after CBOR item"),
            Self::DepthExceeded => f.write_str("CBOR nesting deeper than supported"),
            Self::LengthOverflow => f.write_str("CBOR declared length exceeds input"),
        }
    }
}

impl core::error::Error for CborError {}

fn encode_head(out: &mut Vec<u8>, major: u8, value: u64) {
    let mt = major << 5;
    if value < 24 {
        out.push(mt | value as u8);
    } else if value <= u64::from(u8::MAX) {
        out.push(mt | 24);
        out.push(value as u8);
    } else if value <= u64::from(u16::MAX) {
        out.push(mt | 25);
        out.extend_from_slice(&(value as u16).to_be_bytes());
    } else if value <= u64::from(u32::MAX) {
        out.push(mt | 26);
        out.extend_from_slice(&(value as u32).to_be_bytes());
    } else {
        out.push(mt | 27);
        out.extend_from_slice(&value.to_be_bytes());
    }
}

/// Encodes a value to deterministic CBOR.
#[must_use]
pub fn encode(value: &Value) -> Vec<u8> {
    let mut out = Vec::new();
    encode_into(value, &mut out);
    out
}

fn encode_into(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Uint(v) => encode_head(out, 0, *v),
        Value::Bytes(b) => {
            encode_head(out, 2, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::Text(t) => {
            encode_head(out, 3, t.len() as u64);
            out.extend_from_slice(t.as_bytes());
        }
        Value::Array(items) => {
            encode_head(out, 4, items.len() as u64);
            for item in items {
                encode_into(item, out);
            }
        }
        Value::Map(entries) => {
            encode_head(out, 5, entries.len() as u64);
            for (key, item) in entries {
                encode_head(out, 0, *key);
                encode_into(item, out);
            }
        }
    }
}

/// Decodes a single top-level value, rejecting trailing bytes.
pub fn decode(input: &[u8]) -> Result<Value, CborError> {
    let (value, used) = decode_item(input, 0)?;
    if used != input.len() {
        return Err(CborError::TrailingBytes);
    }
    Ok(value)
}

fn decode_head(input: &[u8]) -> Result<(u8, u64, usize), CborError> {
    let first = *input.first().ok_or(CborError::Truncated)?;
    let major = first >> 5;
    let info = first & 0x1F;
    let (value, used) = match info {
        0..=23 => (u64::from(info), 1),
        24 => {
            let b = *input.get(1).ok_or(CborError::Truncated)?;
            (u64::from(b), 2)
        }
        25 => {
            let bytes = input.get(1..3).ok_or(CborError::Truncated)?;
            (u64::from(u16::from_be_bytes([bytes[0], bytes[1]])), 3)
        }
        26 => {
            let bytes = input.get(1..5).ok_or(CborError::Truncated)?;
            (
                u64::from(u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]])),
                5,
            )
        }
        27 => {
            let bytes: [u8; 8] = input
                .get(1..9)
                .and_then(|b| b.try_into().ok())
                .ok_or(CborError::Truncated)?;
            (u64::from_be_bytes(bytes), 9)
        }
        _ => return Err(CborError::Unsupported), // indefinite lengths
    };
    Ok((major, value, used))
}

/// Declared lengths an attacker can lie about (string bytes, container
/// element counts) are checked against the *remaining input* before any
/// loop runs or any `Vec` capacity is derived from them: every string byte
/// and every container element costs at least one input byte, so a
/// declaration larger than what is left can never be satisfied.
fn check_declared_len(value: u64, remaining: usize) -> Result<usize, CborError> {
    let len = usize::try_from(value).map_err(|_| CborError::LengthOverflow)?;
    if len > remaining {
        return Err(CborError::LengthOverflow);
    }
    Ok(len)
}

fn decode_item(input: &[u8], depth: usize) -> Result<(Value, usize), CborError> {
    if depth > MAX_DEPTH {
        return Err(CborError::DepthExceeded);
    }
    let (major, value, mut used) = decode_head(input)?;
    match major {
        0 => Ok((Value::Uint(value), used)),
        2 | 3 => {
            let len = check_declared_len(value, input.len() - used)?;
            let end = used.checked_add(len).ok_or(CborError::LengthOverflow)?;
            let body = input.get(used..end).ok_or(CborError::Truncated)?.to_vec();
            used = end;
            if major == 2 {
                Ok((Value::Bytes(body), used))
            } else {
                let text = String::from_utf8(body).map_err(|_| CborError::BadText)?;
                Ok((Value::Text(text), used))
            }
        }
        4 => {
            let count = check_declared_len(value, input.len() - used)?;
            let mut items = Vec::new();
            for _ in 0..count {
                let (item, item_used) = decode_item(&input[used..], depth + 1)?;
                items.push(item);
                used += item_used;
            }
            Ok((Value::Array(items), used))
        }
        5 => {
            let count = check_declared_len(value, input.len() - used)?;
            let mut entries = Vec::new();
            let mut last_key: Option<u64> = None;
            for _ in 0..count {
                let (key_major, key, key_used) = decode_head(&input[used..])?;
                if key_major != 0 {
                    return Err(CborError::BadMapKey);
                }
                if let Some(prev) = last_key {
                    if key <= prev {
                        return Err(CborError::BadMapKey);
                    }
                }
                last_key = Some(key);
                used += key_used;
                let (item, item_used) = decode_item(&input[used..], depth + 1)?;
                entries.push((key, item));
                used += item_used;
            }
            Ok((Value::Map(entries), used))
        }
        _ => Err(CborError::Unsupported),
    }
}

impl Value {
    /// Map lookup by integer key.
    #[must_use]
    pub fn get(&self, key: u64) -> Option<&Value> {
        match self {
            Value::Map(entries) => entries.iter().find(|(k, _)| *k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The contained unsigned integer, if this is one.
    #[must_use]
    pub fn as_uint(&self) -> Option<u64> {
        match self {
            Value::Uint(v) => Some(*v),
            _ => None,
        }
    }

    /// The contained byte string, if this is one.
    #[must_use]
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 8949 Appendix A vectors (within the subset).
    #[test]
    fn rfc8949_uint_vectors() {
        assert_eq!(hex(&encode(&Value::Uint(0))), "00");
        assert_eq!(hex(&encode(&Value::Uint(10))), "0a");
        assert_eq!(hex(&encode(&Value::Uint(23))), "17");
        assert_eq!(hex(&encode(&Value::Uint(24))), "1818");
        assert_eq!(hex(&encode(&Value::Uint(100))), "1864");
        assert_eq!(hex(&encode(&Value::Uint(1000))), "1903e8");
        assert_eq!(hex(&encode(&Value::Uint(1_000_000))), "1a000f4240");
        assert_eq!(
            hex(&encode(&Value::Uint(1_000_000_000_000))),
            "1b000000e8d4a51000"
        );
    }

    #[test]
    fn rfc8949_string_vectors() {
        assert_eq!(hex(&encode(&Value::Bytes(vec![1, 2, 3, 4]))), "4401020304");
        assert_eq!(hex(&encode(&Value::Text("IETF".into()))), "6449455446");
        assert_eq!(hex(&encode(&Value::Text(String::new()))), "60");
    }

    #[test]
    fn rfc8949_array_vector() {
        let v = Value::Array(vec![Value::Uint(1), Value::Uint(2), Value::Uint(3)]);
        assert_eq!(hex(&encode(&v)), "83010203");
    }

    #[test]
    fn map_round_trip_with_sorted_keys() {
        let v = Value::Map(vec![
            (1, Value::Uint(2)),
            (3, Value::Bytes(vec![0xAA])),
            (10, Value::Array(vec![Value::Text("x".into())])),
        ]);
        assert_eq!(decode(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn rejects_unsorted_map_keys() {
        // Hand-encode a map {2: 0, 1: 0} — non-deterministic order.
        let bytes = [0xA2, 0x02, 0x00, 0x01, 0x00];
        assert_eq!(decode(&bytes), Err(CborError::BadMapKey));
    }

    #[test]
    fn rejects_truncation_and_trailing() {
        // A byte string cut short is caught by the declared-length check:
        // the header claims more bytes than the input holds.
        let full = encode(&Value::Bytes(vec![1, 2, 3]));
        assert_eq!(
            decode(&full[..full.len() - 1]),
            Err(CborError::LengthOverflow)
        );
        // A truncated multi-byte head is still plain truncation.
        assert_eq!(decode(&[0x19, 0x01]), Err(CborError::Truncated));
        assert_eq!(decode(&[0x1B, 0, 0, 0, 0]), Err(CborError::Truncated));
        let mut extra = full.clone();
        extra.push(0x00);
        assert_eq!(decode(&extra), Err(CborError::TrailingBytes));
    }

    #[test]
    fn rejects_nesting_deeper_than_max_depth() {
        // `0x81` = one-element array; a run of them recurses once per byte.
        // Deep enough to smash the stack without the depth limit.
        let mut bytes = vec![0x81u8; 10_000];
        bytes.push(0x00);
        assert_eq!(decode(&bytes), Err(CborError::DepthExceeded));
        // Depth at the limit still decodes.
        let mut ok = vec![0x81u8; MAX_DEPTH];
        ok.push(0x00);
        assert!(decode(&ok).is_ok());
        // One past the limit does not.
        let mut over = vec![0x81u8; MAX_DEPTH + 1];
        over.push(0x00);
        assert_eq!(decode(&over), Err(CborError::DepthExceeded));
    }

    #[test]
    fn rejects_length_lying_headers() {
        // Byte string claiming 4 GiB from a 10-byte input.
        let mut lying = vec![0x5A]; // major 2, 4-byte length
        lying.extend_from_slice(&0xFFFF_FFFFu32.to_be_bytes());
        lying.extend_from_slice(&[0; 5]);
        assert_eq!(decode(&lying), Err(CborError::LengthOverflow));
        // Array claiming u64::MAX elements.
        let mut huge_array = vec![0x9B]; // major 4, 8-byte length
        huge_array.extend_from_slice(&u64::MAX.to_be_bytes());
        assert_eq!(decode(&huge_array), Err(CborError::LengthOverflow));
        // Map claiming 2^32 entries with two bytes of body.
        let mut huge_map = vec![0xBA]; // major 5, 4-byte length
        huge_map.extend_from_slice(&u32::MAX.to_be_bytes());
        huge_map.extend_from_slice(&[0x00, 0x00]);
        assert_eq!(decode(&huge_map), Err(CborError::LengthOverflow));
    }

    #[test]
    fn rejects_unsupported_types() {
        // Major type 7 (simple/float): not in the subset.
        assert_eq!(decode(&[0xF5]), Err(CborError::Unsupported));
        // Negative integer (major 1).
        assert_eq!(decode(&[0x20]), Err(CborError::Unsupported));
        // Indefinite-length byte string.
        assert_eq!(decode(&[0x5F]), Err(CborError::Unsupported));
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Map(vec![
            (
                1,
                Value::Array(vec![
                    Value::Map(vec![(0, Value::Uint(7))]),
                    Value::Bytes(vec![9; 300]), // 2-byte length head
                ]),
            ),
            (2, Value::Uint(u64::MAX)),
        ]);
        assert_eq!(decode(&encode(&v)).unwrap(), v);
    }

    #[test]
    fn accessors() {
        let v = Value::Map(vec![(1, Value::Uint(5)), (2, Value::Bytes(vec![1]))]);
        assert_eq!(v.get(1).and_then(Value::as_uint), Some(5));
        assert_eq!(v.get(2).and_then(Value::as_bytes), Some(&[1u8][..]));
        assert!(v.get(3).is_none());
        assert!(Value::Uint(1).get(0).is_none());
    }
}
