//! QPACK field-section encoding (RFC 9204) restricted to the static table
//! and literal field lines — no dynamic table, no Huffman.

use qcodec::{CodecError, Reader, Result, Writer};

use crate::request::MAX_HEADERS_BYTES;

/// An HTTP header (pseudo-headers start with `:`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Header {
    /// Lower-case field name.
    pub name: String,
    /// Field value.
    pub value: String,
}

impl Header {
    /// Convenience constructor.
    pub fn new(name: &str, value: &str) -> Header {
        Header {
            name: name.to_ascii_lowercase(),
            value: value.to_string(),
        }
    }
}

/// The subset of the QPACK static table (RFC 9204 Appendix A) we index into.
/// Entries not present are encoded as literals, which is always valid.
const STATIC_TABLE: &[(usize, &str, &str)] = &[
    (0, ":authority", ""),
    (1, ":path", "/"),
    (15, ":method", "CONNECT"),
    (16, ":method", "DELETE"),
    (17, ":method", "GET"),
    (18, ":method", "HEAD"),
    (19, ":method", "OPTIONS"),
    (20, ":method", "POST"),
    (21, ":method", "PUT"),
    (22, ":scheme", "http"),
    (23, ":scheme", "https"),
    (24, ":status", "103"),
    (25, ":status", "200"),
    (26, ":status", "304"),
    (27, ":status", "404"),
    (28, ":status", "503"),
];

fn static_lookup(name: &str, value: &str) -> Option<usize> {
    STATIC_TABLE
        .iter()
        .find(|(_, n, v)| *n == name && *v == value)
        .map(|(i, _, _)| *i)
}

fn static_entry(index: usize) -> Option<(&'static str, &'static str)> {
    STATIC_TABLE
        .iter()
        .find(|(i, _, _)| *i == index)
        .map(|(_, n, v)| (*n, *v))
}

/// Encodes an integer with an N-bit prefix (RFC 7541 §5.1).
fn encode_prefixed_int(w: &mut Writer, prefix_bits: u8, first_byte_flags: u8, value: u64) {
    let max_prefix = (1u64 << prefix_bits) - 1;
    if value < max_prefix {
        w.put_u8(first_byte_flags | value as u8);
    } else {
        w.put_u8(first_byte_flags | max_prefix as u8);
        let mut v = value - max_prefix;
        while v >= 128 {
            w.put_u8((v % 128) as u8 | 0x80);
            v /= 128;
        }
        w.put_u8(v as u8);
    }
}

fn decode_prefixed_int(r: &mut Reader<'_>, prefix_bits: u8) -> Result<u64> {
    let max_prefix = (1u64 << prefix_bits) - 1;
    let first = u64::from(r.read_u8()?) & max_prefix;
    if first < max_prefix {
        return Ok(first);
    }
    let mut value = max_prefix;
    let mut shift = 0u32;
    loop {
        let b = r.read_u8()?;
        value = value
            .checked_add(u64::from(b & 0x7f) << shift)
            .ok_or(CodecError::Invalid("prefixed int overflow"))?;
        if b & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 56 {
            return Err(CodecError::Invalid("prefixed int too long"));
        }
    }
}

fn encode_string(w: &mut Writer, prefix_bits: u8, flags: u8, s: &str) {
    // Huffman bit (the one above the prefix) stays 0.
    encode_prefixed_int(w, prefix_bits, flags, s.len() as u64);
    w.put_bytes(s.as_bytes());
}

fn decode_string(r: &mut Reader<'_>, prefix_bits: u8) -> Result<String> {
    let huffman_bit = 1u8 << prefix_bits;
    let first = r.peek_u8()?;
    if first & huffman_bit != 0 {
        return Err(CodecError::Invalid("Huffman strings unsupported"));
    }
    let len = decode_prefixed_int(r, prefix_bits)? as usize;
    let bytes = r.read_bytes(len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("non-UTF-8 string"))
}

/// Encodes a field section (2-byte zero prefix + field lines).
pub fn encode_field_section(headers: &[Header]) -> Vec<u8> {
    let mut w = Writer::new();
    // Required Insert Count = 0, Delta Base = 0 (static only).
    w.put_u8(0);
    w.put_u8(0);
    for h in headers {
        if let Some(idx) = static_lookup(&h.name, &h.value) {
            // Indexed field line, static table: 1 1 <6-bit index>.
            encode_prefixed_int(&mut w, 6, 0b1100_0000, idx as u64);
        } else if let Some(idx) = STATIC_TABLE
            .iter()
            .find(|(_, n, _)| *n == h.name)
            .map(|(i, _, _)| *i)
        {
            // Literal with static name reference: 0 1 N=0 T=1 <4-bit index>.
            encode_prefixed_int(&mut w, 4, 0b0101_0000, idx as u64);
            encode_string(&mut w, 7, 0, &h.value);
        } else {
            // Literal with literal name: 0 0 1 N=0 H=0 <3-bit name length>.
            encode_string(&mut w, 3, 0b0010_0000, &h.name);
            encode_string(&mut w, 7, 0, &h.value);
        }
    }
    w.into_vec()
}

/// Decodes a field section produced by any static-table/literal encoder.
///
/// A section whose decoded size (RFC 9114 §4.2.2: the sum over its lines
/// of name length + value length + 32) exceeds [`MAX_HEADERS_BYTES`] is
/// refused, as soon as the line that crosses it is read: a one-byte static
/// reference decodes to a whole header, so the encoded length alone does
/// not bound what decoding allocates.
pub fn decode_field_section(bytes: &[u8]) -> Result<Vec<Header>> {
    let mut r = Reader::new(bytes);
    let _required_insert_count = decode_prefixed_int(&mut r, 8)?;
    let _delta_base = decode_prefixed_int(&mut r, 7)?;
    let mut out = Vec::new();
    let mut size = 0u64;
    let mut count = |name: &str, value: &str| {
        size += (name.len() + value.len()) as u64 + 32;
        if size > MAX_HEADERS_BYTES {
            Err(CodecError::Invalid("field section over the cap"))
        } else {
            Ok(())
        }
    };
    while !r.is_empty() {
        let first = r.peek_u8()?;
        if first & 0b1000_0000 != 0 {
            // Indexed field line.
            if first & 0b0100_0000 == 0 {
                return Err(CodecError::Invalid("dynamic table reference"));
            }
            let idx = decode_prefixed_int(&mut r, 6)? as usize;
            let (name, value) =
                static_entry(idx).ok_or(CodecError::Invalid("unknown static index"))?;
            count(name, value)?;
            out.push(Header::new(name, value));
        } else if first & 0b0100_0000 != 0 {
            // Literal with name reference.
            if first & 0b0001_0000 == 0 {
                return Err(CodecError::Invalid("dynamic table name reference"));
            }
            let idx = decode_prefixed_int(&mut r, 4)? as usize;
            let (name, _) = static_entry(idx).ok_or(CodecError::Invalid("unknown static index"))?;
            let value = decode_string(&mut r, 7)?;
            count(name, &value)?;
            out.push(Header {
                name: name.to_string(),
                value,
            });
        } else if first & 0b0010_0000 != 0 {
            // Literal with literal name.
            let name = decode_string(&mut r, 3)?;
            let value = decode_string(&mut r, 7)?;
            count(&name, &value)?;
            out.push(Header { name, value });
        } else {
            return Err(CodecError::Invalid("unsupported field line"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed() {
        let headers = vec![
            Header::new(":method", "HEAD"),
            Header::new(":scheme", "https"),
            Header::new(":authority", "example.com"),
            Header::new(":path", "/"),
            Header::new("user-agent", "qscanner/1.0"),
            Header::new("server", "proxygen-bolt"),
        ];
        let encoded = encode_field_section(&headers);
        let decoded = decode_field_section(&encoded).unwrap();
        assert_eq!(decoded, headers);
    }

    #[test]
    fn long_values_use_continuation_ints() {
        let long = "x".repeat(5000);
        let headers = vec![Header::new("x-long", &long)];
        let decoded = decode_field_section(&encode_field_section(&headers)).unwrap();
        assert_eq!(decoded[0].value.len(), 5000);
    }

    #[test]
    fn static_indexed_is_compact() {
        let headers = vec![Header::new(":method", "GET"), Header::new(":status", "200")];
        let encoded = encode_field_section(&headers);
        // 2-byte prefix + 1 byte per fully-indexed field.
        assert_eq!(encoded.len(), 4);
    }

    #[test]
    fn prefixed_int_edges() {
        for v in [0u64, 1, 5, 6, 7, 127, 128, 300, 16383, 1 << 20] {
            let mut w = Writer::new();
            encode_prefixed_int(&mut w, 3, 0, v);
            let bytes = w.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(decode_prefixed_int(&mut r, 3).unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn rejects_dynamic_references() {
        // 0b1000_0001: indexed, dynamic table.
        assert!(decode_field_section(&[0, 0, 0b1000_0001]).is_err());
    }
}

#[cfg(test)]
mod robustness_tests {
    use super::*;

    #[test]
    fn truncated_sections_error_not_panic() {
        let headers = vec![
            Header::new(":method", "GET"),
            Header::new("x-custom", "value-here"),
        ];
        let full = encode_field_section(&headers);
        for cut in 0..full.len() {
            let _ = decode_field_section(&full[..cut]);
        }
    }

    #[test]
    fn huffman_flag_rejected_cleanly() {
        // Literal with literal name, Huffman bit set on the name.
        let bytes = [0, 0, 0b0010_1000 | 2, b'a', b'b'];
        assert!(decode_field_section(&bytes).is_err());
    }

    #[test]
    fn empty_section_is_empty() {
        assert_eq!(decode_field_section(&[0, 0]).unwrap(), vec![]);
    }

    /// One-byte references to `:method OPTIONS` (static index 19), each a
    /// field of size 7 + 7 + 32 = 46: a section of as many as fit under the
    /// cap decodes, one more is refused.
    #[test]
    fn decoded_size_is_capped() {
        let fits = (MAX_HEADERS_BYTES / 46) as usize;
        let section = |lines: usize| {
            let mut bytes = vec![0, 0];
            bytes.resize(2 + lines, 0xc0 | 19);
            bytes
        };
        assert_eq!(decode_field_section(&section(fits)).unwrap().len(), fits);
        assert!(decode_field_section(&section(fits + 1)).is_err());
    }
}
