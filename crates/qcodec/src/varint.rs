//! QUIC variable-length integers (RFC 9000 §16).
//!
//! The two most significant bits of the first byte select the encoded length
//! (1, 2, 4 or 8 bytes); the remaining bits carry the value big-endian.

/// Largest value representable as a QUIC varint (2^62 - 1).
pub const MAX: u64 = (1 << 62) - 1;

/// Number of bytes the minimal encoding of `v` occupies.
///
/// # Panics
/// Panics if `v` exceeds [`MAX`].
pub fn len(v: u64) -> usize {
    match v {
        0..=0x3f => 1,
        0x40..=0x3fff => 2,
        0x4000..=0x3fff_ffff => 4,
        0x4000_0000..=MAX => 8,
        _ => panic!("varint overflow: {v}"),
    }
}

/// Appends the minimal encoding of `v` to `out`.
///
/// # Panics
/// Panics if `v` exceeds [`MAX`].
pub fn encode(v: u64, out: &mut Vec<u8>) {
    match len(v) {
        1 => out.push(v as u8),
        2 => out.extend_from_slice(&(0x4000u16 | v as u16).to_be_bytes()),
        4 => out.extend_from_slice(&(0x8000_0000u32 | v as u32).to_be_bytes()),
        _ => out.extend_from_slice(&(0xc000_0000_0000_0000u64 | v).to_be_bytes()),
    }
}

/// Decodes a varint from the front of `buf`, returning the value and the
/// number of bytes consumed, or `None` if `buf` is too short.
pub fn decode(buf: &[u8]) -> Option<(u64, usize)> {
    let first = *buf.first()?;
    let n = 1usize << (first >> 6);
    if buf.len() < n {
        return None;
    }
    let mut v = u64::from(first & 0x3f);
    for &b in &buf[1..n] {
        v = (v << 8) | u64::from(b);
    }
    Some((v, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test vectors from RFC 9000 §A.1.
    #[test]
    fn rfc9000_vectors() {
        let cases: &[(&[u8], u64)] = &[
            (
                &[0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c],
                151_288_809_941_952_652,
            ),
            (&[0x9d, 0x7f, 0x3e, 0x7d], 494_878_333),
            (&[0x7b, 0xbd], 15_293),
            (&[0x25], 37),
            (&[0x40, 0x25], 37),
        ];
        for (bytes, want) in cases {
            let (got, n) = decode(bytes).unwrap();
            assert_eq!(got, *want);
            assert_eq!(n, bytes.len());
        }
    }

    #[test]
    fn encode_is_minimal() {
        for v in [
            0u64,
            0x3f,
            0x40,
            0x3fff,
            0x4000,
            0x3fff_ffff,
            0x4000_0000,
            MAX,
        ] {
            let mut out = Vec::new();
            encode(v, &mut out);
            assert_eq!(out.len(), len(v));
            let (got, n) = decode(&out).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, out.len());
        }
    }

    #[test]
    #[should_panic(expected = "varint overflow")]
    fn overflow_panics() {
        let mut out = Vec::new();
        encode(MAX + 1, &mut out);
    }

    #[test]
    fn decode_short_buffer() {
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[0x40]), None);
        assert_eq!(decode(&[0xc0, 0, 0]), None);
    }
}
