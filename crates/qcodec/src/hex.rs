//! Hex encoding helpers used by test vectors and diagnostic output.

/// Encodes `bytes` as lowercase hex.
pub fn encode(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from(DIGITS[usize::from(b >> 4)]));
        s.push(char::from(DIGITS[usize::from(b & 0xf)]));
    }
    s
}

/// Decodes a hex string (case-insensitive, whitespace ignored).
///
/// Returns `None` on odd digit counts or non-hex characters.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let digits: Vec<u32> = s
        .chars()
        .filter(|c| !c.is_whitespace())
        .map(|c| c.to_digit(16))
        .collect::<Option<_>>()?;
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    Some(
        digits
            .chunks(2)
            .map(|p| ((p[0] << 4) | p[1]) as u8)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let data = [0x00, 0x12, 0xab, 0xff];
        assert_eq!(encode(&data), "0012abff");
        assert_eq!(decode("0012abff").unwrap(), data);
        assert_eq!(decode("00 12 AB ff").unwrap(), data);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(decode("abc").is_none());
        assert!(decode("zz").is_none());
    }
}
