use crate::{CodecError, Result};

/// Zero-copy cursor over an input byte slice.
///
/// All `read_*` methods advance the cursor on success and leave it untouched
/// on failure, so a caller can retry with a different interpretation.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The unconsumed tail of the input.
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    fn want(&self, n: usize) -> Result<()> {
        if self.remaining() < n {
            Err(CodecError::UnexpectedEnd {
                wanted: n,
                available: self.remaining(),
            })
        } else {
            Ok(())
        }
    }

    /// Consumes exactly `n` bytes and returns them as a subslice.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        self.want(n)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consumes all remaining bytes.
    pub fn read_rest(&mut self) -> &'a [u8] {
        let out = &self.buf[self.pos..];
        self.pos = self.buf.len();
        out
    }

    /// Peeks at the next byte without consuming it.
    pub fn peek_u8(&self) -> Result<u8> {
        self.want(1)?;
        Ok(self.buf[self.pos])
    }

    /// Consumes one byte.
    pub fn read_u8(&mut self) -> Result<u8> {
        self.want(1)?;
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    /// Consumes a big-endian `u16`.
    pub fn read_u16(&mut self) -> Result<u16> {
        let b = self.read_bytes(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Consumes a big-endian 24-bit integer (TLS handshake lengths).
    pub fn read_u24(&mut self) -> Result<u32> {
        let b = self.read_bytes(3)?;
        Ok(u32::from_be_bytes([0, b[0], b[1], b[2]]))
    }

    /// Consumes a big-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32> {
        let b = self.read_bytes(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a big-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64> {
        let b = self.read_bytes(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Consumes a QUIC variable-length integer (RFC 9000 §16).
    pub fn read_varint(&mut self) -> Result<u64> {
        let first = self.peek_u8()?;
        let len = 1usize << (first >> 6);
        self.want(len)?;
        let mut v = u64::from(first & 0x3f);
        self.pos += 1;
        for _ in 1..len {
            v = (v << 8) | u64::from(self.buf[self.pos]);
            self.pos += 1;
        }
        Ok(v)
    }

    /// Consumes a length-prefixed vector where the length is one byte.
    pub fn read_vec8(&mut self) -> Result<&'a [u8]> {
        let n = self.read_u8()? as usize;
        self.read_bytes(n)
    }

    /// Consumes a length-prefixed vector where the length is a `u16`.
    pub fn read_vec16(&mut self) -> Result<&'a [u8]> {
        let n = self.read_u16()? as usize;
        self.read_bytes(n)
    }

    /// Consumes a length-prefixed vector where the length is a 24-bit integer.
    pub fn read_vec24(&mut self) -> Result<&'a [u8]> {
        let n = self.read_u24()? as usize;
        self.read_bytes(n)
    }

    /// Consumes a varint-length-prefixed vector (QUIC style).
    pub fn read_varvec(&mut self) -> Result<&'a [u8]> {
        let n = self.read_varint()?;
        let n = usize::try_from(n).map_err(|_| CodecError::Invalid("length overflows usize"))?;
        self.read_bytes(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let data = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_u8().unwrap(), 0x01);
        assert_eq!(r.read_u16().unwrap(), 0x0203);
        assert_eq!(r.read_u24().unwrap(), 0x040506);
        assert_eq!(r.read_u32().unwrap(), 0x0708090a);
        assert!(r.is_empty());
    }

    #[test]
    fn failure_does_not_advance() {
        let data = [0xaa];
        let mut r = Reader::new(&data);
        assert!(r.read_u32().is_err());
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.read_u8().unwrap(), 0xaa);
    }

    #[test]
    fn vectors() {
        let data = [2, 0xde, 0xad, 0x00, 0x01, 0xbe];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_vec8().unwrap(), &[0xde, 0xad]);
        assert_eq!(r.read_vec16().unwrap(), &[0xbe]);
    }
}
