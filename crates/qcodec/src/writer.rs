use crate::varint;

/// Growable output buffer with helpers for the big-endian integer and
/// length-prefixed encodings used by TLS, QUIC, DNS, and HTTP/3.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with `cap` bytes of pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no bytes have been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// The buffer itself, for a producer that appends bytes it generates
    /// in place rather than from a slice.
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.buf
    }

    /// Drops the bytes written so far but keeps the allocation, so a
    /// scratch writer can be reused across packets without reallocating.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian 24-bit integer; `v` must fit in 24 bits.
    pub fn put_u24(&mut self, v: u32) {
        debug_assert!(v < (1 << 24), "u24 overflow");
        self.buf.extend_from_slice(&v.to_be_bytes()[1..]);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends `n` zero bytes (QUIC PADDING).
    pub fn put_zeroes(&mut self, n: usize) {
        self.buf.resize(self.buf.len() + n, 0);
    }

    /// Appends a QUIC variable-length integer using its minimal encoding.
    pub fn put_varint(&mut self, v: u64) {
        varint::encode(v, &mut self.buf);
    }

    /// Appends `v` prefixed by its one-byte length; `v` must be < 256 bytes.
    pub fn put_vec8(&mut self, v: &[u8]) {
        debug_assert!(v.len() < 256);
        self.put_u8(v.len() as u8);
        self.put_bytes(v);
    }

    /// Appends `v` prefixed by its big-endian `u16` length.
    pub fn put_vec16(&mut self, v: &[u8]) {
        debug_assert!(v.len() < 65536);
        self.put_u16(v.len() as u16);
        self.put_bytes(v);
    }

    /// Appends `v` prefixed by its 24-bit length.
    pub fn put_vec24(&mut self, v: &[u8]) {
        self.put_u24(v.len() as u32);
        self.put_bytes(v);
    }

    /// Appends `v` prefixed by its varint length (QUIC style).
    pub fn put_varvec(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.put_bytes(v);
    }

    /// Writes a body with `f`, then back-patches a `u16` length prefix —
    /// the TLS pattern for nested structures of unknown length.
    pub fn lengthed16(&mut self, f: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.put_u16(0);
        f(self);
        let n = (self.buf.len() - at - 2) as u16;
        self.buf[at..at + 2].copy_from_slice(&n.to_be_bytes());
    }

    /// Writes a body with `f`, then back-patches a 24-bit length prefix.
    pub fn lengthed24(&mut self, f: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.put_u24(0);
        f(self);
        let n = (self.buf.len() - at - 3) as u32;
        self.buf[at..at + 3].copy_from_slice(&n.to_be_bytes()[1..]);
    }

    /// Writes a body with `f`, then back-patches a one-byte length prefix.
    pub fn lengthed8(&mut self, f: impl FnOnce(&mut Writer)) {
        let at = self.buf.len();
        self.put_u8(0);
        f(self);
        let n = self.buf.len() - at - 1;
        debug_assert!(n < 256);
        self.buf[at] = n as u8;
    }
}

impl From<Writer> for Vec<u8> {
    fn from(w: Writer) -> Vec<u8> {
        w.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Reader;

    #[test]
    fn integers() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u16(0x0203);
        w.put_u24(0x040506);
        w.put_u32(0x0708090a);
        w.put_u64(0x0b0c0d0e0f101112);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(r.read_u8().unwrap(), 1);
        assert_eq!(r.read_u16().unwrap(), 0x0203);
        assert_eq!(r.read_u24().unwrap(), 0x040506);
        assert_eq!(r.read_u32().unwrap(), 0x0708090a);
        assert_eq!(r.read_u64().unwrap(), 0x0b0c0d0e0f101112);
    }

    #[test]
    fn lengthed_backpatch() {
        let mut w = Writer::new();
        w.lengthed16(|w| {
            w.put_bytes(b"hello");
            w.lengthed8(|w| w.put_bytes(b"xy"));
        });
        let v = w.into_vec();
        assert_eq!(v[..2], [0, 8]);
        assert_eq!(&v[2..7], b"hello");
        assert_eq!(v[7], 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut w = Writer::with_capacity(64);
        w.put_bytes(&[1, 2, 3]);
        w.clear();
        assert!(w.is_empty());
        w.put_u8(9);
        assert_eq!(w.as_slice(), &[9]);
    }

    #[test]
    fn zeroes_padding() {
        let mut w = Writer::new();
        w.put_u8(0xff);
        w.put_zeroes(3);
        assert_eq!(w.as_slice(), &[0xff, 0, 0, 0]);
    }
}
