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

    /// Consumes exactly `N` bytes and returns them as an array.
    pub fn read_array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let (out, _) = self
            .rest()
            .split_first_chunk::<N>()
            .ok_or(CodecError::UnexpectedEnd {
                wanted: N,
                available: self.remaining(),
            })?;
        self.pos += N;
        Ok(*out)
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
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

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
        assert!(r.read_array::<2>().is_err());
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.read_array::<1>().unwrap(), [0xaa]);
    }

    #[test]
    fn vectors() {
        let data = [2, 0xde, 0xad, 0x00, 0x01, 0xbe];
        let mut r = Reader::new(&data);
        assert_eq!(r.read_vec8().unwrap(), &[0xde, 0xad]);
        assert_eq!(r.read_vec16().unwrap(), &[0xbe]);
    }

    /// Adds up what each thread asks the allocator for.
    struct CountingAlloc;

    thread_local!(static REQUESTED: Cell<usize> = const { Cell::new(0) });

    // SAFETY: every call goes to `System` with the arguments it was given
    // (`realloc` is the default `alloc` + copy, so growth is counted too);
    // the counter is a const-initialised `Cell` with no destructor, so
    // touching it neither allocates nor re-enters the allocator.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let _ = REQUESTED.try_with(|n| n.set(n.get() + layout.size()));
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static ALLOC: CountingAlloc = CountingAlloc;

    /// Runs read `op` (0–10, every decoder) once; returns the bytes it
    /// handed out, if it succeeded.
    fn read<'a>(r: &mut Reader<'a>, op: u8, n: usize) -> Option<&'a [u8]> {
        match op % 11 {
            0 => r.read_u8().ok().map(|_| &[][..]),
            1 => r.read_u16().ok().map(|_| &[][..]),
            2 => r.read_u24().ok().map(|_| &[][..]),
            3 => r.read_u32().ok().map(|_| &[][..]),
            4 => r.read_u64().ok().map(|_| &[][..]),
            5 => r.read_varint().ok().map(|_| &[][..]),
            6 => r.read_vec8().ok(),
            7 => r.read_vec16().ok(),
            8 => r.read_vec24().ok(),
            9 => r.read_varvec().ok(),
            _ => r.read_bytes(n).ok(),
        }
    }

    proptest::proptest! {
        /// Every decoder on arbitrary bytes, in any order and with lengths
        /// claimed up to 2^62 - 1 (a varint) or asked for up to
        /// `usize::MAX`: each read returns `Ok` or `Err`, what it hands out
        /// lies inside the input, the position never passes the end, and
        /// nothing is asked of the allocator. The bound is zero because a
        /// `Reader` only ever lends subslices of its input.
        #[test]
        fn hostile_bytes_allocate_nothing(
            bytes in proptest::collection::vec(proptest::any::<u8>(), 0..64),
            ops in proptest::collection::vec((proptest::any::<u8>(), proptest::any::<usize>()), 0..24),
        ) {
            let range = bytes.as_ptr_range();
            let before = REQUESTED.get();
            let mut r = Reader::new(&bytes);
            for &(op, n) in &ops {
                if let Some(out) = read(&mut r, op, n) {
                    let inside = out.is_empty()
                        || (range.start <= out.as_ptr() && out.as_ptr_range().end <= range.end);
                    proptest::prop_assert!(inside, "op {} lent bytes outside the input", op % 11);
                }
                proptest::prop_assert!(r.position() <= bytes.len());
                proptest::prop_assert_eq!(r.position() + r.remaining(), bytes.len());
            }
            proptest::prop_assert_eq!(REQUESTED.get() - before, 0);
        }
    }
}
