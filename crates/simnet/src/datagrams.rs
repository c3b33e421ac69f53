//! A batch of datagrams in one buffer: the payloads back to back, and where
//! each one ends — the shape of Linux UDP GSO (one buffer, many segments)
//! and of quinn's `Transmit`, with a length per datagram.
//!
//! Whoever drives a flight owns its batches and clears them each turn, so
//! once their buffers have grown to a flight's size the steady state
//! allocates nothing per datagram: a scan or mux worker owns the flight it
//! sends and the replies it gets, and a server endpoint seals its replies
//! in place at the tail of the batch the flight delivers them into.

/// Datagrams back to back in one buffer (see the module docs).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Datagrams {
    bytes: Vec<u8>,
    /// One past the last byte of each datagram, ascending.
    ends: Vec<usize>,
}

impl Datagrams {
    /// An empty batch; its buffers grow on first use.
    pub fn new() -> Self {
        Datagrams::default()
    }

    /// Drops every datagram and keeps the buffers' capacity.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    /// Number of datagrams.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True when the batch holds no datagram.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Bytes over all datagrams.
    pub fn total_len(&self) -> usize {
        self.bytes.len()
    }

    /// Datagram `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        &self.bytes[self.start(i)..self.ends[i]]
    }

    /// Where datagram `i` begins.
    fn start(&self, i: usize) -> usize {
        match i {
            0 => 0,
            _ => self.ends[i - 1],
        }
    }

    /// The datagrams in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u8]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends a copy of `datagram`.
    pub fn push(&mut self, datagram: &[u8]) {
        self.bytes.extend_from_slice(datagram);
        self.ends.push(self.bytes.len());
    }

    /// Appends one datagram made of what `write` appends to the buffer it
    /// is lent (a packet sealed in place); nothing when it appends nothing.
    pub fn push_with<R>(&mut self, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let result = write(&mut self.bytes);
        if self.bytes.len() > self.start(self.len()) {
            self.ends.push(self.bytes.len());
        }
        result
    }

    /// The buffer and the end offsets, lent to a producer that cannot name
    /// this type (`quic`, which sits beside `simnet`, not above it): it
    /// appends each datagram's bytes to the first and then pushes the
    /// buffer's length onto the second. Bytes appended after the last end
    /// belong to no datagram.
    pub fn parts_mut(&mut self) -> (&mut Vec<u8>, &mut Vec<usize>) {
        (&mut self.bytes, &mut self.ends)
    }

    /// Keeps the first `len` datagrams and drops the rest (nothing when
    /// the batch holds no more).
    pub(crate) fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.bytes.truncate(self.start(len));
            self.ends.truncate(len);
        }
    }

    /// Keeps, from datagram `first` on, only those `keep` accepts (it gets
    /// each one's index counted from `first`, and its bytes), closing the
    /// gaps in order.
    pub(crate) fn retain_from(&mut self, first: usize, mut keep: impl FnMut(usize, &[u8]) -> bool) {
        let (mut read, mut kept) = (self.start(first), first);
        let mut write = read;
        for i in first..self.len() {
            let end = self.ends[i];
            if keep(i - first, &self.bytes[read..end]) {
                self.bytes.copy_within(read..end, write);
                write += end - read;
                self.ends[kept] = write;
                kept += 1;
            }
            read = end;
        }
        self.bytes.truncate(write);
        self.ends.truncate(kept);
    }
}

impl<'a> Extend<&'a [u8]> for Datagrams {
    fn extend<I: IntoIterator<Item = &'a [u8]>>(&mut self, datagrams: I) {
        for d in datagrams {
            self.push(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(datagrams: &[&[u8]]) -> Datagrams {
        let mut batch = Datagrams::new();
        batch.extend(datagrams.iter().copied());
        batch
    }

    #[test]
    fn push_get_and_iterate() {
        let mut batch = of(&[b"ab", b"", b"cde"]);
        assert_eq!((batch.len(), batch.total_len()), (3, 5));
        assert_eq!(batch.get(1), b"");
        assert_eq!(batch.iter().collect::<Vec<_>>(), [&b"ab"[..], b"", b"cde"]);
        let n = batch.push_with(|buf| {
            buf.extend_from_slice(b"xy");
            2
        });
        assert_eq!((n, batch.get(3)), (2, &b"xy"[..]));
        batch.push_with(|_| ());
        assert_eq!(batch.len(), 4, "writing nothing appends no datagram");
        batch.clear();
        assert!(batch.is_empty() && batch.total_len() == 0);
    }

    #[test]
    fn truncate_keeps_a_prefix() {
        let all: [&[u8]; 3] = [b"a", b"", b"ccc"];
        for len in 0..=4 {
            let mut batch = of(&all);
            batch.truncate(len);
            assert_eq!(batch, of(&all[..len.min(3)]), "len {len}");
        }
    }

    /// Dropping datagrams from `first` on keeps the earlier ones and the
    /// order of the rest, whichever are dropped.
    #[test]
    fn retain_from_closes_gaps_in_order() {
        let all: [&[u8]; 5] = [b"a", b"bb", b"", b"dddd", b"ee"];
        for mask in 0..32u32 {
            for first in 0..=all.len() {
                let mut batch = of(&all);
                batch.retain_from(first, |i, _| mask >> (first + i) & 1 == 1);
                let expected: Vec<&[u8]> = (0..all.len())
                    .filter(|&i| i < first || mask >> i & 1 == 1)
                    .map(|i| all[i])
                    .collect();
                assert_eq!(batch, of(&expected), "mask {mask:05b} from {first}");
            }
        }
    }
}
