//! Where sealed datagrams go: a batch as its two parts, the bytes of every
//! datagram back to back and where each one ends. That is the layout of
//! `simnet::Datagrams`, which lends this crate its parts: `quic` sits beside
//! the simulated network, not above it, so it cannot name the type.

/// A lent batch: packets are sealed onto [`Out::buf`], and [`Out::end`]
/// closes the datagram they make up.
pub(crate) struct Out<'a> {
    buf: &'a mut Vec<u8>,
    ends: &'a mut Vec<usize>,
}

impl<'a> Out<'a> {
    /// The batch whose bytes are `buf` and whose datagrams end at `ends`.
    pub(crate) fn new(buf: &'a mut Vec<u8>, ends: &'a mut Vec<usize>) -> Self {
        Out { buf, ends }
    }

    /// The buffer the current datagram's packets are sealed onto.
    pub(crate) fn buf(&mut self) -> &mut Vec<u8> {
        self.buf
    }

    /// Ends the datagram sealed since the last end; nothing when nothing
    /// was.
    pub(crate) fn end(&mut self) {
        if self.buf.len() > self.last_end() {
            self.ends.push(self.buf.len());
        }
    }

    /// Appends a copy of `datagram`.
    pub(crate) fn push(&mut self, datagram: &[u8]) {
        self.buf.extend_from_slice(datagram);
        self.end();
    }

    /// Where the batch ends now, in datagrams and bytes.
    pub(crate) fn mark(&self) -> (usize, usize) {
        (self.ends.len(), self.buf.len())
    }

    /// Drops every datagram sealed since `mark`.
    pub(crate) fn truncate(&mut self, (datagrams, bytes): (usize, usize)) {
        self.ends.truncate(datagrams);
        self.buf.truncate(bytes);
    }

    fn last_end(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }
}

/// Datagrams a connection queued until its driver takes them.
#[derive(Default)]
pub(crate) struct Queue {
    buf: Vec<u8>,
    ends: Vec<usize>,
}

impl Queue {
    /// The queue as a batch to seal onto.
    pub(crate) fn out(&mut self) -> Out<'_> {
        Out::new(&mut self.buf, &mut self.ends)
    }

    /// Drops every queued datagram.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
    }

    /// Moves every queued datagram to the end of `out`.
    pub(crate) fn drain_into(&mut self, out: &mut Out<'_>) {
        let base = out.buf.len();
        debug_assert_eq!(base, out.last_end(), "no datagram left open");
        out.buf.extend_from_slice(&self.buf);
        out.ends.extend(self.ends.iter().map(|end| base + end));
        self.clear();
    }

    /// Takes every queued datagram, each as a vector of its own.
    pub(crate) fn take_each(&mut self) -> Vec<Vec<u8>> {
        let datagrams = split(&self.buf, &self.ends);
        self.clear();
        datagrams
    }

    /// The datagram queued last.
    #[cfg(test)]
    pub(crate) fn last(&self) -> Option<&[u8]> {
        let n = self.ends.len();
        let start = n.checked_sub(2).map_or(0, |i| self.ends[i]);
        (n > 0).then(|| &self.buf[start..self.ends[n - 1]])
    }
}

/// The datagrams of a batch's parts, each as a vector of its own.
pub(crate) fn split(buf: &[u8], ends: &[usize]) -> Vec<Vec<u8>> {
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let datagram = buf[start..end].to_vec();
            start = end;
            datagram
        })
        .collect()
}
