//! The receiving half of the data plane: packet-number tracking for ACK
//! generation, out-of-order stream reassembly with duplicate suppression,
//! and window-driven MAX_DATA / MAX_STREAM_DATA grants.
//!
//! A stream holds only its unread window: the bytes from the reader's
//! offset to the highest byte received. The application takes the
//! contiguous prefix with [`DataReceiver::read`] and drops it with
//! [`DataReceiver::consume`]. Data past an advertised limit is refused
//! (RFC 9000 §4.1), so a stream's buffer never outgrows its limit minus the
//! read offset. Grants follow receipt, not reading: a reader that falls
//! behind holds more, but the peer's sending schedule does not change.

use std::collections::BTreeMap;

use qcodec::Writer;
use quic::{ConnectionError, Frame};

use crate::flow::RxFlow;
use crate::ranges::RangeSet;

/// Most ACK ranges carried per frame (older ranges are renounced, as real
/// stacks cap ACK frame size).
pub const MAX_ACK_RANGES: usize = 32;

#[derive(Debug)]
struct RecvStream {
    /// Stream bytes from `read_offset` to the highest byte received, with
    /// zeros where a gap is still open.
    buf: Vec<u8>,
    /// First byte not yet consumed.
    read_offset: u64,
    received: RangeSet,
    fin_at: Option<u64>,
    rx: RxFlow,
}

impl RecvStream {
    fn new(window: u64) -> Self {
        RecvStream {
            buf: Vec::new(),
            read_offset: 0,
            received: RangeSet::new(),
            fin_at: None,
            rx: RxFlow::new(window),
        }
    }

    /// One past the highest byte received.
    fn end(&self) -> u64 {
        self.read_offset + self.buf.len() as u64
    }

    /// Unread bytes before the first gap.
    fn readable(&self) -> usize {
        let contiguous = match self.received.iter_asc().next() {
            Some((0, last)) => last + 1,
            _ => 0,
        };
        (contiguous - self.read_offset) as usize
    }

    fn complete(&self) -> bool {
        match self.fin_at {
            Some(0) => true,
            Some(end) => self.received.covers(0, end - 1),
            None => false,
        }
    }
}

/// The receiving half of one connection's application data plane.
pub struct DataReceiver {
    /// Ack-eliciting packet numbers received.
    acked: RangeSet,
    ack_pending: bool,
    streams: BTreeMap<u64, RecvStream>,
    conn_rx: RxFlow,
    /// Sum over streams of the highest byte received: what the connection
    /// limit caps (RFC 9000 §4.1).
    conn_received: u64,
    stream_window: u64,
    /// Bytes held in stream buffers, and their high-water mark.
    held: u64,
    peak_held: u64,
    /// Stream ids whose window should be re-advertised.
    pending_stream_updates: Vec<(u64, u64)>,
    pending_max_data: Option<u64>,
}

impl DataReceiver {
    /// A receiver granting `conn_window` bytes of connection credit and
    /// `stream_window` bytes per stream.
    pub fn new(conn_window: u64, stream_window: u64) -> Self {
        DataReceiver {
            acked: RangeSet::new(),
            ack_pending: false,
            streams: BTreeMap::new(),
            conn_rx: RxFlow::new(conn_window),
            conn_received: 0,
            stream_window,
            held: 0,
            peak_held: 0,
            pending_stream_updates: Vec::new(),
            pending_max_data: None,
        }
    }

    /// Processes one received packet's frames. STREAM data is reassembled
    /// (duplicates dropped); ack-eliciting packets (STREAM / PING) schedule
    /// an ACK. A STREAM frame past an advertised limit is a
    /// FLOW_CONTROL_ERROR: nothing of it is stored, the packet is not
    /// acknowledged, and the caller closes the connection.
    pub fn on_packet(&mut self, pn: u64, frames: &[Frame]) -> Result<(), ConnectionError> {
        let mut eliciting = false;
        for frame in frames {
            match frame {
                Frame::Stream {
                    id,
                    offset,
                    fin,
                    data,
                } => {
                    eliciting = true;
                    self.on_stream_frame(*id, *offset, *fin, data)?;
                }
                Frame::Ping => eliciting = true,
                _ => {}
            }
        }
        if eliciting && !self.acked.contains(pn) {
            self.acked.insert(pn);
            self.acked.truncate_smallest(MAX_ACK_RANGES);
            self.ack_pending = true;
        }
        Ok(())
    }

    fn on_stream_frame(
        &mut self,
        id: u64,
        offset: u64,
        fin: bool,
        data: &[u8],
    ) -> Result<(), ConnectionError> {
        // Range subtraction: copy the unread part of the span, then
        // subtract the already-covered overlap from its length — a binary
        // search plus the received ranges the span touches, not one lookup
        // per byte nor a pass over every range of the stream. Everything
        // before the read offset was received already.
        self.store_span(id, offset, fin, data, |s| {
            let end = offset + data.len() as u64;
            let from = offset.max(s.read_offset);
            if from < end {
                let (at, to) = (from - s.read_offset, end - s.read_offset);
                s.buf[at as usize..to as usize].copy_from_slice(&data[(from - offset) as usize..]);
            }
            data.len() as u64 - s.received.covered_len(offset, end - 1)
        })
    }

    /// Files a STREAM frame into stream `id`: `copy` writes its bytes into
    /// the (grown) buffer and returns how many were never seen before, and
    /// only those are charged against flow control. A frame reaching past
    /// the stream's or the connection's advertised limit is refused whole.
    fn store_span(
        &mut self,
        id: u64,
        offset: u64,
        fin: bool,
        data: &[u8],
        copy: impl FnOnce(&mut RecvStream) -> u64,
    ) -> Result<(), ConnectionError> {
        let end = offset.saturating_add(data.len() as u64);
        let (limit, stream_end) = self
            .streams
            .get(&id)
            .map_or((self.stream_window, 0), |s| (s.rx.limit(), s.end()));
        let growth = end.saturating_sub(stream_end);
        if end > limit || self.conn_received + growth > self.conn_rx.limit() {
            return Err(ConnectionError::FLOW_CONTROL);
        }
        let window = self.stream_window;
        let s = self
            .streams
            .entry(id)
            .or_insert_with(|| RecvStream::new(window));
        if fin {
            s.fin_at = Some(end);
        }
        if data.is_empty() {
            return Ok(());
        }
        if growth > 0 {
            s.buf.resize(s.buf.len() + growth as usize, 0);
            self.conn_received += growth;
            self.held += growth;
            self.peak_held = self.peak_held.max(self.held);
        }
        let new_bytes = copy(s);
        debug_assert!(s.end() <= s.rx.limit(), "buffered within the limit");
        s.received.insert_range(offset, end - 1);
        if new_bytes > 0 {
            s.rx.on_delivered(new_bytes);
            self.conn_rx.on_delivered(new_bytes);
            if let Some(limit) = s.rx.take_update() {
                self.pending_stream_updates.push((id, limit));
            }
            if let Some(limit) = self.conn_rx.take_update() {
                self.pending_max_data = Some(limit);
            }
        }
        Ok(())
    }

    /// Builds the control payload (ACK + window grants) if anything is
    /// pending; the caller seals it as a 1-RTT packet.
    ///
    /// Every payload re-announces the current MAX_DATA and per-stream
    /// limits of unfinished streams, not just freshly extended ones: limit
    /// updates are max-only on the sender side, so the repetition is
    /// idempotent, and it heals the deadlock where the one packet carrying
    /// a window extension is lost and the peer stays blocked forever.
    pub fn control_payload(&mut self) -> Option<Vec<u8>> {
        if !self.ack_pending
            && self.pending_max_data.is_none()
            && self.pending_stream_updates.is_empty()
        {
            return None;
        }
        let mut w = Writer::with_capacity(64);
        if self.ack_pending {
            self.ack_pending = false;
            let ranges: Vec<(u64, u64)> = self.acked.iter_desc().collect();
            let largest = ranges[0].1;
            Frame::Ack {
                largest,
                delay: 0,
                ranges,
            }
            .encode(&mut w);
        }
        self.pending_max_data = None;
        self.pending_stream_updates.clear();
        self.append_grants(&mut w);
        Some(w.into_vec())
    }

    /// An unconditional probe payload: PING (ack-eliciting) plus the latest
    /// ACK state and window grants. Sent by drivers after a silent round so
    /// a stalled peer re-learns everything it may have missed.
    pub fn keepalive_payload(&mut self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        Frame::Ping.encode(&mut w);
        if let Some(largest) = self.acked.largest() {
            self.ack_pending = false;
            let ranges: Vec<(u64, u64)> = self.acked.iter_desc().collect();
            Frame::Ack {
                largest,
                delay: 0,
                ranges,
            }
            .encode(&mut w);
        }
        self.pending_max_data = None;
        self.pending_stream_updates.clear();
        self.append_grants(&mut w);
        w.into_vec()
    }

    /// Encodes the connection limit and the limits of every unfinished
    /// stream (completed streams need no more credit).
    fn append_grants(&mut self, w: &mut Writer) {
        Frame::MaxData(self.conn_rx.limit()).encode(w);
        for (id, s) in &self.streams {
            if !s.complete() {
                Frame::MaxStreamData {
                    id: *id,
                    max: s.rx.limit(),
                }
                .encode(w);
            }
        }
    }

    /// True when any ACK or window grant is waiting to be sent — the
    /// coalescing server checks this to decide whether to prepend control
    /// frames into the next STREAM payload.
    pub fn has_pending_control(&self) -> bool {
        self.ack_pending
            || self.pending_max_data.is_some()
            || !self.pending_stream_updates.is_empty()
    }

    /// True when the stream's FIN arrived and every byte before it did too.
    pub fn stream_done(&self, id: u64) -> bool {
        self.streams.get(&id).is_some_and(|s| s.complete())
    }

    /// The unread bytes of stream `id` before its first gap — all of the
    /// stream once [`DataReceiver::stream_done`] and nothing consumed.
    pub fn read(&self, id: u64) -> &[u8] {
        self.streams
            .get(&id)
            .map_or(&[], |s| &s.buf[..s.readable()])
    }

    /// Drops the first `n` bytes [`DataReceiver::read`] returned for `id`,
    /// draining them from the front of the stream's buffer.
    pub fn consume(&mut self, id: u64, n: usize) {
        let Some(s) = self.streams.get_mut(&id) else {
            return;
        };
        assert!(n <= s.readable(), "consumed past the readable prefix");
        s.buf.drain(..n);
        s.read_offset += n as u64;
        self.held -= n as u64;
    }

    /// Stream ids with any data received (ascending).
    pub fn stream_ids(&self) -> Vec<u64> {
        self.streams.keys().copied().collect()
    }

    /// High-water mark of the bytes held in stream buffers: received and
    /// not yet consumed, gaps included.
    pub fn peak_held(&self) -> u64 {
        self.peak_held
    }

    /// Stream `id`'s buffered bytes, the limit advertised for it, and its
    /// read offset.
    #[cfg(test)]
    pub(crate) fn window(&self, id: u64) -> (u64, u64, u64) {
        self.streams
            .get(&id)
            .map_or((0, self.stream_window, 0), |s| {
                (s.buf.len() as u64, s.rx.limit(), s.read_offset)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream_frame(id: u64, offset: u64, fin: bool, data: &[u8]) -> Frame {
        Frame::Stream {
            id,
            offset,
            fin,
            data: data.to_vec(),
        }
    }

    #[test]
    fn reassembles_out_of_order_and_dedups() {
        let mut r = DataReceiver::new(1 << 20, 1 << 20);
        r.on_packet(1, &[stream_frame(0, 5, true, b"world")])
            .unwrap();
        assert!(!r.stream_done(0));
        r.on_packet(0, &[stream_frame(0, 0, false, b"hello")])
            .unwrap();
        assert!(r.stream_done(0));
        // Duplicate arrives late: no double count.
        r.on_packet(2, &[stream_frame(0, 0, false, b"hello")])
            .unwrap();
        assert_eq!(r.total_delivered(), 10);
        assert_eq!(r.read(0), b"helloworld");
    }

    /// A stream holds what is unread and no more: `read` stops at the first
    /// gap, `consume` drains the front, and bytes arriving again below the
    /// read offset are dropped.
    #[test]
    fn reads_the_contiguous_prefix_and_drains_it() {
        let mut r = DataReceiver::new(1 << 20, 1 << 20);
        r.on_packet(0, &[stream_frame(0, 0, false, b"abc")])
            .unwrap();
        r.on_packet(1, &[stream_frame(0, 6, true, b"ghi")]).unwrap();
        assert_eq!(r.read(0), b"abc");
        r.consume(0, 2);
        assert_eq!(r.read(0), b"c");
        assert_eq!(r.window(0), (7, 1 << 20, 2), "c, a gap of 3, ghi");
        r.on_packet(2, &[stream_frame(0, 0, false, b"abcdef")])
            .unwrap();
        assert_eq!(r.read(0), b"cdefghi");
        r.consume(0, 7);
        assert!(r.stream_done(0));
        assert_eq!(r.window(0), (0, 1 << 20, 9));
        assert_eq!(r.peak_held(), 9);
        assert_eq!(r.total_delivered(), 9);
    }

    /// RFC 9000 §4.1: data past the stream's or the connection's advertised
    /// limit is a FLOW_CONTROL_ERROR, and nothing of the frame is kept —
    /// however far past the limit it claims to be.
    #[test]
    fn data_past_an_advertised_limit_is_refused_whole() {
        let mut r = DataReceiver::new(1_000, 400);
        assert_eq!(
            r.on_packet(0, &[stream_frame(0, 395, false, &[1; 6])]),
            Err(ConnectionError::FLOW_CONTROL)
        );
        let hostile = stream_frame(4, (1 << 62) - 2, false, &[1; 2]);
        assert_eq!(
            r.on_packet(1, &[hostile]),
            Err(ConnectionError::FLOW_CONTROL)
        );
        assert_eq!((r.peak_held(), r.stream_ids()), (0, vec![]));
        assert!(r.control_payload().is_none(), "nothing acknowledged");
        // Up to the limit is fine; the connection limit counts the highest
        // byte of each stream, gaps included.
        r.on_packet(2, &[stream_frame(0, 399, false, &[1])])
            .unwrap();
        r.on_packet(3, &[stream_frame(4, 300, false, &[1; 100])])
            .unwrap();
        assert_eq!(
            r.on_packet(4, &[stream_frame(8, 200, false, &[1; 200])]),
            Err(ConnectionError::FLOW_CONTROL)
        );
        r.on_packet(5, &[stream_frame(8, 0, false, &[1; 200])])
            .unwrap();
        assert_eq!(r.peak_held(), 1_000);
    }

    #[test]
    fn ack_payload_carries_ranges_largest_first() {
        let mut r = DataReceiver::new(1 << 20, 1 << 20);
        r.on_packet(0, &[stream_frame(0, 0, false, b"a")]).unwrap();
        r.on_packet(2, &[stream_frame(0, 2, false, b"c")]).unwrap();
        r.on_packet(5, &[Frame::Ping]).unwrap();
        let payload = r.control_payload().expect("ack pending");
        let frames = Frame::decode_all(&payload).expect("decodes");
        match &frames[0] {
            Frame::Ack {
                largest, ranges, ..
            } => {
                assert_eq!(*largest, 5);
                assert_eq!(ranges, &vec![(5, 5), (2, 2), (0, 0)]);
            }
            other => panic!("expected ack, got {other:?}"),
        }
        assert!(r.control_payload().is_none(), "drained");
    }

    #[test]
    fn ack_only_packets_are_not_ack_eliciting() {
        let mut r = DataReceiver::new(1 << 20, 1 << 20);
        r.on_packet(
            3,
            &[Frame::Ack {
                largest: 7,
                delay: 0,
                ranges: vec![(0, 7)],
            }],
        )
        .unwrap();
        assert!(r.control_payload().is_none(), "no ack-of-ack ping-pong");
    }

    impl DataReceiver {
        /// The per-byte loop `on_stream_frame` replaced, kept as its oracle:
        /// one `RangeSet` lookup per payload byte.
        fn on_stream_frame_reference(&mut self, id: u64, offset: u64, fin: bool, data: &[u8]) {
            self.store_span(id, offset, fin, data, |s| {
                let mut new_bytes = 0;
                for (pos, &b) in (offset..).zip(data) {
                    new_bytes += u64::from(!s.received.contains(pos));
                    if pos >= s.read_offset {
                        s.buf[(pos - s.read_offset) as usize] = b;
                    }
                }
                new_bytes
            })
            .expect("within the limits");
        }

        /// Unique stream bytes received, all streams.
        pub(crate) fn total_delivered(&self) -> u64 {
            self.streams
                .values()
                .map(|s| s.received.iter_asc().map(|(a, b)| b - a + 1).sum::<u64>())
                .sum()
        }
    }

    #[test]
    fn per_byte_and_range_accounting_agree() {
        // Overlapping, out-of-order, and duplicated frames must charge flow
        // control identically; windows this small make the charge show in
        // the grants (the first frame's 20 new bytes reach half the
        // connection window, the second's 10 more half the stream window).
        let frames: Vec<(u64, bool, Vec<u8>)> = vec![
            (10, false, vec![1u8; 20]),
            (0, false, vec![2u8; 15]),  // overlaps [10, 14]
            (25, false, vec![3u8; 10]), // gap then adjacency
            (0, true, vec![4u8; 35]),   // fully covers everything, fin
            (5, false, vec![5u8; 5]),   // pure duplicate
        ];
        let mut fast = DataReceiver::new(40, 48);
        let mut slow = DataReceiver::new(40, 48);
        let (mut fast_grants, mut slow_grants) = (Vec::new(), Vec::new());
        for (offset, fin, data) in &frames {
            fast.on_stream_frame(0, *offset, *fin, data).unwrap();
            slow.on_stream_frame_reference(0, *offset, *fin, data);
            fast_grants.push(fast.control_payload());
            slow_grants.push(slow.control_payload());
        }
        assert_eq!(fast_grants, slow_grants);
        let granted = fast_grants.iter().filter(|g| g.is_some()).count();
        assert_eq!(
            granted, 2,
            "the first two frames free window, the rest nothing"
        );
        assert_eq!(fast.total_delivered(), slow.total_delivered());
        assert_eq!(fast.total_delivered(), 35);
        assert_eq!(fast.read(0), slow.read(0));
    }

    #[test]
    fn window_grants_flow_after_half_window_consumed() {
        let mut r = DataReceiver::new(1_000, 400);
        // 300 bytes on stream 0: stream window 400, half = 200 consumed.
        r.on_packet(0, &[stream_frame(0, 0, false, &[9u8; 300])])
            .unwrap();
        let payload = r.control_payload().expect("pending");
        let frames = Frame::decode_all(&payload).expect("decodes");
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::MaxStreamData { id: 0, max: 700 })));
        // Connection window 1000: 300 < 500, so only the unchanged limit is
        // re-announced.
        assert!(frames.iter().any(|f| matches!(f, Frame::MaxData(1000))));
        r.on_packet(1, &[stream_frame(4, 0, false, &[9u8; 250])])
            .unwrap();
        let frames = Frame::decode_all(&r.control_payload().expect("pending")).expect("decodes");
        assert!(frames.iter().any(|f| matches!(f, Frame::MaxData(1550))));
    }
}
