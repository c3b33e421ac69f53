//! The receiving half of the data plane: packet-number tracking for ACK
//! generation, out-of-order stream reassembly with duplicate suppression,
//! and window-driven MAX_DATA / MAX_STREAM_DATA grants.

use std::collections::BTreeMap;

use qcodec::Writer;
use quic::Frame;

use crate::flow::RxFlow;
use crate::ranges::RangeSet;

/// Most ACK ranges carried per frame (older ranges are renounced, as real
/// stacks cap ACK frame size).
pub const MAX_ACK_RANGES: usize = 32;

#[derive(Debug)]
struct RecvStream {
    buf: Vec<u8>,
    received: RangeSet,
    fin_at: Option<u64>,
    rx: RxFlow,
}

impl RecvStream {
    fn new(window: u64) -> Self {
        RecvStream {
            buf: Vec::new(),
            received: RangeSet::new(),
            fin_at: None,
            rx: RxFlow::new(window),
        }
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
    stream_window: u64,
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
            stream_window,
            pending_stream_updates: Vec::new(),
            pending_max_data: None,
        }
    }

    /// Processes one received packet's frames. STREAM data is reassembled
    /// (duplicates dropped); ack-eliciting packets (STREAM / PING) schedule
    /// an ACK.
    pub fn on_packet(&mut self, pn: u64, frames: &[Frame]) {
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
                    self.on_stream_frame(*id, *offset, *fin, data);
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
    }

    fn on_stream_frame(&mut self, id: u64, offset: u64, fin: bool, data: &[u8]) {
        // Range subtraction: copy the whole span, then subtract the
        // already-covered overlap from its length — a binary search plus
        // the received ranges the span touches, not one lookup per byte nor
        // a pass over every range of the stream.
        self.store_span(id, offset, fin, data, |s| {
            let end = offset + data.len() as u64;
            s.buf[offset as usize..end as usize].copy_from_slice(data);
            data.len() as u64 - s.received.covered_len(offset, end - 1)
        });
    }

    /// Files a STREAM frame into stream `id`: `copy` writes its bytes into
    /// the (grown) buffer and returns how many were never seen before, and
    /// only those are charged against flow control.
    fn store_span(
        &mut self,
        id: u64,
        offset: u64,
        fin: bool,
        data: &[u8],
        copy: impl FnOnce(&mut RecvStream) -> u64,
    ) {
        let window = self.stream_window;
        let s = self
            .streams
            .entry(id)
            .or_insert_with(|| RecvStream::new(window));
        if fin {
            s.fin_at = Some(offset + data.len() as u64);
        }
        if data.is_empty() {
            return;
        }
        let end = offset + data.len() as u64;
        if s.buf.len() < end as usize {
            s.buf.resize(end as usize, 0);
        }
        let new_bytes = copy(s);
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

    /// Bytes received so far on `id` (contiguity not guaranteed — check
    /// [`DataReceiver::stream_done`] first for full delivery).
    pub fn stream_data(&self, id: u64) -> &[u8] {
        self.streams
            .get(&id)
            .map(|s| s.buf.as_slice())
            .unwrap_or(&[])
    }

    /// Removes and returns a completed stream's bytes.
    pub fn take_stream(&mut self, id: u64) -> Option<Vec<u8>> {
        if !self.stream_done(id) {
            return None;
        }
        self.streams.remove(&id).map(|s| s.buf)
    }

    /// Stream ids with any data received (ascending).
    pub fn stream_ids(&self) -> Vec<u64> {
        self.streams.keys().copied().collect()
    }

    /// Total unique stream bytes delivered (all streams).
    pub fn total_delivered(&self) -> u64 {
        self.streams
            .values()
            .map(|s| s.received.iter_asc().map(|(a, b)| b - a + 1).sum::<u64>())
            .sum()
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
        r.on_packet(1, &[stream_frame(0, 5, true, b"world")]);
        assert!(!r.stream_done(0));
        r.on_packet(0, &[stream_frame(0, 0, false, b"hello")]);
        assert!(r.stream_done(0));
        // Duplicate arrives late: no double count.
        r.on_packet(2, &[stream_frame(0, 0, false, b"hello")]);
        assert_eq!(r.total_delivered(), 10);
        assert_eq!(r.take_stream(0).as_deref(), Some(&b"helloworld"[..]));
    }

    #[test]
    fn ack_payload_carries_ranges_largest_first() {
        let mut r = DataReceiver::new(1 << 20, 1 << 20);
        r.on_packet(0, &[stream_frame(0, 0, false, b"a")]);
        r.on_packet(2, &[stream_frame(0, 2, false, b"c")]);
        r.on_packet(5, &[Frame::Ping]);
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
        );
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
                    s.buf[pos as usize] = b;
                }
                new_bytes
            });
        }
    }

    #[test]
    fn per_byte_and_range_accounting_agree() {
        // Overlapping, out-of-order, and duplicated frames must charge flow
        // control identically; windows this small make the charge show in
        // the grants.
        let frames: Vec<(u64, bool, Vec<u8>)> = vec![
            (10, false, vec![1u8; 20]),
            (0, false, vec![2u8; 15]),  // overlaps [10, 14]
            (25, false, vec![3u8; 10]), // gap then adjacency
            (0, true, vec![4u8; 35]),   // fully covers everything, fin
            (5, false, vec![5u8; 5]),   // pure duplicate
        ];
        let mut fast = DataReceiver::new(40, 16);
        let mut slow = DataReceiver::new(40, 16);
        let (mut fast_grants, mut slow_grants) = (Vec::new(), Vec::new());
        for (offset, fin, data) in &frames {
            fast.on_stream_frame(0, *offset, *fin, data);
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
        assert_eq!(fast.take_stream(0), slow.take_stream(0));
    }

    #[test]
    fn window_grants_flow_after_half_window_consumed() {
        let mut r = DataReceiver::new(1_000, 400);
        // 300 bytes on stream 0: stream window 400, half = 200 consumed.
        r.on_packet(0, &[stream_frame(0, 0, false, &[9u8; 300])]);
        let payload = r.control_payload().expect("pending");
        let frames = Frame::decode_all(&payload).expect("decodes");
        assert!(frames
            .iter()
            .any(|f| matches!(f, Frame::MaxStreamData { id: 0, max: 700 })));
        // Connection window 1000: 300 < 500, so only the unchanged limit is
        // re-announced.
        assert!(frames.iter().any(|f| matches!(f, Frame::MaxData(1000))));
        r.on_packet(1, &[stream_frame(4, 0, false, &[9u8; 250])]);
        let frames = Frame::decode_all(&r.control_payload().expect("pending")).expect("decodes");
        assert!(frames.iter().any(|f| matches!(f, Frame::MaxData(1550))));
    }
}
