//! The sending half of the data plane: stream send buffers, chunking into
//! 1-RTT packets under congestion-window and flow-control gates, ACK-driven
//! loss recovery with retransmission, and PTO as the timer of last resort.
//!
//! The sender is sans-IO: [`DataSender::poll`] composes each 1-RTT frame
//! payload in a buffer the caller lends and hands it to the caller's seal
//! (client: `quic::ClientConnection::seal_app_payload` into the flight it
//! sends; server: the `AppSession` seal, into the reply batch), which
//! returns the packet number the sender records it under.

use std::collections::{BTreeMap, VecDeque};

use qcodec::Writer;
use quic::{Frame, Seal};
use telemetry::EventKind;

use crate::cc::{NewReno, MAX_DATAGRAM};
use crate::flow::TxFlow;
use crate::host::extend_bulk_body;
use crate::pace::Pacer;
use crate::ranges::RangeSet;
use crate::recovery::{ChunkRef, Recovery, SentPacket};
use crate::sched::{SchedKind, Scheduler};

/// Stream bytes per packet: datagram budget minus frame header + AEAD room.
pub const CHUNK_BYTES: u64 = 1100;
/// ACK-free rounds with data in flight before a PTO declares everything lost.
pub const PTO_ROUNDS: u32 = 3;

/// Where a stream's bytes come from. Only what was handed to `enqueue` is
/// held; a bulk body is a function of its offset, so a retransmission
/// regenerates its bytes instead of keeping them.
#[derive(Debug)]
enum Source {
    /// Bytes handed to [`DataSender::enqueue`] (requests, RTC frames).
    Buffered(Vec<u8>),
    /// A response head (HEADERS frame plus DATA type and length), then the
    /// bulk body from offset `offset − head.len()` to the end of the stream,
    /// generated by [`extend_bulk_body`] a 256-byte run at a time.
    Bulk { head: Vec<u8> },
}

impl Source {
    /// Appends the stream bytes `[offset, offset + len)` to `out`.
    fn fill(&self, offset: u64, len: u64, out: &mut Vec<u8>) {
        let (start, end) = (offset as usize, (offset + len) as usize);
        match self {
            Source::Buffered(data) => out.extend_from_slice(&data[start..end]),
            Source::Bulk { head } => {
                let h = head.len();
                if start < h {
                    out.extend_from_slice(&head[start..end.min(h)]);
                }
                let (from, to) = (start.max(h) - h, end.max(h) - h);
                extend_bulk_body(out, from as u64, (to - from) as u64);
            }
        }
    }
}

impl Default for Source {
    fn default() -> Self {
        Source::Buffered(Vec::new())
    }
}

#[derive(Debug, Default)]
struct SendStream {
    /// Stream length so far: the FIN goes at `len` once `fin` is set.
    len: u64,
    source: Source,
    fin: bool,
    /// Next never-sent byte offset.
    next_new: u64,
    /// Peer's MAX_STREAM_DATA credit.
    tx: Option<TxFlow>,
    /// Byte spans the peer has acknowledged.
    acked: RangeSet,
    /// Spans queued for retransmission `(offset, len)`.
    retransmit: VecDeque<(u64, u64)>,
    fin_sent: bool,
    fin_acked: bool,
    /// Flow time when the stream became fully acknowledged.
    completed_at_us: Option<u64>,
    /// One past the highest byte sent, as the debug-build flow-control
    /// check counts it.
    #[cfg(debug_assertions)]
    sent_end: u64,
}

impl SendStream {
    fn fully_acked(&self) -> bool {
        self.fin && self.fin_acked && (self.len == 0 || self.acked.covers(0, self.len - 1))
    }
}

/// The sender's progress as a driver reads it back — kept only on request
/// ([`DataSender::enable_journal`]).
#[derive(Default)]
struct Journal {
    /// Telemetry since the last `take_events`.
    events: Vec<EventKind>,
    /// Streams completed since the last `take_completed`.
    completed: Vec<(u64, u64)>,
}

/// The sending half of one connection's application data plane.
pub struct DataSender {
    cc: NewReno,
    recovery: Recovery,
    streams: BTreeMap<u64, SendStream>,
    conn_tx: TxFlow,
    pacer: Option<Pacer>,
    /// `Some` once a driver asked for it ([`DataSender::enable_journal`]).
    journal: Option<Journal>,
    rounds_without_progress: u32,
    pto_count: u64,
    default_stream_window: u64,
    chunk_bytes: u64,
    sched: Scheduler,
    /// Source bytes held across all streams, and their high-water mark.
    held: u64,
    peak_held: u64,
    /// The streams' `sent_end` summed: the connection's bytes the
    /// debug-build flow-control check holds against MAX_DATA.
    #[cfg(debug_assertions)]
    sent_total: u64,
}

impl DataSender {
    /// A sender with the peer's initial connection credit, a fresh NewReno
    /// window and the stream scheduling policy `sched` (see
    /// [`crate::sched`]). `default_stream_window` seeds per-stream credit
    /// until a MAX_STREAM_DATA arrives (the peer's initial_max_stream_data).
    pub fn new(
        initial_rtt_us: u64,
        conn_limit: u64,
        default_stream_window: u64,
        sched: SchedKind,
    ) -> Self {
        DataSender {
            cc: NewReno::new(),
            recovery: Recovery::new(initial_rtt_us),
            streams: BTreeMap::new(),
            conn_tx: TxFlow::new(conn_limit),
            pacer: None,
            journal: None,
            rounds_without_progress: 0,
            pto_count: 0,
            default_stream_window,
            chunk_bytes: CHUNK_BYTES,
            sched: Scheduler::new(sched),
            held: 0,
            peak_held: 0,
            #[cfg(debug_assertions)]
            sent_total: 0,
        }
    }

    /// Starts recording telemetry events and stream completions for
    /// [`DataSender::take_events`] / [`DataSender::take_completed`]. Off
    /// (the default — a serving session or a download client never drains
    /// them) each site costs one branch and nothing accumulates.
    pub fn enable_journal(&mut self) {
        self.journal.get_or_insert_default();
    }

    fn note_cwnd(&mut self) {
        if let Some(journal) = &mut self.journal {
            journal.events.push(EventKind::CwndUpdated {
                cwnd: self.cc.cwnd(),
                ssthresh: self.cc.ssthresh(),
                in_flight: self.cc.in_flight(),
                phase: self.cc.phase(),
            });
        }
    }

    /// Installs a pacer (packets per virtual second).
    pub fn set_pacing(&mut self, rate_pps: u64) {
        self.pacer = Some(Pacer::new(rate_pps));
    }

    /// Overrides the stream bytes packed per packet. The RTC workload sets
    /// this to one whole frame so a frame maps to one simulated exchange
    /// (the simnet charges virtual time per datagram, not per byte).
    pub fn set_chunk_bytes(&mut self, bytes: u64) {
        assert!(bytes > 0, "chunk size must be positive");
        self.chunk_bytes = bytes;
    }

    /// Appends `data` to the stream's send buffer; `fin` closes it.
    pub fn enqueue(&mut self, stream: u64, data: &[u8], fin: bool) {
        let s = self.open(stream);
        let Source::Buffered(buf) = &mut s.source else {
            panic!("enqueue on a bulk stream");
        };
        buf.extend_from_slice(data);
        s.len += data.len() as u64;
        s.fin |= fin;
        self.note_held(data.len() as u64);
    }

    /// Queues a whole bulk response on `stream` and closes it: `head` (the
    /// HTTP/3 HEADERS frame plus the DATA frame's type and length), then
    /// `body_len` bytes of the bulk body, generated as they are sent.
    pub fn enqueue_bulk(&mut self, stream: u64, head: Vec<u8>, body_len: u64) {
        let s = self.open(stream);
        debug_assert!(s.len == 0, "a bulk response owns its stream");
        s.len = head.len() as u64 + body_len;
        s.fin = true;
        let held = head.len() as u64;
        s.source = Source::Bulk { head };
        self.note_held(held);
    }

    /// The stream `enqueue` appends to, with its credit in place.
    fn open(&mut self, stream: u64) -> &mut SendStream {
        let window = self.default_stream_window;
        let s = self.streams.entry(stream).or_default();
        if s.tx.is_none() {
            s.tx = Some(TxFlow::new(window));
        }
        debug_assert!(!s.fin, "enqueue after fin");
        s
    }

    fn note_held(&mut self, bytes: u64) {
        self.held += bytes;
        self.peak_held = self.peak_held.max(self.held);
    }

    /// High-water mark of the source bytes held across all streams: what
    /// was enqueued as bytes, plus each bulk response's head — never its
    /// body, however long.
    pub fn peak_held(&self) -> u64 {
        self.peak_held
    }

    /// MAX_DATA from the peer.
    pub fn set_max_data(&mut self, limit: u64) {
        self.conn_tx.update_limit(limit);
    }

    /// MAX_STREAM_DATA from the peer.
    pub fn set_max_stream_data(&mut self, stream: u64, limit: u64) {
        let window = self.default_stream_window;
        let s = self.streams.entry(stream).or_default();
        match &mut s.tx {
            Some(tx) => tx.update_limit(limit),
            None => {
                let mut tx = TxFlow::new(window);
                tx.update_limit(limit);
                s.tx = Some(tx);
            }
        }
    }

    /// True when connection-level flow control is exhausted.
    pub fn blocked_at_max_data(&self) -> bool {
        self.conn_tx.blocked() && self.has_unsent_new_data()
    }

    fn has_unsent_new_data(&self) -> bool {
        self.streams
            .values()
            .any(|s| s.next_new < s.len || (s.fin && !s.fin_sent))
    }

    /// Processes an ACK frame's ranges (largest first, as
    /// `quic::AckRanges::iter` yields them) at flow time `now_us`, feeding
    /// the congestion controller, requeueing lost spans (skipping spans that
    /// a later ACK already covered — the spurious-loss dedup), and emitting
    /// telemetry events.
    pub fn on_ack(&mut self, ranges: impl IntoIterator<Item = (u64, u64)>, now_us: u64) {
        let res = self.recovery.on_ack(ranges, now_us);
        if res.newly_acked.is_empty() && res.lost.is_empty() && res.spurious.is_empty() {
            return;
        }
        self.rounds_without_progress = 0;

        for pkt in &res.newly_acked {
            self.cc.on_packet_acked(pkt.bytes, pkt.time_sent_us);
            self.mark_chunks_acked(pkt);
        }
        // A late ACK for a packet we declared lost: its spans count as
        // delivered, which cancels any still-queued retransmission (the
        // spurious-loss dedup). Congestion state stays collapsed — the
        // conservative choice.
        for pkt in &res.spurious {
            self.mark_chunks_acked(pkt);
        }

        // One congestion event per loss burst, keyed to the newest lost
        // packet's send time (RFC 9002 §7.3.1).
        if let Some(newest) = res.lost.iter().map(|p| p.time_sent_us).max() {
            self.cc.on_congestion_event(newest, now_us);
        }
        for pkt in &res.lost {
            self.on_packet_lost(pkt, "reorder");
        }

        // Mark freshly completed streams.
        let done: Vec<u64> = self
            .streams
            .iter()
            .filter(|(_, s)| s.completed_at_us.is_none() && s.fully_acked())
            .map(|(id, _)| *id)
            .collect();
        for id in done {
            self.streams.get_mut(&id).expect("present").completed_at_us = Some(now_us);
            if let Some(journal) = &mut self.journal {
                journal.completed.push((id, now_us));
            }
        }
        self.note_cwnd();
    }

    fn mark_chunks_acked(&mut self, pkt: &SentPacket) {
        let chunk = pkt.chunk;
        let s = self.streams.entry(chunk.stream).or_default();
        if chunk.len > 0 {
            s.acked
                .insert_range(chunk.offset, chunk.offset + chunk.len - 1);
        }
        if chunk.fin {
            s.fin_acked = true;
            s.fin_sent = true;
        }
        // Drop retransmit spans the ack just covered.
        let acked = &s.acked;
        s.retransmit
            .retain(|&(off, len)| len > 0 && !acked.covers(off, off + len - 1));
    }

    /// A packet was declared lost: give its bytes back to the congestion
    /// controller and queue its span for retransmission.
    fn on_packet_lost(&mut self, pkt: &SentPacket, trigger: &'static str) {
        self.cc.on_bytes_discarded(pkt.bytes);
        if let Some(journal) = &mut self.journal {
            journal.events.push(EventKind::PacketLost {
                pn: pkt.pn,
                bytes: pkt.bytes,
                trigger,
            });
        }
        self.requeue_lost_chunks(pkt);
    }

    fn requeue_lost_chunks(&mut self, pkt: &SentPacket) {
        let chunk = pkt.chunk;
        let s = self.streams.entry(chunk.stream).or_default();
        if chunk.fin && !s.fin_acked {
            s.fin_sent = false; // resend the FIN
        }
        if chunk.len == 0 {
            return;
        }
        // Spurious-loss dedup: only what no ACK has covered since is queued
        // for retransmission — the acked prefix/suffix/whole of the span
        // drops out.
        for (lo, hi) in s.acked.gaps(chunk.offset, chunk.offset + chunk.len - 1) {
            s.retransmit.push_back((lo, hi - lo + 1));
        }
    }

    /// A network round elapsed with the connection idle (nothing received).
    /// After [`PTO_ROUNDS`] such rounds with data outstanding, declares all
    /// in-flight packets lost Go-back-N style and requeues them. Returns
    /// true when the PTO fired.
    pub fn on_silent_round(&mut self, now_us: u64) -> bool {
        if self.recovery.in_flight_count() == 0 {
            self.rounds_without_progress = 0;
            return false;
        }
        self.rounds_without_progress += 1;
        if self.rounds_without_progress < PTO_ROUNDS {
            return false;
        }
        self.rounds_without_progress = 0;
        self.pto_count += 1;
        let oldest = self.recovery.oldest_sent_us();
        let lost = self.recovery.declare_all_lost();
        if let Some(sent_us) = oldest {
            self.cc.on_congestion_event(sent_us, now_us);
        }
        for pkt in &lost {
            self.on_packet_lost(pkt, "pto");
        }
        self.note_cwnd();
        true
    }

    fn next_chunk(&mut self) -> Option<ChunkRef> {
        let chunk_bytes = self.chunk_bytes;
        // Phase 1 — retransmissions. Front-of-line healing outranks new
        // data; the scheduler only orders the streams that have queued
        // spans. A stream whose queued spans were all acked in the meantime
        // produces nothing (the scheduler's cursor still moves past it) and
        // drops out of the ready set, so the loop terminates.
        while let Some(id) = self.sched.pick(
            self.streams
                .iter()
                .filter(|(_, s)| !s.retransmit.is_empty())
                .map(|(&id, _)| id),
        ) {
            let s = self.streams.get_mut(&id).expect("ready stream exists");
            while let Some((off, len)) = s.retransmit.pop_front() {
                // Skip spans acked since they were queued.
                if len > 0 && s.acked.covers(off, off + len - 1) {
                    continue;
                }
                let take = len.min(chunk_bytes);
                if take < len {
                    s.retransmit.push_front((off + take, len - take));
                }
                let fin = s.fin && !s.fin_sent && off + take == s.len && s.next_new >= s.len;
                if fin {
                    s.fin_sent = true;
                }
                return Some(ChunkRef {
                    stream: id,
                    offset: off,
                    len: take,
                    fin,
                });
            }
        }
        // Phase 2 — new data, gated by stream and connection credit. The
        // ready set admits streams with credit-admissible bytes or an unsent
        // FIN; the scheduler picks one and the chunk is cut from it.
        let conn_avail = self.conn_tx.available();
        let sendable = |s: &SendStream| {
            let stream_avail = s.tx.as_ref().map_or(0, |t| t.available());
            let want = s.len.saturating_sub(s.next_new);
            let take = want.min(chunk_bytes).min(stream_avail).min(conn_avail);
            take > 0 || (s.fin && !s.fin_sent && s.next_new >= s.len)
        };
        let id = self.sched.pick(
            self.streams
                .iter()
                .filter(|(_, s)| sendable(s))
                .map(|(&id, _)| id),
        )?;
        let s = self.streams.get_mut(&id).expect("ready stream exists");
        let stream_avail = s.tx.as_ref().map_or(0, |t| t.available());
        let want = s.len.saturating_sub(s.next_new);
        let take = want.min(chunk_bytes).min(stream_avail).min(conn_avail);
        let off = s.next_new;
        s.next_new += take;
        let fin = s.fin && !s.fin_sent && s.next_new >= s.len;
        if fin {
            s.fin_sent = true;
        }
        if take > 0 {
            s.tx.as_mut().expect("stream credit").consume(take);
            self.conn_tx.consume(take);
        }
        Some(ChunkRef {
            stream: id,
            offset: off,
            len: take,
            fin,
        })
    }

    /// Sends as many 1-RTT packets as the congestion window, flow credit
    /// and pacer allow at flow time `now_us`. Each packet's STREAM frame is
    /// written into `payload` after what it holds — frames there (an ACK,
    /// window grants) ride in front of the first packet's, and only the
    /// STREAM frame counts against the window — then `seal` seals the
    /// payload as one packet and returns its packet number, under which the
    /// packet is recorded for loss detection, and the payload is cleared.
    /// Returns how many packets were sent; `None` when `seal` refused one
    /// (the connection cannot send), with `payload` cleared.
    pub fn poll(
        &mut self,
        now_us: u64,
        payload: &mut Writer,
        seal: &mut Seal<'_>,
    ) -> Option<usize> {
        let mut sent = 0;
        let rtt = self.recovery.rtt().smoothed_us();
        loop {
            if !self.cc.can_send(MAX_DATAGRAM) {
                break;
            }
            if let Some(p) = &self.pacer {
                // Stop once the pacer's virtual horizon runs a full RTT
                // ahead of flow time: those packets belong to a later round.
                if p.horizon_us() > now_us + rtt {
                    break;
                }
            }
            let Some(chunk) = self.next_chunk() else {
                break;
            };
            let send_us = match &mut self.pacer {
                Some(p) => p.pace(now_us),
                None => now_us,
            };
            let s = self.streams.get(&chunk.stream).expect("stream exists");
            let start = payload.len();
            Frame::encode_stream_header(
                payload,
                chunk.stream,
                chunk.offset,
                chunk.fin,
                chunk.len as usize,
            );
            s.source.fill(chunk.offset, chunk.len, payload.as_mut_vec());
            let bytes = (payload.len() - start) as u64;
            self.cc.on_packet_sent(bytes);
            let pn = seal(payload.as_slice());
            payload.clear();
            self.record_sent(pn?, send_us, chunk, bytes);
            sent += 1;
        }
        Some(sent)
    }

    /// Records the packet `pn` sealed at `send_us`, carrying `chunk` in a
    /// STREAM frame of `bytes`.
    fn record_sent(&mut self, pn: u64, send_us: u64, chunk: ChunkRef, bytes: u64) {
        #[cfg(debug_assertions)]
        self.check_sent(chunk, bytes);
        self.recovery.on_packet_sent(SentPacket {
            pn,
            bytes,
            time_sent_us: send_us,
            chunk,
        });
    }

    /// The transport invariants every sent packet keeps, checked in debug
    /// builds with the sender's own counts: bytes in flight exceed the
    /// window by at most one `MAX_DATAGRAM` (RFC 9002 §7), and no stream
    /// byte lies past the peer's MAX_STREAM_DATA, nor the connection's
    /// bytes past its MAX_DATA (RFC 9000 §4.1).
    ///
    /// A packet larger than `MAX_DATAGRAM` is exempt from the window rule:
    /// an RTC frame travels as one 12.5 KB packet that [`DataSender::poll`]
    /// admits when a `MAX_DATAGRAM` fits, so it overshoots the window by up
    /// to 11.3 KB. That is an open defect (ROADMAP item 19(b)); the
    /// exemption goes when the gate counts a packet's own size.
    #[cfg(debug_assertions)]
    fn check_sent(&mut self, chunk: ChunkRef, bytes: u64) {
        let (in_flight, cwnd) = (self.cc.in_flight(), self.cc.cwnd());
        assert!(
            bytes > MAX_DATAGRAM || in_flight <= cwnd + MAX_DATAGRAM,
            "RFC 9002 §7: {in_flight} bytes in flight past cwnd {cwnd} after a {bytes}-byte packet"
        );
        let s = self
            .streams
            .get_mut(&chunk.stream)
            .expect("a sent chunk's stream exists");
        let end = chunk.offset + chunk.len;
        if end > s.sent_end {
            self.sent_total += end - s.sent_end;
            s.sent_end = end;
        }
        let stream_limit = s.tx.as_ref().map_or(0, TxFlow::limit);
        assert!(
            s.sent_end <= stream_limit,
            "RFC 9000 §4.1: stream {} sent to byte {} past MAX_STREAM_DATA {stream_limit}",
            chunk.stream,
            s.sent_end
        );
        assert!(
            self.sent_total <= self.conn_tx.limit(),
            "RFC 9000 §4.1: {} stream bytes sent past MAX_DATA {}",
            self.sent_total,
            self.conn_tx.limit()
        );
    }

    /// True when every enqueued stream (with its FIN) is fully acknowledged.
    pub fn all_acked(&self) -> bool {
        self.recovery.in_flight_count() == 0
            && self.streams.values().all(|s| !s.fin || s.fully_acked())
            && !self.has_unsent_new_data()
            && self.streams.values().all(|s| s.retransmit.is_empty())
    }

    /// True when stream data is queued (new or retransmit) but not yet sent.
    pub fn has_queued_data(&self) -> bool {
        self.has_unsent_new_data() || self.streams.values().any(|s| !s.retransmit.is_empty())
    }

    /// Streams fully acknowledged since the last call: `(stream, flow time)`
    /// (empty unless [`DataSender::enable_journal`] was called).
    pub fn take_completed(&mut self) -> Vec<(u64, u64)> {
        self.journal
            .as_mut()
            .map(|j| std::mem::take(&mut j.completed))
            .unwrap_or_default()
    }

    /// Telemetry events accumulated since the last call (empty unless
    /// [`DataSender::enable_journal`] was called).
    pub fn take_events(&mut self) -> Vec<EventKind> {
        self.journal
            .as_mut()
            .map(|j| std::mem::take(&mut j.events))
            .unwrap_or_default()
    }

    /// Every queued retransmission as `(stream, offset, len)`.
    #[cfg(test)]
    pub(crate) fn retransmit_spans(&self) -> Vec<(u64, u64, u64)> {
        self.streams
            .iter()
            .flat_map(|(&id, s)| s.retransmit.iter().map(move |&(off, len)| (id, off, len)))
            .collect()
    }

    /// Packets-in-flight count (recovery ledger).
    pub fn in_flight_count(&self) -> usize {
        self.recovery.in_flight_count()
    }

    /// Number of PTO firings so far.
    pub fn pto_count(&self) -> u64 {
        self.pto_count
    }

    /// The congestion controller (telemetry/tests).
    pub fn cc(&self) -> &NewReno {
        &self.cc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::bulk_body_byte;
    use quic::Frames;

    fn sender(conn_limit: u64, stream_window: u64) -> DataSender {
        let mut s = DataSender::new(30_000, conn_limit, stream_window, SchedKind::IdOrder);
        s.enable_journal();
        s
    }

    /// Polls `s`, sealing each payload under the next packet number.
    fn seal_all(s: &mut DataSender, next_pn: &mut u64, now: u64) -> Vec<(u64, Vec<u8>)> {
        let mut sealed = Vec::new();
        let mut payload = Writer::new();
        let sent = s.poll(now, &mut payload, &mut |p| {
            sealed.push((*next_pn, p.to_vec()));
            *next_pn += 1;
            Some(*next_pn - 1)
        });
        assert_eq!(sent, Some(sealed.len()));
        sealed
    }

    #[test]
    fn blocks_at_max_data_and_resumes() {
        let mut s = sender(2_000, 1 << 20);
        s.enqueue(0, &[7u8; 5_000], true);
        let mut pn = 0;
        let sent = seal_all(&mut s, &mut pn, 0);
        // 2000 bytes of connection credit = 1100 + 900.
        assert_eq!(sent.len(), 2);
        assert!(s.blocked_at_max_data());
        assert!(
            seal_all(&mut s, &mut pn, 0).is_empty(),
            "no credit, nothing to send"
        );
        s.set_max_data(10_000);
        assert!(!s.blocked_at_max_data());
        let more = seal_all(&mut s, &mut pn, 1_000);
        assert_eq!(more.len(), 3, "remaining 3000 bytes in 1100-byte chunks");
    }

    #[test]
    fn stream_credit_gates_independently() {
        let mut s = sender(1 << 20, 1_500);
        s.enqueue(0, &[1u8; 4_000], true);
        let mut pn = 0;
        let sent = seal_all(&mut s, &mut pn, 0);
        assert_eq!(sent.len(), 2, "1100 + 400 under stream window");
        s.set_max_stream_data(0, 4_000);
        let more = seal_all(&mut s, &mut pn, 100);
        assert_eq!(more.len(), 3);
    }

    #[test]
    fn out_of_order_ack_declares_loss_and_shrinks_cwnd() {
        let mut s = sender(1 << 20, 1 << 20);
        s.enqueue(0, &[2u8; 20_000], true);
        let mut pn = 0;
        let _sent = seal_all(&mut s, &mut pn, 0);
        let cwnd_before = s.cc().cwnd();
        // ACK only the newest packets: pn 0..=1 fall ≥3 behind → lost.
        let largest = pn - 1;
        s.on_ack([(largest - 1, largest)], 30_000);
        assert!(s.cc().cwnd() < cwnd_before, "loss must collapse the window");
        assert_eq!(s.cc().ssthresh(), s.cc().cwnd());
        let events = s.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, EventKind::PacketLost { .. })));
        assert!(events.iter().any(|e| matches!(
            e,
            EventKind::CwndUpdated {
                phase: "recovery",
                ..
            }
        )));
    }

    #[test]
    fn spurious_loss_retransmit_is_deduped() {
        let mut s = sender(1 << 20, 1 << 20);
        s.enqueue(0, &[3u8; 3_300], true);
        let mut pn = 0;
        let sent = seal_all(&mut s, &mut pn, 0);
        assert_eq!(sent.len(), 3);
        // ACK pn 4 (nothing of ours)… then a gap ACK declares 0 lost.
        s.on_ack([(2, 2)], 30_000); // pn 2 acked; 0 and 1 stay (below threshold? 2-0=2 <3) wait
                                    // pn 0,1 remain in flight. Time-threshold them via a stale ACK later.
        s.on_ack([(1, 2)], 100_000); // pn1 acked late; pn0 now stale → lost
                                     // The "lost" pn 0 chunk is requeued…
                                     // …but a late ACK for pn 0 arrives before retransmission goes out:
        s.on_ack([(0, 2)], 101_000);
        // Retransmission must be suppressed because span 0..1100 is acked.
        let re = seal_all(&mut s, &mut pn, 102_000);
        assert!(
            re.is_empty(),
            "acked span must not be retransmitted: {}",
            re.len()
        );
        assert!(s.all_acked());
    }

    #[test]
    fn pto_requeues_everything_in_flight() {
        let mut s = sender(1 << 20, 1 << 20);
        s.enqueue(0, &[4u8; 2_200], true);
        let mut pn = 0;
        let sent = seal_all(&mut s, &mut pn, 0);
        assert_eq!(sent.len(), 2);
        assert!(!s.on_silent_round(30_000));
        assert!(!s.on_silent_round(60_000));
        assert!(s.on_silent_round(90_000), "third silent round fires PTO");
        let re = seal_all(&mut s, &mut pn, 90_000);
        assert_eq!(re.len(), 2, "both packets retransmitted");
        let events = s.take_events();
        assert!(events
            .iter()
            .any(|e| matches!(e, EventKind::PacketLost { trigger: "pto", .. })));
        // Acks for the retransmissions complete the stream.
        s.on_ack([(2, 3)], 120_000);
        assert!(s.all_acked());
        assert_eq!(s.take_completed(), vec![(0, 120_000)]);
    }

    fn mux_sender(sched: SchedKind) -> DataSender {
        let mut s = DataSender::new(30_000, 1 << 20, 1 << 20, sched);
        s.enable_journal();
        s
    }

    /// Off by default: a sender nobody drains keeps no events and no
    /// completions, however long the transfer.
    #[test]
    fn journal_is_opt_in() {
        let mut s = DataSender::new(30_000, 1 << 20, 1 << 20, SchedKind::IdOrder);
        s.enqueue(0, &[6u8; 20_000], true);
        let mut pn = 0;
        seal_all(&mut s, &mut pn, 0);
        s.on_ack([(pn - 2, pn - 1)], 30_000); // losses and a cwnd update
        for round in 2..40u64 {
            seal_all(&mut s, &mut pn, round * 30_000);
            s.on_ack([(0, pn - 1)], (round + 1) * 30_000);
        }
        assert!(s.all_acked());
        assert!(s.journal.is_none());
        assert!(s.take_events().is_empty() && s.take_completed().is_empty());
    }

    /// The sender against a real [`DataReceiver`] over a channel that
    /// drops, delays and blacks out by a fixed pattern — so every ACK frame
    /// has the shape real receivers send: the whole tracked history, up to
    /// 32 ranges, repeated frame after frame. Bytes in flight stay within
    /// the window whenever something was sent, late ACKs of packets already
    /// declared lost cancel their retransmissions, the PTO's go-back-N
    /// heals the blackouts, and every byte arrives exactly once.
    #[test]
    fn invariants_hold_when_every_ack_repeats_history() {
        use crate::recv::DataReceiver;
        let data: Vec<u8> = (0..400_000u64).map(|i| (i * 7 + (i >> 9)) as u8).collect();
        let mut s = sender(1 << 30, 1 << 30);
        s.enqueue(0, &data, true);
        let mut r = DataReceiver::new(1 << 30, 1 << 30);
        let mut pn = 0;
        let mut delayed: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut most_ranges, mut spurious_seen) = (0, false);
        let mut read = Vec::new();
        for round in 0..4_000u64 {
            let now = round * 30_000;
            let sealed = seal_all(&mut s, &mut pn, now);
            if !sealed.is_empty() {
                assert!(
                    s.cc().in_flight() <= s.cc().cwnd(),
                    "round {round}: {} in flight, cwnd {}",
                    s.cc().in_flight(),
                    s.cc().cwnd()
                );
            }
            // Three dark rounds in every forty: nothing arrives either way.
            let dark = round % 40 >= 37;
            let mut arrived = std::mem::take(&mut delayed);
            for (p, payload) in sealed {
                match p % 11 {
                    _ if dark => {}
                    3 => {}                          // lost
                    7 => delayed.push((p, payload)), // overtaken by a round
                    _ => arrived.push((p, payload)),
                }
            }
            if dark || arrived.is_empty() {
                s.on_silent_round(now);
                continue;
            }
            for (p, payload) in arrived {
                r.on_packet(p, Frames::parse(&payload).expect("own encoding"))
                    .expect("within the limits");
            }
            let n = r.read(0).len();
            read.extend_from_slice(r.read(0));
            r.consume(0, n);
            let mut control = Writer::new();
            assert!(
                r.control_into(&mut control),
                "ack-eliciting packets arrived"
            );
            let frames = Frames::parse(control.as_slice()).expect("own encoding");
            for f in frames {
                if let Frame::Ack { ranges, .. } = f {
                    most_ranges = most_ranges.max(ranges.iter().count());
                }
            }
            let lost_before = s.recovery.lost_pns();
            crate::workload::dispatch_packet(frames, &mut s, now + 30_000);
            let lost_after = s.recovery.lost_pns();
            spurious_seen |= lost_before.iter().any(|p| !lost_after.contains(p));
            if s.all_acked() {
                break;
            }
        }
        assert!(s.all_acked(), "transfer must complete");
        assert!(s.pto_count() > 0, "the dark rounds must have fired the PTO");
        assert!(
            most_ranges >= 8,
            "ACKs carried {most_ranges} ranges at most"
        );
        assert!(
            spurious_seen,
            "a delayed packet must have been acknowledged after its loss"
        );
        assert_eq!(
            r.total_delivered(),
            data.len() as u64,
            "every byte exactly once"
        );
        assert_eq!(read, data);
        assert_eq!(s.take_completed().len(), 1);
    }

    /// A bulk stream puts the same bytes on the wire as the same response
    /// enqueued whole — first sends and retransmissions alike — while
    /// holding only its head.
    #[test]
    fn bulk_source_sends_what_the_buffered_bytes_would() {
        let head = b"\x01\x05head\x00\x50".to_vec();
        let body_len = 9_000u64;
        let mut whole = head.clone();
        whole.extend((0..body_len).map(bulk_body_byte));
        let (mut buffered, mut bulk) = (sender(1 << 20, 1 << 20), sender(1 << 20, 1 << 20));
        buffered.enqueue(0, &whole, true);
        bulk.enqueue_bulk(0, head.clone(), body_len);
        let (mut pn_a, mut pn_b) = (0, 0);
        for round in 0..40u64 {
            let now = round * 30_000;
            let a = seal_all(&mut buffered, &mut pn_a, now);
            let b = seal_all(&mut bulk, &mut pn_b, now);
            assert_eq!(a, b, "round {round}");
            if pn_a > 0 {
                // Acknowledge only the newest packet: older ones are lost
                // and come back as regenerated retransmissions.
                buffered.on_ack([(pn_a - 1, pn_a - 1)], now + 30_000);
                bulk.on_ack([(pn_b - 1, pn_b - 1)], now + 30_000);
            }
        }
        assert!(
            bulk.take_events()
                .iter()
                .any(|e| matches!(e, EventKind::PacketLost { .. })),
            "some chunks went out twice"
        );
        assert_eq!(buffered.peak_held(), whole.len() as u64);
        assert_eq!(bulk.peak_held(), head.len() as u64);
    }

    fn requeue_spans_per_byte(acked: &RangeSet, offset: u64, len: u64) -> Vec<(u64, u64)> {
        let mut spans = Vec::new();
        let (mut off, end) = (offset, offset + len);
        while off < end {
            if acked.contains(off) {
                off += 1;
                continue;
            }
            let mut stop = off + 1;
            while stop < end && !acked.contains(stop) {
                stop += 1;
            }
            spans.push((off, stop - off));
            off = stop;
        }
        spans
    }

    proptest::proptest! {
        /// `requeue_lost_chunks` over `RangeSet::gaps` queues exactly the
        /// spans the byte-by-byte walk it replaced did.
        #[test]
        fn requeue_matches_the_per_byte_walk(
            acked in proptest::collection::vec((0u64..4_000, 1u64..600), 0..10),
            offset in 0u64..3_000,
            len in 0u64..1_200,
            fin in proptest::any::<bool>(),
        ) {
            let mut s = sender(1 << 20, 1 << 20);
            s.enqueue(0, &[0u8; 8], false);
            let stream = s.streams.get_mut(&0).expect("enqueued");
            for (from, n) in acked {
                stream.acked.insert_range(from, from + n - 1);
            }
            let expected = requeue_spans_per_byte(&stream.acked, offset, len);
            let chunk = ChunkRef { stream: 0, offset, len, fin };
            s.requeue_lost_chunks(&SentPacket { pn: 0, bytes: len, time_sent_us: 0, chunk });
            let queued: Vec<(u64, u64)> = s.streams[&0].retransmit.iter().copied().collect();
            proptest::prop_assert_eq!(queued, expected);
        }
    }

    /// Stream id of each packet `poll` sends, in emission order.
    fn polled_streams(s: &mut DataSender, next_pn: &mut u64, now: u64) -> Vec<u64> {
        seal_all(s, next_pn, now)
            .iter()
            .map(
                |(_, p)| match Frame::decode_all(p).expect("own encoding")[..] {
                    [Frame::Stream { id, .. }] => id,
                    ref other => panic!("one STREAM frame per packet: {other:?}"),
                },
            )
            .collect()
    }

    #[test]
    fn round_robin_interleaves_equal_priority_streams() {
        let mut s = mux_sender(SchedKind::RoundRobin);
        for id in [0u64, 4, 8] {
            s.enqueue(id, &[9u8; 3 * 1100], true);
        }
        let mut pn = 0;
        let order = polled_streams(&mut s, &mut pn, 0);
        // cwnd admits 10 packets (IW 12000): strict rotation across the
        // three streams, no stream served twice before the others once.
        assert!(
            order.len() >= 9,
            "expected at least 9 packets, got {}",
            order.len()
        );
        assert_eq!(&order[..9], &[0, 4, 8, 0, 4, 8, 0, 4, 8]);
    }

    #[test]
    fn id_order_drains_streams_sequentially() {
        let mut s = mux_sender(SchedKind::IdOrder);
        for id in [0u64, 4] {
            s.enqueue(id, &[9u8; 2 * 1100], true);
        }
        let mut pn = 0;
        let order = polled_streams(&mut s, &mut pn, 0);
        assert_eq!(
            order,
            vec![0, 0, 4, 4],
            "legacy policy finishes stream 0 first"
        );
    }

    #[test]
    fn retransmissions_outrank_new_data_and_interleave_deterministically() {
        let run = || {
            let mut s = mux_sender(SchedKind::RoundRobin);
            s.enqueue(0, &[1u8; 6 * 1100], true);
            s.enqueue(4, &[2u8; 6 * 1100], true);
            let mut pn = 0;
            let mut order = polled_streams(&mut s, &mut pn, 0);
            // ACK only the newest packets: the oldest fall ≥3 behind and are
            // declared lost on both streams, queueing retransmissions while
            // new data is still pending under the collapsed window.
            let largest = pn - 1;
            s.on_ack([(largest - 1, largest)], 30_000);
            for round in 1..40u64 {
                let more = polled_streams(&mut s, &mut pn, 30_000 + round * 30_000);
                order.extend(&more);
                let largest = pn - 1;
                s.on_ack([(0, largest)], 60_000 + round * 30_000);
                if s.all_acked() {
                    break;
                }
            }
            assert!(s.all_acked());
            order
        };
        // Ten first sends, then the lost spans of both streams interleaved
        // with what new data is left — the whole schedule, pinned by value.
        let expected = vec![0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0];
        assert_eq!(run(), expected);
        assert_eq!(run(), expected, "reproducible run to run");
    }

    #[test]
    fn pacer_defers_sends_beyond_rtt_horizon() {
        let mut s = sender(1 << 20, 1 << 20);
        s.set_pacing(100); // 10ms per packet, burst 10
        s.enqueue(0, &[5u8; 60_000], true);
        let mut pn = 0;
        let first = seal_all(&mut s, &mut pn, 0);
        // Burst of 10 admitted immediately; the horizon then runs ahead of
        // now + rtt (30ms) so the rest waits for later polls.
        assert!(first.len() < 55, "pacer must defer some sends");
        assert!(!first.is_empty());
        // ack everything so cwnd isn't the limiter, then poll later.
        let largest = pn - 1;
        s.on_ack([(0, largest)], 30_000);
        let more = seal_all(&mut s, &mut pn, 200_000);
        assert!(!more.is_empty());
    }
}
