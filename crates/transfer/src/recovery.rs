//! RFC 9002 loss detection for the 1-RTT application space: an RTT
//! estimator, a ledger of sent packets, and ACK processing that declares
//! losses by packet-number threshold (3) and time threshold (9/8 × smoothed
//! RTT), mirroring the kPacketThreshold / kTimeThreshold defaults.
//!
//! An ACK frame repeats history: a receiver re-announces every range it
//! still tracks, the lowest reaching back to the last renounced gap, so the
//! ledger is *queried by range* — an ACK costs the ranges it carries plus
//! the packets it newly covers, never the packet numbers it spans (which a
//! peer chooses: `[0, 2⁶²−1]` is six bytes on the wire). What was
//! acknowledged is not kept; a packet is in `sent`, in `lost`, or gone.

use std::collections::BTreeMap;

/// Packets this far below the largest acked are lost (RFC 9002 §6.1.1).
pub const PACKET_THRESHOLD: u64 = 3;
/// Time threshold numerator/denominator: 9/8 × max(smoothed, latest) RTT.
pub const TIME_THRESHOLD_NUM: u64 = 9;
pub const TIME_THRESHOLD_DEN: u64 = 8;

/// One retransmittable span of stream data carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkRef {
    /// Stream id.
    pub stream: u64,
    /// Byte offset within the stream.
    pub offset: u64,
    /// Span length in bytes.
    pub len: u64,
    /// The chunk carried the stream's FIN.
    pub fin: bool,
}

/// Ledger entry for an in-flight packet: a plain value, no heap behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SentPacket {
    /// Packet number.
    pub pn: u64,
    /// Bytes on the wire (congestion-controlled size).
    pub bytes: u64,
    /// Flow-local send time (µs).
    pub time_sent_us: u64,
    /// The stream span to requeue if the packet is lost (a data packet
    /// carries exactly one).
    pub chunk: ChunkRef,
}

/// Exponentially-weighted RTT estimator (RFC 9002 §5.3, without ack delay —
/// the simulation acks immediately).
#[derive(Debug, Clone)]
pub struct RttEstimator {
    smoothed_us: u64,
    rttvar_us: u64,
    latest_us: u64,
    has_sample: bool,
}

impl RttEstimator {
    /// Starts from an initial RTT guess.
    pub fn new(initial_rtt_us: u64) -> Self {
        RttEstimator {
            smoothed_us: initial_rtt_us,
            rttvar_us: initial_rtt_us / 2,
            latest_us: initial_rtt_us,
            has_sample: false,
        }
    }

    /// Feeds one sample.
    pub fn on_sample(&mut self, rtt_us: u64) {
        self.latest_us = rtt_us;
        if !self.has_sample {
            self.smoothed_us = rtt_us;
            self.rttvar_us = rtt_us / 2;
            self.has_sample = true;
            return;
        }
        let diff = self.smoothed_us.abs_diff(rtt_us);
        self.rttvar_us = (3 * self.rttvar_us + diff) / 4;
        self.smoothed_us = (7 * self.smoothed_us + rtt_us) / 8;
    }

    /// Smoothed RTT (µs).
    pub fn smoothed_us(&self) -> u64 {
        self.smoothed_us
    }

    /// Most recent sample (µs).
    pub fn latest_us(&self) -> u64 {
        self.latest_us
    }

    /// Loss delay: 9/8 × max(smoothed, latest), floored at 1ms.
    pub fn loss_delay_us(&self) -> u64 {
        let base = self.smoothed_us.max(self.latest_us);
        (base * TIME_THRESHOLD_NUM / TIME_THRESHOLD_DEN).max(1_000)
    }
}

/// Result of processing one ACK frame.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct AckResult {
    /// Packets newly acknowledged by this ACK, ascending pn.
    pub newly_acked: Vec<SentPacket>,
    /// Packets declared lost by this ACK, ascending pn.
    pub lost: Vec<SentPacket>,
    /// Packets previously declared lost that this ACK acknowledged after
    /// all — their retransmissions are spurious and can be cancelled.
    pub spurious: Vec<SentPacket>,
    /// RTT sample taken from the largest newly-acked packet, if any.
    pub latest_rtt_us: Option<u64>,
}

/// The sent-packet ledger plus loss-detection state for one connection's
/// application space.
#[derive(Debug)]
pub struct Recovery {
    sent: BTreeMap<u64, SentPacket>,
    /// Packets declared lost, kept so a late ACK can expose the loss as
    /// spurious and cancel the retransmission.
    lost: BTreeMap<u64, SentPacket>,
    largest_acked: Option<u64>,
    rtt: RttEstimator,
}

impl Recovery {
    /// New ledger with an initial RTT estimate.
    pub fn new(initial_rtt_us: u64) -> Self {
        Recovery {
            sent: BTreeMap::new(),
            lost: BTreeMap::new(),
            largest_acked: None,
            rtt: RttEstimator::new(initial_rtt_us),
        }
    }

    /// Records a sent packet.
    pub fn on_packet_sent(&mut self, pkt: SentPacket) {
        self.sent.insert(pkt.pn, pkt);
    }

    /// The RTT estimator.
    pub fn rtt(&self) -> &RttEstimator {
        &self.rtt
    }

    /// Number of packets still awaiting acknowledgement.
    pub fn in_flight_count(&self) -> usize {
        self.sent.len()
    }

    /// Packets declared lost whose fate no later ACK has settled.
    #[cfg(test)]
    pub(crate) fn lost_pns(&self) -> Vec<u64> {
        self.lost.keys().copied().collect()
    }

    /// Processes an ACK's ranges (largest-first inclusive `(smallest,
    /// largest)` pairs, the `quic::Frame::Ack` wire order) received at
    /// `now_us`. A `smallest > largest` pair acknowledges nothing.
    pub fn on_ack(&mut self, ranges: &[(u64, u64)], now_us: u64) -> AckResult {
        let mut result = AckResult::default();
        let Some(&(_, largest)) = ranges.first() else {
            return result;
        };

        // Collect newly acked packets; an ACK for a packet already declared
        // lost proves the loss spurious.
        for &(lo, hi) in ranges {
            if lo > hi {
                continue; // a `BTreeMap` range query panics on an inverted span
            }
            take_range(&mut self.sent, lo, hi, &mut result.newly_acked);
            take_range(&mut self.lost, lo, hi, &mut result.spurious);
        }
        result.newly_acked.sort_by_key(|p| p.pn);
        result.spurious.sort_by_key(|p| p.pn);
        self.finish_ack(result, largest, now_us)
    }

    /// Everything after the ledger lookups: RTT sample, largest-acked
    /// bookkeeping and the loss declaration against the frame's `largest`.
    fn finish_ack(&mut self, mut result: AckResult, largest: u64, now_us: u64) -> AckResult {
        // RTT sample from the largest newly-acked packet.
        if let Some(pkt) = result.newly_acked.iter().rev().find(|p| p.pn == largest) {
            let sample = now_us.saturating_sub(pkt.time_sent_us).max(1);
            self.rtt.on_sample(sample);
            result.latest_rtt_us = Some(sample);
        }

        if self.largest_acked.is_none_or(|l| largest > l) {
            self.largest_acked = Some(largest);
        }
        let largest_acked = self.largest_acked.expect("set above");

        // Declare losses: packet threshold or time threshold relative to the
        // largest acked packet.
        let loss_delay = self.rtt.loss_delay_us();
        let lost_pns: Vec<u64> = self
            .sent
            .range(..largest_acked)
            .filter(|(pn, pkt)| {
                largest_acked.saturating_sub(**pn) >= PACKET_THRESHOLD
                    || now_us.saturating_sub(pkt.time_sent_us) >= loss_delay
            })
            .map(|(pn, _)| *pn)
            .collect();
        for pn in lost_pns {
            if let Some(pkt) = self.sent.remove(&pn) {
                self.lost.insert(pn, pkt);
                result.lost.push(pkt);
            }
        }
        result
    }

    /// Declares every in-flight packet lost (PTO expiry, Go-back-N style) and
    /// returns them ascending.
    pub fn declare_all_lost(&mut self) -> Vec<SentPacket> {
        let lost: Vec<SentPacket> = std::mem::take(&mut self.sent).into_values().collect();
        self.lost.extend(lost.iter().map(|pkt| (pkt.pn, *pkt)));
        lost
    }

    /// Oldest in-flight send time, if anything is outstanding.
    pub fn oldest_sent_us(&self) -> Option<u64> {
        self.sent.values().map(|p| p.time_sent_us).min()
    }
}

/// Moves the entries of `ledger` with keys in `lo..=hi` onto `out`,
/// ascending: one range query, and nothing visited but what it finds.
fn take_range(ledger: &mut BTreeMap<u64, SentPacket>, lo: u64, hi: u64, out: &mut Vec<SentPacket>) {
    probe();
    out.extend(ledger.extract_if(lo..=hi, |_, _| true).map(|(_, pkt)| {
        probe();
        pkt
    }));
}

/// Tallies one ledger probe (a range query, or an entry taken) for the
/// cost test; nothing outside `cfg(test)`.
fn probe() {
    #[cfg(test)]
    tests::PROBES.with(|p| p.set(p.get() + 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cell::Cell;

    thread_local! {
        /// Ledger probes made by `take_range` on this thread: one per range
        /// query, one per entry taken.
        pub(super) static PROBES: Cell<u64> = const { Cell::new(0) };
    }

    fn pkt(pn: u64, t: u64) -> SentPacket {
        let chunk = ChunkRef {
            stream: 0,
            offset: pn * 1100,
            len: 1100,
            fin: false,
        };
        SentPacket {
            pn,
            bytes: 1200,
            time_sent_us: t,
            chunk,
        }
    }

    impl Recovery {
        /// The walk `on_ack` replaced, kept as its oracle: two map removals
        /// per acknowledged packet *number*, hit or miss.
        fn on_ack_reference(&mut self, ranges: &[(u64, u64)], now_us: u64) -> AckResult {
            let mut result = AckResult::default();
            let Some(&(_, largest)) = ranges.first() else {
                return result;
            };
            for &(lo, hi) in ranges {
                for pn in lo..=hi {
                    if let Some(pkt) = self.sent.remove(&pn) {
                        result.newly_acked.push(pkt);
                    } else if let Some(pkt) = self.lost.remove(&pn) {
                        result.spurious.push(pkt);
                    }
                }
            }
            result.newly_acked.sort_by_key(|p| p.pn);
            result.spurious.sort_by_key(|p| p.pn);
            self.finish_ack(result, largest, now_us)
        }
    }

    #[test]
    fn packet_threshold_declares_old_gaps_lost() {
        let mut r = Recovery::new(30_000);
        for pn in 0..6 {
            r.on_packet_sent(pkt(pn, 1_000 + pn));
        }
        // ACK only pn 5: pns 0,1,2 are ≥3 below the largest → lost; 3,4 wait.
        let res = r.on_ack(&[(5, 5)], 32_000);
        assert_eq!(
            res.newly_acked.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![5]
        );
        assert_eq!(
            res.lost.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(r.in_flight_count(), 2);
    }

    #[test]
    fn time_threshold_declares_stale_packets_lost() {
        let mut r = Recovery::new(10_000);
        r.on_packet_sent(pkt(0, 0));
        r.on_packet_sent(pkt(1, 100_000));
        // ACK pn 1 at t=110_000: RTT sample 10ms, loss delay 11.25ms; pn 0 is
        // 110ms old → lost despite being only 1 below the largest.
        let res = r.on_ack(&[(1, 1)], 110_000);
        assert_eq!(res.latest_rtt_us, Some(10_000));
        assert_eq!(res.lost.iter().map(|p| p.pn).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn out_of_order_ack_ranges_ack_each_packet_once() {
        let mut r = Recovery::new(30_000);
        for pn in 0..8 {
            r.on_packet_sent(pkt(pn, 1_000));
        }
        let res1 = r.on_ack(&[(6, 7), (2, 3)], 31_000);
        assert_eq!(
            res1.newly_acked.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![2, 3, 6, 7]
        );
        // pns 0, 1, 4 fall ≥3 below the largest (7) → already declared lost.
        assert_eq!(
            res1.lost.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![0, 1, 4]
        );
        // Second ACK repeats old ranges and adds 4..=5: pn 5 is newly acked,
        // pn 4 surfaces as a spurious loss, nothing is double-counted.
        let res2 = r.on_ack(&[(2, 7)], 32_000);
        assert_eq!(
            res2.newly_acked.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![5]
        );
        assert_eq!(
            res2.spurious.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![4]
        );
        // Acknowledged packets are gone; pns 0 and 1 wait in `lost`.
        assert_eq!(r.in_flight_count(), 0);
        assert_eq!(r.lost.keys().copied().collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn late_ack_of_lost_packet_is_spurious() {
        let mut r = Recovery::new(10_000);
        for pn in 0..5 {
            r.on_packet_sent(pkt(pn, 1_000));
        }
        let res = r.on_ack(&[(4, 4)], 12_000);
        assert_eq!(
            res.lost.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![0, 1]
        );
        // The "lost" pn 0 turns up in a later ACK: reported spurious once.
        let res2 = r.on_ack(&[(0, 1)], 13_000);
        assert!(res2.newly_acked.is_empty());
        assert_eq!(
            res2.spurious.iter().map(|p| p.pn).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let res3 = r.on_ack(&[(0, 1)], 14_000);
        assert!(res3.spurious.is_empty(), "spurious reported only once");
    }

    /// Runs `f` and returns the ledger probes it made.
    fn probes_of(f: impl FnOnce()) -> u64 {
        let before = PROBES.with(Cell::get);
        f();
        PROBES.with(Cell::get) - before
    }

    /// No clock is read: under the per-packet-number walk the 20,000
    /// cumulative ACKs below are 2·10⁹ map removals and the last call is
    /// 2⁶² of them, so a regression shows as a test that never finishes.
    #[test]
    fn ack_cost_follows_what_is_newly_covered_not_the_span() {
        let mut r = Recovery::new(30_000);
        let mut next_pn = 0u64;
        while next_pn < 200_000 {
            for _ in 0..10 {
                r.on_packet_sent(pkt(next_pn, next_pn));
                next_pn += 1;
            }
            // The shape a loss-free receiver sends: one range, all history.
            let mut newly = 0;
            let probes =
                probes_of(|| newly = r.on_ack(&[(0, next_pn - 1)], next_pn).newly_acked.len());
            assert_eq!(newly, 10);
            assert!(
                probes <= 2 + 10,
                "{probes} probes for 10 new packets at pn {next_pn}"
            );
        }
        assert_eq!(r.in_flight_count(), 0);
        for span in [(0, 199_999), (0, u64::MAX >> 2)] {
            let probes = probes_of(|| {
                let res = r.on_ack(&[span], 300_000);
                assert!(
                    res.newly_acked.is_empty() && res.lost.is_empty() && res.spurious.is_empty()
                );
            });
            assert_eq!(probes, 2, "one query per ledger map, nothing found");
        }
        // 32 ranges over three fresh packets: two queries per range plus
        // one probe per packet found, whatever the ranges span.
        for pn in [next_pn, next_pn + 1_000, next_pn + 2_000] {
            r.on_packet_sent(pkt(pn, 300_000));
        }
        let ranges: Vec<(u64, u64)> = (0..32u64)
            .rev()
            .map(|k| (k << 40, (k << 40) + (1 << 39)))
            .collect();
        let probes = probes_of(|| assert_eq!(r.on_ack(&ranges, 330_000).newly_acked.len(), 3));
        assert_eq!(probes, 2 * 32 + 3);
    }

    #[test]
    fn inverted_and_empty_ack_ranges_acknowledge_nothing() {
        let mut r = Recovery::new(30_000);
        for pn in 0..4 {
            r.on_packet_sent(pkt(pn, 1_000));
        }
        assert_eq!(r.on_ack(&[], 2_000), AckResult::default());
        let res = r.on_ack(&[(3, 0)], 2_000);
        assert!(res.newly_acked.is_empty() && res.spurious.is_empty());
        assert_eq!(
            r.on_ack(&[(3, 3), (2, 1)], 2_000).newly_acked,
            vec![pkt(3, 1_000)]
        );
    }

    fn splitmix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    proptest! {
        /// Two ledgers, one schedule: bursts of sends; a peer that receives
        /// most recent packets and now and then a long-overdue one (already
        /// declared lost here) and acknowledges *everything it tracks* in
        /// up to 32 descending ranges, so every ACK overlaps the ones
        /// before; ranges no honest peer sends (unordered, overlapping,
        /// inverted, never sent); PTO-style `declare_all_lost`. The range
        /// queries and the per-packet-number walk must agree on every
        /// `AckResult` and on what is left in `sent` and `lost`.
        #[test]
        fn range_queries_match_the_per_packet_number_walk(
            ops in proptest::collection::vec((0u8..10, any::<u64>()), 1..80),
        ) {
            let mut new = Recovery::new(30_000);
            let mut old = Recovery::new(30_000);
            let mut received = crate::ranges::RangeSet::new();
            let mut next_pn = 0u64;
            let mut now = 0u64;
            for (op, seed) in ops {
                let mut bits = seed;
                let mut draw = |n: u64| {
                    bits = splitmix(bits);
                    bits % n
                };
                now += 1 + draw(40_000);
                let ranges: Vec<(u64, u64)> = match op {
                    0..=3 => {
                        for _ in 0..1 + draw(12) {
                            new.on_packet_sent(pkt(next_pn, now));
                            old.on_packet_sent(pkt(next_pn, now));
                            next_pn += 1;
                        }
                        continue;
                    }
                    4..=7 if next_pn > 0 => {
                        for pn in next_pn.saturating_sub(1 + draw(24))..next_pn {
                            if draw(4) != 0 {
                                received.insert(pn);
                            }
                        }
                        if draw(3) == 0 {
                            received.insert(draw(next_pn));
                        }
                        received.truncate_smallest(crate::recv::MAX_ACK_RANGES);
                        received.iter_desc().collect()
                    }
                    8 => (0..1 + draw(5)).map(|_| (draw(next_pn + 4), draw(next_pn + 4))).collect(),
                    _ => {
                        prop_assert_eq!(new.declare_all_lost(), old.declare_all_lost());
                        Vec::new()
                    }
                };
                prop_assert_eq!(new.on_ack(&ranges, now), old.on_ack_reference(&ranges, now));
                prop_assert_eq!(new.rtt().smoothed_us(), old.rtt().smoothed_us());
                prop_assert!(new.sent.keys().eq(old.sent.keys()), "sent diverged");
                prop_assert!(new.lost.keys().eq(old.lost.keys()), "lost diverged");
            }
        }
    }

    #[test]
    fn rtt_estimator_smooths() {
        let mut e = RttEstimator::new(30_000);
        e.on_sample(10_000);
        assert_eq!(e.smoothed_us(), 10_000);
        e.on_sample(20_000);
        assert_eq!(e.smoothed_us(), (7 * 10_000 + 20_000) / 8);
        assert!(e.loss_delay_us() >= e.latest_us());
    }
}
