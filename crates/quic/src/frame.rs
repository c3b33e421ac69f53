//! QUIC frames (RFC 9000 §19) — the subset the handshake and HTTP/3
//! requests exercise, with parse-and-skip for the frames servers may emit
//! that the scanner ignores.

use qcodec::{CodecError, Reader, Result, Writer};

/// A decoded QUIC frame, borrowing its data from the packet payload it was
/// read from: a STREAM or CRYPTO frame's bytes are a slice of the payload,
/// an ACK's ranges stay in their wire encoding ([`AckRanges`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame<'a> {
    /// PADDING (a run of type-0x00 bytes, coalesced into one frame).
    Padding(usize),
    /// PING.
    Ping,
    /// ACK; ECN counts (type 0x03) are read and dropped.
    Ack {
        largest: u64,
        delay: u64,
        ranges: AckRanges<'a>,
    },
    /// CRYPTO.
    Crypto { offset: u64, data: &'a [u8] },
    /// NEW_TOKEN (parse-skip).
    NewToken { token: &'a [u8] },
    /// STREAM with explicit offset/len on the wire.
    Stream {
        id: u64,
        offset: u64,
        fin: bool,
        data: &'a [u8],
    },
    /// MAX_DATA.
    MaxData(u64),
    /// MAX_STREAM_DATA.
    MaxStreamData { id: u64, max: u64 },
    /// MAX_STREAMS (bidi when `bidi`).
    MaxStreams { bidi: bool, max: u64 },
    /// NEW_CONNECTION_ID (contents retained, unused).
    NewConnectionId {
        seq: u64,
        retire_prior_to: u64,
        cid: &'a [u8],
        reset_token: [u8; 16],
    },
    /// CONNECTION_CLOSE; `is_app` distinguishes 0x1d from 0x1c. The reason
    /// phrase is the peer's bytes, UTF-8 or not.
    ConnectionClose {
        error_code: u64,
        frame_type: Option<u64>,
        reason: &'a [u8],
        is_app: bool,
    },
    /// HANDSHAKE_DONE.
    HandshakeDone,
}

/// An ACK frame's ranges as the wire carries them (RFC 9000 §19.3.1): the
/// first range below `largest`, then (gap, length) pairs walking down, all
/// checked when the frame was decoded. [`AckRanges::iter`] yields them as
/// inclusive `(smallest, largest)` packet-number pairs, largest range first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckRanges<'a> {
    largest: u64,
    first_range: u64,
    /// Ranges after the first.
    count: u64,
    /// Their (gap, length) varint pairs.
    rest: &'a [u8],
}

impl<'a> AckRanges<'a> {
    /// The ranges, largest first.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + 'a {
        let mut smallest = self.largest - self.first_range;
        let first = (smallest, self.largest);
        let mut r = Reader::new(self.rest);
        let rest = (0..self.count).map(move |_| {
            let gap = r.read_varint().expect("checked when decoded");
            let len = r.read_varint().expect("checked when decoded");
            let hi = smallest - gap - 2;
            smallest = hi - len;
            (smallest, hi)
        });
        std::iter::once(first).chain(rest)
    }
}

/// A packet payload whose frames all decode, checked once by
/// [`Frames::parse`] and then read as often as needed: each pass decodes
/// the frames again, borrowing from the payload, with no list built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frames<'a>(&'a [u8]);

impl<'a> Frames<'a> {
    /// Checks that every frame of `payload` decodes.
    pub fn parse(payload: &'a [u8]) -> Result<Self> {
        let mut r = Reader::new(payload);
        while !r.is_empty() {
            Frame::decode(&mut r)?;
        }
        Ok(Frames(payload))
    }

    /// The frames in wire order.
    pub fn iter(&self) -> FrameIter<'a> {
        FrameIter(Reader::new(self.0))
    }

    /// True when one of the frames acknowledges a packet number at or
    /// above `next_pn`, the first number its packet-number space has not
    /// yet used — RFC 9000 §13.1 makes that a PROTOCOL_VIOLATION. Only the
    /// connection can tell: it numbers every packet of the space, also the
    /// ones (keepalives, control-only packets) no recovery ledger records.
    pub(crate) fn acks_unsent(&self, next_pn: u64) -> bool {
        self.iter()
            .any(|f| matches!(f, Frame::Ack { largest, .. } if largest >= next_pn))
    }
}

impl<'a> IntoIterator for Frames<'a> {
    type Item = Frame<'a>;
    type IntoIter = FrameIter<'a>;

    fn into_iter(self) -> FrameIter<'a> {
        self.iter()
    }
}

/// The frames of a [`Frames`] payload, decoded one at a time.
#[derive(Debug, Clone)]
pub struct FrameIter<'a>(Reader<'a>);

impl<'a> Iterator for FrameIter<'a> {
    type Item = Frame<'a>;

    fn next(&mut self) -> Option<Frame<'a>> {
        (!self.0.is_empty()).then(|| Frame::decode(&mut self.0).expect("checked by Frames::parse"))
    }
}

impl<'a> Frame<'a> {
    /// Encodes the frame onto `w`.
    pub fn encode(&self, w: &mut Writer) {
        match *self {
            Frame::Padding(n) => w.put_zeroes(n),
            Frame::Ping => w.put_varint(0x01),
            Frame::Ack {
                largest,
                delay,
                ranges,
            } => {
                w.put_varint(0x02);
                w.put_varint(largest);
                w.put_varint(delay);
                w.put_varint(ranges.count);
                w.put_varint(ranges.first_range);
                w.put_bytes(ranges.rest);
            }
            Frame::Crypto { offset, data } => Frame::encode_crypto(w, offset, data),
            Frame::NewToken { token } => {
                w.put_varint(0x07);
                w.put_varvec(token);
            }
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => Frame::encode_stream(w, id, offset, fin, data),
            Frame::MaxData(v) => {
                w.put_varint(0x10);
                w.put_varint(v);
            }
            Frame::MaxStreamData { id, max } => {
                w.put_varint(0x11);
                w.put_varint(id);
                w.put_varint(max);
            }
            Frame::MaxStreams { bidi, max } => {
                w.put_varint(if bidi { 0x12 } else { 0x13 });
                w.put_varint(max);
            }
            Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
                reset_token,
            } => {
                w.put_varint(0x18);
                w.put_varint(seq);
                w.put_varint(retire_prior_to);
                w.put_vec8(cid);
                w.put_bytes(&reset_token);
            }
            Frame::ConnectionClose {
                error_code,
                frame_type,
                reason,
                is_app,
            } => {
                w.put_varint(if is_app { 0x1d } else { 0x1c });
                w.put_varint(error_code);
                if !is_app {
                    w.put_varint(frame_type.unwrap_or(0));
                }
                w.put_varvec(reason);
            }
            Frame::HandshakeDone => w.put_varint(0x1e),
        }
    }

    /// Encodes an ACK of `ranges`, inclusive `(smallest, largest)` pairs
    /// that descend without touching, largest first; the first one's upper
    /// end is the frame's largest acknowledged.
    pub fn encode_ack(
        w: &mut Writer,
        delay: u64,
        ranges: impl ExactSizeIterator<Item = (u64, u64)>,
    ) {
        let mut ranges = ranges;
        let count = ranges.len() as u64;
        let (mut prev_smallest, largest) = ranges.next().expect("ACK needs at least one range");
        w.put_varint(0x02);
        w.put_varint(largest);
        w.put_varint(delay);
        w.put_varint(count - 1);
        w.put_varint(largest - prev_smallest); // first ack range
        for (lo, hi) in ranges {
            w.put_varint(prev_smallest - hi - 2); // gap
            w.put_varint(hi - lo);
            prev_smallest = lo;
        }
    }

    /// Encodes an ACK covering the single contiguous range `0..=largest` —
    /// byte-identical to [`Frame::encode_ack`] of `[(0, largest)]`.
    pub fn encode_ack_single(w: &mut Writer, largest: u64, delay: u64) {
        w.put_varint(0x02);
        w.put_varint(largest);
        w.put_varint(delay);
        w.put_varint(0); // range count - 1
        w.put_varint(largest); // first ack range: largest - smallest(0)
    }

    /// Encodes a CRYPTO frame.
    pub fn encode_crypto(w: &mut Writer, offset: u64, data: &[u8]) {
        w.put_varint(0x06);
        w.put_varint(offset);
        w.put_varvec(data);
    }

    /// Encodes a STREAM frame, always with OFF and LEN, for unambiguous
    /// coalescing (type 0x08..0x0f: OFF=0x04, LEN=0x02, FIN=0x01).
    pub fn encode_stream(w: &mut Writer, id: u64, offset: u64, fin: bool, data: &[u8]) {
        Frame::encode_stream_header(w, id, offset, fin, data.len());
        w.put_bytes(data);
    }

    /// Encodes the part of a STREAM frame before its `len` data bytes, which
    /// the caller appends next: a sender writes the bytes straight into the
    /// payload.
    pub fn encode_stream_header(w: &mut Writer, id: u64, offset: u64, fin: bool, len: usize) {
        w.put_varint(0x08 | 0x04 | 0x02 | u64::from(fin));
        w.put_varint(id);
        w.put_varint(offset);
        w.put_varint(len as u64);
    }

    /// Decodes every frame in `payload` into a list — for tests and
    /// one-off readers; a connection reads [`Frames`] instead.
    pub fn decode_all(payload: &'a [u8]) -> Result<Vec<Frame<'a>>> {
        Ok(Frames::parse(payload)?.iter().collect())
    }

    /// Decodes one frame.
    pub fn decode(r: &mut Reader<'a>) -> Result<Frame<'a>> {
        let ty = r.read_varint()?;
        Ok(match ty {
            0x00 => {
                let mut n = 1;
                while r.peek_u8() == Ok(0) {
                    r.read_u8()?;
                    n += 1;
                }
                Frame::Padding(n)
            }
            0x01 => Frame::Ping,
            0x02 | 0x03 => {
                let largest = r.read_varint()?;
                let delay = r.read_varint()?;
                let count = r.read_varint()?;
                let first_range = r.read_varint()?;
                // The count is the peer's word (≤ 2⁶²−1): hold it against
                // the bytes that are there — every further range is two
                // varints of at least a byte each — before looping on it.
                if count > (r.remaining() / 2) as u64 {
                    return Err(CodecError::Invalid("ACK range count exceeds frame"));
                }
                let mut smallest = largest
                    .checked_sub(first_range)
                    .ok_or(CodecError::Invalid("ACK range underflow"))?;
                let rest = r.rest();
                for _ in 0..count {
                    let gap = r.read_varint()?;
                    let len = r.read_varint()?;
                    smallest = smallest
                        .checked_sub(gap)
                        .and_then(|s| s.checked_sub(2))
                        .and_then(|hi| hi.checked_sub(len))
                        .ok_or(CodecError::Invalid("ACK range underflow"))?;
                }
                let rest = &rest[..rest.len() - r.remaining()];
                if ty == 0x03 {
                    // ECN counts: parse and discard.
                    let _ = (r.read_varint()?, r.read_varint()?, r.read_varint()?);
                }
                Frame::Ack {
                    largest,
                    delay,
                    ranges: AckRanges {
                        largest,
                        first_range,
                        count,
                        rest,
                    },
                }
            }
            0x06 => Frame::Crypto {
                offset: r.read_varint()?,
                data: r.read_varvec()?,
            },
            0x07 => Frame::NewToken {
                token: r.read_varvec()?,
            },
            0x08..=0x0f => {
                let has_off = ty & 0x04 != 0;
                let has_len = ty & 0x02 != 0;
                let fin = ty & 0x01 != 0;
                let id = r.read_varint()?;
                let offset = if has_off { r.read_varint()? } else { 0 };
                let data = if has_len {
                    r.read_varvec()?
                } else {
                    r.read_rest()
                };
                Frame::Stream {
                    id,
                    offset,
                    fin,
                    data,
                }
            }
            0x10 => Frame::MaxData(r.read_varint()?),
            0x11 => Frame::MaxStreamData {
                id: r.read_varint()?,
                max: r.read_varint()?,
            },
            0x12 | 0x13 => Frame::MaxStreams {
                bidi: ty == 0x12,
                max: r.read_varint()?,
            },
            0x18 => {
                let seq = r.read_varint()?;
                let retire_prior_to = r.read_varint()?;
                let cid = r.read_vec8()?;
                let reset_token: [u8; 16] =
                    r.read_bytes(16)?.try_into().expect("fixed-length read");
                Frame::NewConnectionId {
                    seq,
                    retire_prior_to,
                    cid,
                    reset_token,
                }
            }
            0x1c | 0x1d => {
                let error_code = r.read_varint()?;
                let frame_type = if ty == 0x1c {
                    Some(r.read_varint()?)
                } else {
                    None
                };
                Frame::ConnectionClose {
                    error_code,
                    frame_type,
                    reason: r.read_varvec()?,
                    is_app: ty == 0x1d,
                }
            }
            0x1e => Frame::HandshakeDone,
            _ => return Err(CodecError::Invalid("unknown frame type")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(f: Frame<'_>) {
        let mut w = Writer::new();
        f.encode(&mut w);
        let bytes = w.into_vec();
        let got = Frame::decode_all(&bytes).unwrap();
        assert_eq!(got, vec![f]);
    }

    #[test]
    fn simple_frames() {
        roundtrip(Frame::Ping);
        roundtrip(Frame::HandshakeDone);
        roundtrip(Frame::MaxData(123456));
        roundtrip(Frame::MaxStreamData { id: 4, max: 99 });
        roundtrip(Frame::MaxStreams { bidi: true, max: 7 });
        roundtrip(Frame::MaxStreams {
            bidi: false,
            max: 3,
        });
        roundtrip(Frame::NewToken { token: &[1, 2, 3] });
    }

    #[test]
    fn crypto_and_stream() {
        roundtrip(Frame::Crypto {
            offset: 0,
            data: &[9; 100],
        });
        roundtrip(Frame::Crypto {
            offset: 1200,
            data: &[1],
        });
        roundtrip(Frame::Stream {
            id: 0,
            offset: 0,
            fin: true,
            data: b"GET /",
        });
        roundtrip(Frame::Stream {
            id: 3,
            offset: 77,
            fin: false,
            data: &[0; 10],
        });
    }

    /// `ranges` as one encoded ACK frame, decoded back: its largest, and
    /// the ranges it yields.
    fn ack_of(delay: u64, ranges: &[(u64, u64)]) -> (u64, Vec<(u64, u64)>) {
        let mut w = Writer::new();
        Frame::encode_ack(&mut w, delay, ranges.iter().copied());
        let bytes = w.into_vec();
        let frames = Frame::decode_all(&bytes).unwrap();
        let [Frame::Ack {
            largest,
            delay: got_delay,
            ranges: got,
        }] = frames[..]
        else {
            panic!("one ACK frame: {frames:?}");
        };
        assert_eq!(got_delay, delay);
        // Re-encoding a decoded ACK gives the same bytes.
        let mut again = Writer::new();
        frames[0].encode(&mut again);
        assert_eq!(again.as_slice(), &bytes[..]);
        (largest, got.iter().collect())
    }

    #[test]
    fn ack_single_range() {
        assert_eq!(ack_of(0, &[(0, 5)]), (5, vec![(0, 5)]));
    }

    #[test]
    fn ack_multi_range() {
        // Packets 0-1 and 4-5 received: ranges [(4,5),(0,1)].
        assert_eq!(ack_of(10, &[(4, 5), (0, 1)]), (5, vec![(4, 5), (0, 1)]));
        let many: Vec<(u64, u64)> = (0..32u64).rev().map(|k| (k * 10, k * 10 + 3)).collect();
        assert_eq!(ack_of(0, &many), (313, many.clone()));
    }

    /// The first five bytes of an ACK frame — type, largest 5, delay 0 —
    /// followed by `range_count` and a first range of 0.
    fn ack_claiming(range_count: u64, tail: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(0x02);
        w.put_varint(5);
        w.put_varint(0);
        w.put_varint(range_count);
        w.put_varint(0);
        w.put_bytes(tail);
        w.into_vec()
    }

    /// A range count is a claim about the bytes that follow, not a
    /// reservation: a few bytes announcing 2³⁶ or 2⁶²−1 ranges used to
    /// panic ("capacity overflow") or abort on allocation failure before a
    /// single range was read.
    #[test]
    fn ack_range_count_beyond_the_frame_is_an_error() {
        for count in [1 << 36, (1 << 62) - 1] {
            let bytes = ack_claiming(count, &[]);
            assert!(bytes.len() <= 12);
            assert!(Frame::decode_all(&bytes).is_err(), "count {count}");
        }
        // Ten bytes of tail can hold five (gap, length) pairs and no more.
        let tail = [0u8; 10];
        assert!(
            Frame::decode_all(&ack_claiming(6, &tail)).is_err(),
            "remaining/2 + 1"
        );
        // ECN variant shares the path.
        let mut ecn = ack_claiming(1 << 36, &[]);
        ecn[0] = 0x03;
        assert!(Frame::decode_all(&ecn).is_err());
        // A count the bytes can carry still fails cleanly on its contents:
        // five ranges walking down from 5 underflow.
        assert!(Frame::decode_all(&ack_claiming(5, &tail)).is_err());
        // …and one that fits and is consistent decodes.
        let ok = ack_claiming(1, &[1, 0]);
        let frames = Frame::decode_all(&ok).unwrap();
        let [Frame::Ack {
            largest: 5,
            delay: 0,
            ranges,
        }] = frames[..]
        else {
            panic!("one ACK frame: {frames:?}");
        };
        assert_eq!(ranges.iter().collect::<Vec<_>>(), [(5, 5), (2, 2)]);
    }

    /// Whatever decodes, decodes to something the bytes could carry: an
    /// ACK's ranges descend without touching, start at `largest`, and
    /// number no more than one per two bytes of frame.
    fn decode_and_check(bytes: &[u8]) -> std::result::Result<(), String> {
        let Ok(frames) = Frame::decode_all(bytes) else {
            return Ok(());
        };
        for f in frames {
            if let Frame::Ack {
                largest, ranges, ..
            } = f
            {
                let ranges: Vec<(u64, u64)> = ranges.iter().collect();
                prop_assert!(
                    ranges.len() <= bytes.len() / 2 + 1,
                    "{} ranges",
                    ranges.len()
                );
                prop_assert_eq!(ranges[0].1, largest);
                prop_assert!(ranges.iter().all(|(lo, hi)| lo <= hi));
                prop_assert!(ranges.windows(2).all(|w| w[1].1 + 1 < w[0].0));
            }
        }
        Ok(())
    }

    proptest! {
        /// The arbitrary-bytes decoder property (first of ROADMAP item 4's
        /// decoder list): any frame type in front of any bytes, and an ACK
        /// header claiming any range count in front of any bytes, is `Ok`
        /// or `Err` — no panic, no reservation sized by the claim.
        #[test]
        fn decode_survives_arbitrary_bytes(
            ty in 0u8..0x20,
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            count in any::<u64>(),
            shift in 2u32..64,
        ) {
            let mut raw = vec![ty];
            raw.extend_from_slice(&bytes);
            decode_and_check(&raw)?;
            decode_and_check(&ack_claiming(count >> shift, &bytes))?;
        }
    }

    #[test]
    fn connection_close_forms() {
        roundtrip(Frame::ConnectionClose {
            error_code: 0x128,
            frame_type: Some(0),
            reason: b"handshake failure",
            is_app: false,
        });
        roundtrip(Frame::ConnectionClose {
            error_code: 0x100,
            frame_type: None,
            reason: b"",
            is_app: true,
        });
    }

    /// The encode helpers must stay byte-identical to the frames they
    /// stand for — the connections rely on this to keep the wire the same.
    #[test]
    fn encode_helpers_match_frames() {
        for largest in [0u64, 5, 1000] {
            let mut a = Writer::new();
            Frame::encode_ack(&mut a, 0, [(0, largest)].into_iter());
            let mut b = Writer::new();
            Frame::encode_ack_single(&mut b, largest, 0);
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let data = vec![0xabu8; 300];
        let mut a = Writer::new();
        Frame::encode_stream_header(&mut a, 4, 12, true, data.len());
        a.put_bytes(&data);
        let mut b = Writer::new();
        Frame::encode_stream(&mut b, 4, 12, true, &data);
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(
            Frame::decode_all(a.as_slice()).unwrap(),
            [Frame::Stream {
                id: 4,
                offset: 12,
                fin: true,
                data: &data
            }]
        );
    }

    /// A parsed payload reads the same frames on every pass, and one frame
    /// that does not decode fails the whole payload.
    #[test]
    fn frames_parse_once_and_read_again() {
        let mut w = Writer::new();
        Frame::encode_ack(&mut w, 0, [(6, 9), (0, 2)].into_iter());
        Frame::encode_stream(&mut w, 0, 0, false, b"abc");
        Frame::Ping.encode(&mut w);
        let frames = Frames::parse(w.as_slice()).unwrap();
        assert_eq!(frames.iter().count(), 3);
        assert_eq!(
            frames.iter().collect::<Vec<_>>(),
            Frame::decode_all(w.as_slice()).unwrap()
        );
        assert!(frames.acks_unsent(9) && !frames.acks_unsent(10));
        w.put_u8(0x21);
        assert!(Frames::parse(w.as_slice()).is_err());
    }

    #[test]
    fn padding_runs_coalesce() {
        let mut w = Writer::new();
        Frame::Padding(10).encode(&mut w);
        Frame::Ping.encode(&mut w);
        let bytes = w.into_vec();
        let frames = Frame::decode_all(&bytes).unwrap();
        assert_eq!(frames, vec![Frame::Padding(10), Frame::Ping]);
    }

    #[test]
    fn unknown_frame_rejected() {
        assert!(Frame::decode_all(&[0x21]).is_err());
    }

    #[test]
    fn coalesced_sequence() {
        let mut w = Writer::new();
        Frame::encode_ack_single(&mut w, 0, 0);
        Frame::encode_crypto(&mut w, 0, &[5; 30]);
        Frame::Padding(100).encode(&mut w);
        let bytes = w.into_vec();
        let frames = Frame::decode_all(&bytes).unwrap();
        assert_eq!(frames.len(), 3);
    }
}
