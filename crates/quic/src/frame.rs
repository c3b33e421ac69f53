//! QUIC frames (RFC 9000 §19) — the subset the handshake and HTTP/3
//! requests exercise, with parse-and-skip for the frames servers may emit
//! that the scanner ignores.

use qcodec::{CodecError, Reader, Result, Writer};

/// A decoded QUIC frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// PADDING (a run of type-0x00 bytes, coalesced into one frame).
    Padding(usize),
    /// PING.
    Ping,
    /// ACK (ranges are (gap, length) pairs per RFC; we keep decoded ranges of
    /// packet numbers as (smallest, largest), largest range first).
    Ack {
        largest: u64,
        delay: u64,
        ranges: Vec<(u64, u64)>,
    },
    /// CRYPTO.
    Crypto { offset: u64, data: Vec<u8> },
    /// NEW_TOKEN (parse-skip).
    NewToken { token: Vec<u8> },
    /// STREAM with explicit offset/len on the wire.
    Stream {
        id: u64,
        offset: u64,
        fin: bool,
        data: Vec<u8>,
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
        cid: Vec<u8>,
        reset_token: [u8; 16],
    },
    /// CONNECTION_CLOSE; `is_app` distinguishes 0x1d from 0x1c.
    ConnectionClose {
        error_code: u64,
        frame_type: Option<u64>,
        reason: String,
        is_app: bool,
    },
    /// HANDSHAKE_DONE.
    HandshakeDone,
}

impl Frame {
    /// Encodes the frame onto `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            Frame::Padding(n) => w.put_zeroes(*n),
            Frame::Ping => w.put_varint(0x01),
            Frame::Ack {
                largest,
                delay,
                ranges,
            } => {
                w.put_varint(0x02);
                w.put_varint(*largest);
                w.put_varint(*delay);
                // ranges[0] must be the range containing `largest`.
                assert!(!ranges.is_empty(), "ACK needs at least one range");
                w.put_varint(ranges.len() as u64 - 1);
                let first = ranges[0];
                debug_assert_eq!(first.1, *largest);
                w.put_varint(first.1 - first.0); // first ack range
                let mut prev_smallest = first.0;
                for r in &ranges[1..] {
                    let gap = prev_smallest - r.1 - 2;
                    w.put_varint(gap);
                    w.put_varint(r.1 - r.0);
                    prev_smallest = r.0;
                }
            }
            Frame::Crypto { offset, data } => {
                w.put_varint(0x06);
                w.put_varint(*offset);
                w.put_varvec(data);
            }
            Frame::NewToken { token } => {
                w.put_varint(0x07);
                w.put_varvec(token);
            }
            Frame::Stream {
                id,
                offset,
                fin,
                data,
            } => {
                // Type 0x08..0x0f: OFF=0x04, LEN=0x02, FIN=0x01. Always
                // emit OFF|LEN for unambiguous coalescing.
                let ty = 0x08 | 0x04 | 0x02 | u64::from(*fin);
                w.put_varint(ty);
                w.put_varint(*id);
                w.put_varint(*offset);
                w.put_varvec(data);
            }
            Frame::MaxData(v) => {
                w.put_varint(0x10);
                w.put_varint(*v);
            }
            Frame::MaxStreamData { id, max } => {
                w.put_varint(0x11);
                w.put_varint(*id);
                w.put_varint(*max);
            }
            Frame::MaxStreams { bidi, max } => {
                w.put_varint(if *bidi { 0x12 } else { 0x13 });
                w.put_varint(*max);
            }
            Frame::NewConnectionId {
                seq,
                retire_prior_to,
                cid,
                reset_token,
            } => {
                w.put_varint(0x18);
                w.put_varint(*seq);
                w.put_varint(*retire_prior_to);
                w.put_vec8(cid);
                w.put_bytes(reset_token);
            }
            Frame::ConnectionClose {
                error_code,
                frame_type,
                reason,
                is_app,
            } => {
                w.put_varint(if *is_app { 0x1d } else { 0x1c });
                w.put_varint(*error_code);
                if !is_app {
                    w.put_varint(frame_type.unwrap_or(0));
                }
                w.put_varvec(reason.as_bytes());
            }
            Frame::HandshakeDone => w.put_varint(0x1e),
        }
    }

    /// Encodes an ACK covering the single contiguous range `0..=largest` —
    /// byte-identical to `Frame::Ack { largest, delay, ranges: vec![(0, largest)] }.encode(w)`
    /// without building the range vector.
    pub fn encode_ack_single(w: &mut Writer, largest: u64, delay: u64) {
        w.put_varint(0x02);
        w.put_varint(largest);
        w.put_varint(delay);
        w.put_varint(0); // range count - 1
        w.put_varint(largest); // first ack range: largest - smallest(0)
    }

    /// Encodes a CRYPTO frame from a borrowed slice — byte-identical to
    /// `Frame::Crypto { offset, data: data.to_vec() }.encode(w)` without the copy.
    pub fn encode_crypto(w: &mut Writer, offset: u64, data: &[u8]) {
        w.put_varint(0x06);
        w.put_varint(offset);
        w.put_varvec(data);
    }

    /// Encodes a STREAM frame (always OFF|LEN, as [`Frame::encode`] does)
    /// from a borrowed slice.
    pub fn encode_stream(w: &mut Writer, id: u64, offset: u64, fin: bool, data: &[u8]) {
        w.put_varint(0x08 | 0x04 | 0x02 | u64::from(fin));
        w.put_varint(id);
        w.put_varint(offset);
        w.put_varvec(data);
    }

    /// True when one of `frames` acknowledges a packet number at or above
    /// `next_pn`, the first number its packet-number space has not yet
    /// used — RFC 9000 §13.1 makes that a PROTOCOL_VIOLATION. Only the
    /// connection can tell: it numbers every packet of the space, also the
    /// ones (keepalives, control-only packets) no recovery ledger records.
    pub(crate) fn acks_unsent(frames: &[Frame], next_pn: u64) -> bool {
        frames
            .iter()
            .any(|f| matches!(f, Frame::Ack { largest, .. } if *largest >= next_pn))
    }

    /// Decodes every frame in `payload`.
    pub fn decode_all(payload: &[u8]) -> Result<Vec<Frame>> {
        let mut r = Reader::new(payload);
        let mut out = Vec::new();
        while !r.is_empty() {
            out.push(Frame::decode(&mut r)?);
        }
        Ok(out)
    }

    /// Decodes one frame.
    pub fn decode(r: &mut Reader<'_>) -> Result<Frame> {
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
                let range_count = r.read_varint()?;
                let first_range = r.read_varint()?;
                // The count is the peer's word (≤ 2⁶²−1): hold it against
                // the bytes that are there — every further range is two
                // varints of at least a byte each — before looping on it,
                // and let `push` grow the vector.
                if range_count > (r.remaining() / 2) as u64 {
                    return Err(CodecError::Invalid("ACK range count exceeds frame"));
                }
                let mut ranges = Vec::new();
                let mut smallest = largest
                    .checked_sub(first_range)
                    .ok_or(CodecError::Invalid("ACK range underflow"))?;
                ranges.push((smallest, largest));
                for _ in 0..range_count {
                    let gap = r.read_varint()?;
                    let len = r.read_varint()?;
                    let hi = smallest
                        .checked_sub(gap + 2)
                        .ok_or(CodecError::Invalid("ACK gap underflow"))?;
                    let lo = hi
                        .checked_sub(len)
                        .ok_or(CodecError::Invalid("ACK range underflow"))?;
                    ranges.push((lo, hi));
                    smallest = lo;
                }
                if ty == 0x03 {
                    // ECN counts: parse and discard.
                    let _ = (r.read_varint()?, r.read_varint()?, r.read_varint()?);
                }
                Frame::Ack {
                    largest,
                    delay,
                    ranges,
                }
            }
            0x06 => {
                let offset = r.read_varint()?;
                let data = r.read_varvec()?.to_vec();
                Frame::Crypto { offset, data }
            }
            0x07 => Frame::NewToken {
                token: r.read_varvec()?.to_vec(),
            },
            0x08..=0x0f => {
                let has_off = ty & 0x04 != 0;
                let has_len = ty & 0x02 != 0;
                let fin = ty & 0x01 != 0;
                let id = r.read_varint()?;
                let offset = if has_off { r.read_varint()? } else { 0 };
                let data = if has_len {
                    r.read_varvec()?.to_vec()
                } else {
                    r.read_rest().to_vec()
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
                let cid = r.read_vec8()?.to_vec();
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
                let reason_bytes = r.read_varvec()?;
                let reason = String::from_utf8_lossy(reason_bytes).into_owned();
                Frame::ConnectionClose {
                    error_code,
                    frame_type,
                    reason,
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

    fn roundtrip(f: Frame) {
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
        roundtrip(Frame::NewToken {
            token: vec![1, 2, 3],
        });
    }

    #[test]
    fn crypto_and_stream() {
        roundtrip(Frame::Crypto {
            offset: 0,
            data: vec![9; 100],
        });
        roundtrip(Frame::Crypto {
            offset: 1200,
            data: vec![1],
        });
        roundtrip(Frame::Stream {
            id: 0,
            offset: 0,
            fin: true,
            data: b"GET /".to_vec(),
        });
        roundtrip(Frame::Stream {
            id: 3,
            offset: 77,
            fin: false,
            data: vec![0; 10],
        });
    }

    #[test]
    fn ack_single_range() {
        roundtrip(Frame::Ack {
            largest: 5,
            delay: 0,
            ranges: vec![(0, 5)],
        });
    }

    #[test]
    fn ack_multi_range() {
        // Packets 0-1 and 4-5 received: ranges [(4,5),(0,1)].
        roundtrip(Frame::Ack {
            largest: 5,
            delay: 10,
            ranges: vec![(4, 5), (0, 1)],
        });
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
        let ok = Frame::decode_all(&ack_claiming(1, &[1, 0])).unwrap();
        assert_eq!(
            ok,
            vec![Frame::Ack {
                largest: 5,
                delay: 0,
                ranges: vec![(5, 5), (2, 2)]
            }]
        );
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
            reason: "handshake failure".into(),
            is_app: false,
        });
        roundtrip(Frame::ConnectionClose {
            error_code: 0x100,
            frame_type: None,
            reason: String::new(),
            is_app: true,
        });
    }

    /// The borrowed-slice encode helpers must stay byte-identical to the
    /// owned `Frame::encode` forms — conn.rs relies on this to keep the
    /// allocation-free fast path wire-compatible.
    #[test]
    fn encode_helpers_match_owned_frames() {
        for largest in [0u64, 5, 1000] {
            let mut a = Writer::new();
            Frame::Ack {
                largest,
                delay: 0,
                ranges: vec![(0, largest)],
            }
            .encode(&mut a);
            let mut b = Writer::new();
            Frame::encode_ack_single(&mut b, largest, 0);
            assert_eq!(a.as_slice(), b.as_slice());
        }
        let data = vec![0xabu8; 300];
        let mut a = Writer::new();
        Frame::Crypto {
            offset: 7,
            data: data.clone(),
        }
        .encode(&mut a);
        let mut b = Writer::new();
        Frame::encode_crypto(&mut b, 7, &data);
        assert_eq!(a.as_slice(), b.as_slice());
        let mut a = Writer::new();
        Frame::Stream {
            id: 0,
            offset: 12,
            fin: true,
            data: data.clone(),
        }
        .encode(&mut a);
        let mut b = Writer::new();
        Frame::encode_stream(&mut b, 0, 12, true, &data);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn padding_runs_coalesce() {
        let mut w = Writer::new();
        Frame::Padding(10).encode(&mut w);
        Frame::Ping.encode(&mut w);
        let frames = Frame::decode_all(&w.into_vec()).unwrap();
        assert_eq!(frames, vec![Frame::Padding(10), Frame::Ping]);
    }

    #[test]
    fn unknown_frame_rejected() {
        assert!(Frame::decode_all(&[0x21]).is_err());
    }

    #[test]
    fn coalesced_sequence() {
        let mut w = Writer::new();
        Frame::Ack {
            largest: 0,
            delay: 0,
            ranges: vec![(0, 0)],
        }
        .encode(&mut w);
        Frame::Crypto {
            offset: 0,
            data: vec![5; 30],
        }
        .encode(&mut w);
        Frame::Padding(100).encode(&mut w);
        let frames = Frame::decode_all(&w.into_vec()).unwrap();
        assert_eq!(frames.len(), 3);
    }
}
