//! HTTP/3 frames (RFC 9114 §7): varint type, varint length, payload.

use qcodec::{CodecError, Reader, Result, Writer};

/// HTTP/3 frame types the stack understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum H3Frame {
    /// DATA (0x0).
    Data(Vec<u8>),
    /// HEADERS (0x1): QPACK-encoded field section.
    Headers(Vec<u8>),
    /// SETTINGS (0x4): (identifier, value) pairs.
    Settings(Vec<(u64, u64)>),
    /// GOAWAY (0x7).
    GoAway(u64),
    /// Anything else, preserved opaquely (e.g. GREASE frames).
    Unknown(u64, Vec<u8>),
}

impl H3Frame {
    /// Frame type code.
    pub fn type_code(&self) -> u64 {
        match self {
            H3Frame::Data(_) => 0x0,
            H3Frame::Headers(_) => 0x1,
            H3Frame::Settings(_) => 0x4,
            H3Frame::GoAway(_) => 0x7,
            H3Frame::Unknown(t, _) => *t,
        }
    }

    /// Encodes onto `w`.
    pub fn encode(&self, w: &mut Writer) {
        w.put_varint(self.type_code());
        match self {
            H3Frame::Data(body) | H3Frame::Headers(body) => w.put_varvec(body),
            H3Frame::Settings(pairs) => {
                let mut body = Writer::new();
                for (id, value) in pairs {
                    body.put_varint(*id);
                    body.put_varint(*value);
                }
                w.put_varvec(body.as_slice());
            }
            H3Frame::GoAway(id) => {
                let mut body = Writer::new();
                body.put_varint(*id);
                w.put_varvec(body.as_slice());
            }
            H3Frame::Unknown(_, body) => w.put_varvec(body),
        }
    }

    /// Decodes one frame.
    pub fn decode(r: &mut Reader<'_>) -> Result<H3Frame> {
        let ty = r.read_varint()?;
        let body = r.read_varvec()?;
        Ok(match ty {
            0x0 => H3Frame::Data(body.to_vec()),
            0x1 => H3Frame::Headers(body.to_vec()),
            0x4 => {
                let mut br = Reader::new(body);
                let mut pairs = Vec::new();
                while !br.is_empty() {
                    pairs.push((br.read_varint()?, br.read_varint()?));
                }
                H3Frame::Settings(pairs)
            }
            0x7 => {
                let mut br = Reader::new(body);
                H3Frame::GoAway(br.read_varint()?)
            }
            // H2-only frame types are errors in H3 (RFC 9114 §7.2.8).
            0x2 | 0x3 | 0x6 | 0x8 | 0x9 => return Err(CodecError::Invalid("H2 frame type on H3")),
            other => H3Frame::Unknown(other, body.to_vec()),
        })
    }

    /// Decodes all frames in a buffer.
    pub fn decode_all(bytes: &[u8]) -> Result<Vec<H3Frame>> {
        let mut r = Reader::new(bytes);
        let mut out = Vec::new();
        while !r.is_empty() {
            out.push(H3Frame::decode(&mut r)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: H3Frame) {
        let mut w = Writer::new();
        f.encode(&mut w);
        assert_eq!(H3Frame::decode_all(w.as_slice()).unwrap(), vec![f]);
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(H3Frame::Data(b"body".to_vec()));
        roundtrip(H3Frame::Headers(vec![0, 0, 0xd1]));
        roundtrip(H3Frame::Settings(vec![(0x6, 16384), (0x1, 0)]));
        roundtrip(H3Frame::GoAway(4));
        roundtrip(H3Frame::Unknown(0x21, vec![1, 2, 3]));
    }

    #[test]
    fn rejects_h2_types() {
        let mut w = Writer::new();
        w.put_varint(0x2);
        w.put_varvec(&[]);
        assert!(H3Frame::decode_all(w.as_slice()).is_err());
    }

    /// What decoding `len` bytes may ask the allocator for: every frame
    /// takes at least two bytes (a type and a length), every SETTINGS pair
    /// two more, and each vector requests at most four slots per element
    /// as it doubles (from a first capacity of four); the bodies are
    /// copied once.
    fn decode_bound(len: usize) -> usize {
        let frames = len / 2 + 1;
        4 * frames * std::mem::size_of::<H3Frame>()
            + 4 * frames * std::mem::size_of::<(u64, u64)>()
            + len
    }

    proptest::proptest! {
        /// Arbitrary bytes, and valid frames with one byte overwritten, a
        /// length overwritten with a claim up to 2^62 - 1, or the tail
        /// cut: `decode_all` returns `Ok` or `Err` and asks for at most
        /// [`decode_bound`] bytes, whatever a length claims.
        #[test]
        fn hostile_bytes_stay_bounded(
            garbage in proptest::collection::vec(proptest::any::<u8>(), 0..600),
            body in proptest::collection::vec(proptest::any::<u8>(), 0..300),
            pairs in proptest::collection::vec((0u64..1 << 62, 0u64..1 << 62), 0..8),
            at in proptest::any::<usize>(),
            value in proptest::any::<u8>(),
            claim in 0u64..1 << 62,
        ) {
            let mut w = Writer::new();
            H3Frame::Settings(pairs).encode(&mut w);
            H3Frame::Headers(body.clone()).encode(&mut w);
            H3Frame::Data(body).encode(&mut w);
            H3Frame::Unknown(0x21, garbage.clone()).encode(&mut w);
            let valid = w.into_vec();
            let at = at % valid.len();
            let mut flipped = valid.clone();
            flipped[at] = value;
            let mut reclaimed = Writer::new();
            reclaimed.put_varint(0x0);
            reclaimed.put_varint(claim);
            reclaimed.put_bytes(&valid[..at]);
            for bytes in [&garbage[..], &flipped, reclaimed.as_slice(), &valid[..at]] {
                let (_, requested) =
                    crate::request::tests::requested(|| H3Frame::decode_all(bytes));
                proptest::prop_assert!(
                    requested <= decode_bound(bytes.len()),
                    "{} bytes in, {requested} requested",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn sequence_decodes() {
        let mut w = Writer::new();
        H3Frame::Settings(vec![]).encode(&mut w);
        H3Frame::Headers(vec![0, 0]).encode(&mut w);
        H3Frame::Data(vec![9]).encode(&mut w);
        assert_eq!(H3Frame::decode_all(w.as_slice()).unwrap().len(), 3);
    }
}
