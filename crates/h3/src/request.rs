//! Request/response helpers over HTTP/3 streams: what the QScanner sends
//! (HEAD) and what the simulated servers answer.

use qcodec::{varint, CodecError, Reader, Writer};

use crate::frames::H3Frame;
use crate::qpack::{decode_field_section, encode_field_section, Header};
use crate::stream_type;

/// A decoded HTTP request (H3 or H1 — headers normalized to lower case).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Method (GET/HEAD/…).
    pub method: String,
    /// Authority / Host.
    pub authority: String,
    /// Path.
    pub path: String,
    /// Remaining headers.
    pub headers: Vec<Header>,
}

/// A decoded HTTP response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Headers (lower-case names).
    pub headers: Vec<Header>,
    /// Body (empty for HEAD).
    pub body: Vec<u8>,
}

impl Response {
    /// First value of `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|h| h.name == name)
            .map(|h| h.value.as_str())
    }
}

/// Bytes a client sends on its control stream: stream type + SETTINGS.
pub fn client_control_stream() -> Vec<u8> {
    let mut w = Writer::new();
    w.put_varint(stream_type::CONTROL);
    H3Frame::Settings(vec![]).encode(&mut w);
    w.into_vec()
}

/// Bytes a server sends on its control stream (stream id 3).
pub fn server_control_stream() -> Vec<u8> {
    let mut w = Writer::new();
    w.put_varint(stream_type::CONTROL);
    H3Frame::Settings(vec![(0x6, 16384)]).encode(&mut w);
    w.into_vec()
}

/// Encodes a request as a HEADERS frame for a request stream.
pub fn encode_request(method: &str, authority: &str, path: &str, extra: &[Header]) -> Vec<u8> {
    let mut headers = vec![
        Header::new(":method", method),
        Header::new(":scheme", "https"),
        Header::new(":authority", authority),
        Header::new(":path", path),
    ];
    headers.extend_from_slice(extra);
    let mut w = Writer::new();
    H3Frame::Headers(encode_field_section(&headers)).encode(&mut w);
    w.into_vec()
}

/// Parses a request stream's bytes into a [`Request`].
pub fn decode_request(bytes: &[u8]) -> Option<Request> {
    let frames = H3Frame::decode_all(bytes).ok()?;
    let field_section = frames.iter().find_map(|f| match f {
        H3Frame::Headers(b) => Some(b.clone()),
        _ => None,
    })?;
    let all = decode_field_section(&field_section).ok()?;
    let mut method = String::new();
    let mut authority = String::new();
    let mut path = String::new();
    let mut headers = Vec::new();
    for h in all {
        match h.name.as_str() {
            ":method" => method = h.value,
            ":authority" => authority = h.value,
            ":path" => path = h.value,
            ":scheme" => {}
            _ => headers.push(h),
        }
    }
    (!method.is_empty()).then_some(Request {
        method,
        authority,
        path,
        headers,
    })
}

/// The front of a response for a request stream: the HEADERS frame, then
/// (for a non-empty body) the DATA frame's type and length, so that the
/// `body_len` body bytes which follow complete it.
pub fn encode_response_head(status: u16, headers: &[Header], body_len: u64) -> Vec<u8> {
    let mut all = vec![Header::new(":status", &status.to_string())];
    all.extend_from_slice(headers);
    let mut w = Writer::new();
    H3Frame::Headers(encode_field_section(&all)).encode(&mut w);
    if body_len > 0 {
        w.put_varint(DATA);
        w.put_varint(body_len);
    }
    w.into_vec()
}

/// Encodes a response (HEADERS + optional DATA) for a request stream.
pub fn encode_response(status: u16, headers: &[Header], body: &[u8]) -> Vec<u8> {
    let mut bytes = encode_response_head(status, headers, body.len() as u64);
    bytes.extend_from_slice(body);
    bytes
}

/// Parses a whole response stream's bytes into a [`Response`]: a
/// [`ResponseReader`] fed everything at once.
pub fn decode_response(bytes: &[u8]) -> Option<Response> {
    let mut reader = ResponseReader::new();
    let mut body = Vec::new();
    reader
        .feed(bytes, |data| body.extend_from_slice(data))
        .ok()?;
    let mut resp = reader.finish()?;
    resp.body = body;
    Some(resp)
}

/// DATA frame type (RFC 9114 §7.2.1).
const DATA: u64 = 0x0;
/// HEADERS frame type (RFC 9114 §7.2.2).
const HEADERS: u64 = 0x1;
/// A frame's type and length varints take at most this many bytes.
const MAX_FRAME_HEADER: usize = 16;
/// Largest HEADERS frame a [`ResponseReader`] accepts: a longer one is
/// refused before any of it is buffered.
pub const MAX_HEADERS_BYTES: u64 = 64 * 1024;

/// An HTTP/3 response read from its request stream as the bytes arrive, in
/// slices of any size: HEADERS frames yield the status and headers, DATA
/// payload goes to the caller as it comes (never buffered), and unknown or
/// GREASE frames are skipped. All it holds is a partial frame header or a
/// HEADERS field section of at most [`MAX_HEADERS_BYTES`].
#[derive(Debug, Default)]
pub struct ResponseReader {
    part: Part,
    /// A frame header or a field section not yet complete.
    pending: Vec<u8>,
    status: u16,
    headers: Vec<Header>,
    body_len: u64,
    failed: bool,
}

/// What the next byte of the stream belongs to.
#[derive(Debug, Default, Clone, Copy)]
enum Part {
    /// A frame's type and length.
    #[default]
    FrameHeader,
    /// A HEADERS field section, `left` bytes still to come.
    Headers { left: u64 },
    /// DATA payload, `left` bytes still to come.
    Data { left: u64 },
    /// Another frame's payload, skipped.
    Skip { left: u64 },
}

impl ResponseReader {
    /// A reader at the start of a response stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads the next bytes of the stream, handing DATA payload to
    /// `on_data` in stream order. An error — a malformed frame or field
    /// section, an HTTP/2 frame type (RFC 9114 §7.2.8), a HEADERS frame
    /// over [`MAX_HEADERS_BYTES`] — is final: every later feed fails too.
    pub fn feed(&mut self, bytes: &[u8], on_data: impl FnMut(&[u8])) -> Result<(), CodecError> {
        if self.failed {
            return Err(CodecError::Invalid("response stream already failed"));
        }
        let read = self.read(bytes, on_data);
        self.failed = read.is_err();
        read
    }

    fn read(&mut self, mut bytes: &[u8], mut on_data: impl FnMut(&[u8])) -> Result<(), CodecError> {
        while !bytes.is_empty() {
            let left = match &mut self.part {
                Part::FrameHeader => {
                    let had = self.pending.len();
                    let take = bytes.len().min(MAX_FRAME_HEADER - had);
                    self.pending.extend_from_slice(&bytes[..take]);
                    let Some((ty, len, used)) = frame_header(&self.pending) else {
                        // Too short yet; `MAX_FRAME_HEADER` bytes always
                        // parse, so all of `bytes` went into `pending`.
                        return Ok(());
                    };
                    bytes = &bytes[used - had..];
                    self.pending.clear();
                    self.part = match ty {
                        DATA => Part::Data { left: len },
                        HEADERS if len > MAX_HEADERS_BYTES => {
                            return Err(CodecError::Invalid("HEADERS frame over the cap"))
                        }
                        HEADERS => Part::Headers { left: len },
                        0x2 | 0x3 | 0x6 | 0x8 | 0x9 => {
                            return Err(CodecError::Invalid("H2 frame type on H3"))
                        }
                        _ => Part::Skip { left: len },
                    };
                    if len == 0 {
                        self.end_frame()?;
                    }
                    continue;
                }
                Part::Headers { left } | Part::Data { left } | Part::Skip { left } => left,
            };
            let take = (*left).min(bytes.len() as u64);
            *left -= take;
            let done = *left == 0;
            let (now, rest) = bytes.split_at(take as usize);
            bytes = rest;
            match self.part {
                Part::Headers { .. } => self.pending.extend_from_slice(now),
                Part::Data { .. } => {
                    on_data(now);
                    self.body_len += take;
                }
                Part::Skip { .. } | Part::FrameHeader => {}
            }
            if done {
                self.end_frame()?;
            }
        }
        Ok(())
    }

    /// A frame's payload is complete: a field section is decoded, and the
    /// next byte starts a frame.
    fn end_frame(&mut self) -> Result<(), CodecError> {
        if let Part::Headers { .. } = self.part {
            self.on_field_section()?;
        }
        self.part = Part::FrameHeader;
        Ok(())
    }

    fn on_field_section(&mut self) -> Result<(), CodecError> {
        for h in decode_field_section(&self.pending)? {
            if h.name == ":status" {
                self.status = h
                    .value
                    .parse()
                    .map_err(|_| CodecError::Invalid(":status is not a number"))?;
            } else {
                self.headers.push(h);
            }
        }
        self.pending.clear();
        Ok(())
    }

    /// DATA payload bytes read so far.
    pub fn body_len(&self) -> u64 {
        self.body_len
    }

    /// True when nothing failed, a status was read, and the bytes fed end
    /// on a frame boundary — a stream that ends here held a whole response.
    fn is_complete(&self) -> bool {
        !self.failed
            && self.status != 0
            && matches!(self.part, Part::FrameHeader)
            && self.pending.is_empty()
    }

    /// The status and headers, if the bytes fed hold a whole response:
    /// nothing failed, a status was read, and they end on a frame boundary.
    /// The body went to the `on_data` of each feed, so `body` is empty.
    pub fn finish(self) -> Option<Response> {
        self.is_complete().then_some(Response {
            status: self.status,
            headers: self.headers,
            body: Vec::new(),
        })
    }
}

/// A frame's type, payload length and header size, if `bytes` holds them.
fn frame_header(bytes: &[u8]) -> Option<(u64, u64, usize)> {
    let (ty, ty_len) = varint::decode(bytes)?;
    let (len, len_len) = varint::decode(&bytes[ty_len..])?;
    Some((ty, len, ty_len + len_len))
}

/// Reads the stream-type varint off the front of a unidirectional stream.
pub fn uni_stream_type(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let mut r = Reader::new(bytes);
    let ty = r.read_varint().ok()?;
    Some((ty, r.rest()))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    #[test]
    fn head_request_roundtrip() {
        let bytes = encode_request(
            "HEAD",
            "example.com",
            "/",
            &[Header::new("user-agent", "q")],
        );
        let req = decode_request(&bytes).unwrap();
        assert_eq!(req.method, "HEAD");
        assert_eq!(req.authority, "example.com");
        assert_eq!(req.path, "/");
        assert_eq!(req.headers, vec![Header::new("user-agent", "q")]);
    }

    #[test]
    fn response_roundtrip() {
        let bytes = encode_response(
            200,
            &[
                Header::new("server", "gvs 1.0"),
                Header::new("alt-svc", "h3-29=\":443\""),
            ],
            b"",
        );
        let resp = decode_response(&bytes).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("server"), Some("gvs 1.0"));
        assert_eq!(resp.header("alt-svc"), Some("h3-29=\":443\""));
        assert!(resp.body.is_empty());
    }

    #[test]
    fn response_with_body() {
        let bytes = encode_response(404, &[], b"not found");
        let resp = decode_response(&bytes).unwrap();
        assert_eq!(resp.status, 404);
        assert_eq!(resp.body, b"not found");
    }

    #[test]
    fn control_streams_parse() {
        let client_bytes = client_control_stream();
        let (ty, rest) = uni_stream_type(&client_bytes).unwrap();
        assert_eq!(ty, stream_type::CONTROL);
        assert!(matches!(
            H3Frame::decode_all(rest).unwrap()[0],
            H3Frame::Settings(_)
        ));
        let server_bytes = server_control_stream();
        let (ty, _) = uni_stream_type(&server_bytes).unwrap();
        assert_eq!(ty, stream_type::CONTROL);
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(decode_request(b"\xff\xff\xff"), None);
        assert_eq!(decode_response(&[]), None);
    }

    #[test]
    fn head_plus_body_is_the_whole_response() {
        let headers = [Header::new("server", "gvs 1.0")];
        let mut bytes = encode_response_head(200, &headers, 9);
        bytes.extend_from_slice(b"some body");
        assert_eq!(bytes, encode_response(200, &headers, b"some body"));
        assert_eq!(
            encode_response_head(204, &headers, 0),
            encode_response(204, &headers, b"")
        );
    }

    fn frame(ty: u64, payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::new();
        H3Frame::Unknown(ty, payload.to_vec()).encode(&mut w);
        w.into_vec()
    }

    #[test]
    fn reader_skips_grease_and_refuses_h2_frames() {
        let mut bytes = frame(0x21, b"grease");
        bytes.extend(encode_response(200, &[], b"ok"));
        bytes.extend(frame(0x1f * 7 + 0x21, &[]));
        let resp = decode_response(&bytes).expect("GREASE is skipped");
        assert_eq!((resp.status, resp.body.as_slice()), (200, &b"ok"[..]));

        // An HTTP/2 PRIORITY frame: refused, and the reader stays failed.
        let mut reader = ResponseReader::new();
        assert!(reader.feed(&frame(0x2, b"x"), |_| {}).is_err());
        assert!(reader
            .feed(&encode_response(200, &[], b""), |_| {})
            .is_err());
        assert!(!reader.is_complete());
    }

    #[test]
    fn reader_refuses_an_oversized_field_section_from_its_header() {
        // Type and length alone: nothing of the payload arrived, nothing
        // was buffered for it.
        let mut w = Writer::new();
        w.put_varint(HEADERS);
        w.put_varint(MAX_HEADERS_BYTES + 1);
        let mut reader = ResponseReader::new();
        assert!(reader.feed(w.as_slice(), |_| {}).is_err());
        assert!(reader.pending.capacity() <= MAX_FRAME_HEADER);

        let mut w = Writer::new();
        w.put_varint(HEADERS);
        w.put_varint(MAX_HEADERS_BYTES);
        assert!(ResponseReader::new().feed(w.as_slice(), |_| {}).is_ok());
    }

    /// A response with its body spread over DATA frames per `splits`, a
    /// GREASE frame after each split marked so, and the stream offset at
    /// which every frame ends.
    fn layout(
        status: u16,
        headers: &[Header],
        body: &[u8],
        splits: &[(u16, bool)],
    ) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = encode_response_head(status, headers, 0);
        let mut ends = vec![bytes.len()];
        let mut cuts: Vec<usize> = splits
            .iter()
            .map(|&(at, _)| usize::from(at) % (body.len() + 1))
            .collect();
        cuts.sort_unstable();
        cuts.push(body.len());
        let mut from = 0;
        for (i, &to) in cuts.iter().enumerate() {
            let mut w = Writer::new();
            H3Frame::Data(body[from..to].to_vec()).encode(&mut w);
            bytes.extend_from_slice(w.as_slice());
            ends.push(bytes.len());
            if splits.get(i).is_some_and(|&(_, grease)| grease) {
                bytes.extend(frame(0x1f * i as u64 + 0x21, &body[from..to.min(from + 5)]));
                ends.push(bytes.len());
            }
            from = to;
        }
        (bytes, ends)
    }

    fn read_in_pieces(bytes: &[u8], cuts: &[usize]) -> Option<Response> {
        let mut reader = ResponseReader::new();
        let mut body = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&bytes.len()]) {
            reader
                .feed(&bytes[from..to], |d| body.extend_from_slice(d))
                .ok()?;
            from = to;
        }
        let mut resp = reader.finish()?;
        resp.body = body;
        Some(resp)
    }

    proptest::proptest! {
        /// However a response's bytes are split into 1–8 feeds, the reader
        /// decodes what the whole-buffer decode does; cut inside a frame,
        /// the input never reads as a complete response.
        #[test]
        fn any_split_decodes_like_the_whole(
            status in 100u16..600,
            headers in proptest::collection::vec(
                ("[a-z][a-z0-9-]{0,15}", "[ -~&&[^\"]]{0,40}"),
                0..6,
            ),
            body in proptest::collection::vec(proptest::any::<u8>(), 0..3_000),
            splits in proptest::collection::vec(
                (proptest::any::<u16>(), proptest::any::<bool>()),
                0..4,
            ),
            cuts in proptest::collection::vec(proptest::any::<u32>(), 0..8),
        ) {
            let headers: Vec<Header> =
                headers.iter().map(|(n, v)| Header::new(n, v)).collect();
            let (bytes, ends) = layout(status, &headers, &body, &splits);
            let expected = Response { status, headers, body };
            proptest::prop_assert_eq!(decode_response(&bytes), Some(expected.clone()));

            let mut cuts: Vec<usize> =
                cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
            cuts.sort_unstable();
            proptest::prop_assert_eq!(read_in_pieces(&bytes, &cuts), Some(expected));

            let inside = cuts.iter().copied().chain(ends.iter().map(|e| e - 1));
            for cut in inside.filter(|c| !ends.contains(c)) {
                proptest::prop_assert!(
                    read_in_pieces(&bytes[..cut], &[]).is_none(),
                    "{} of {} bytes read as complete",
                    cut,
                    bytes.len()
                );
            }
        }

        /// Arbitrary bytes, and a valid response with one byte overwritten,
        /// its HEADERS length overwritten, its tail cut, or garbage after a
        /// valid prefix, read in 1–8 feeds: every feed returns `Ok` or
        /// `Err` (an `Err` for good), and the reader asks the allocator for
        /// at most `32·len + 4096` bytes in all — nothing is reserved from a
        /// length the peer claims.
        ///
        /// A HEADERS frame of one-byte static references (`0xc0 | 19`,
        /// `:method OPTIONS`) decodes to a header per byte, ≈ 300 bytes
        /// requested per byte read, so its bound comes from the decoded
        /// size cap instead: see [`STATIC_REFERENCE_BOUND`]. It is read at
        /// the largest length the reader accepts and at `refs` references.
        #[test]
        fn hostile_bytes_in_pieces_stay_bounded(
            garbage in proptest::collection::vec(proptest::any::<u8>(), 0..600),
            headers in proptest::collection::vec(
                ("[a-z][a-z0-9-]{0,15}", "[ -~&&[^\"]]{0,40}"),
                0..4,
            ),
            body in proptest::collection::vec(proptest::any::<u8>(), 0..1_500),
            splits in proptest::collection::vec(
                (proptest::any::<u16>(), proptest::any::<bool>()),
                0..3,
            ),
            at in proptest::any::<usize>(),
            value in proptest::any::<u8>(),
            claim in 0..=MAX_HEADERS_BYTES,
            cuts in proptest::collection::vec(proptest::any::<u32>(), 0..8),
            refs in 0..=MAX_HEADERS_BYTES as usize - 2,
        ) {
            let headers: Vec<Header> =
                headers.iter().map(|(n, v)| Header::new(n, v)).collect();
            let (valid, _) = layout(200, &headers, &body, &splits);
            let at = at % valid.len();
            let mut flipped = valid.clone();
            flipped[at] = value;
            let (_, _, used) = frame_header(&valid).expect("a HEADERS frame first");
            let mut w = Writer::new();
            w.put_varint(HEADERS);
            w.put_varint(claim);
            let mut reclaimed = w.into_vec();
            reclaimed.extend_from_slice(&valid[used..]);
            let mut spliced = valid[..at].to_vec();
            spliced.extend_from_slice(&garbage);
            let pieces = |bytes: &[u8]| {
                let mut cuts: Vec<usize> =
                    cuts.iter().map(|&c| c as usize % (bytes.len() + 1)).collect();
                cuts.sort_unstable();
                cuts
            };
            for bytes in [&garbage[..], &flipped, &reclaimed, &valid[..at], &spliced] {
                feed_and_check(bytes, &pieces(bytes), 32 * bytes.len() + 4096)?;
            }
            for refs in [refs, MAX_HEADERS_BYTES as usize - 2] {
                let mut payload = vec![0, 0];
                payload.resize(2 + refs, 0xc0 | 19);
                let bytes = frame(HEADERS, &payload);
                let allowed = 4 * bytes.len() + 4096 + STATIC_REFERENCE_BOUND;
                feed_and_check(&bytes, &pieces(&bytes), allowed)?;
            }
        }
    }

    /// What decoding a field section may request beyond the reader's own
    /// buffer (which doubling keeps under `4·len`): the section is refused
    /// once its RFC 9114 §4.2.2 size passes [`MAX_HEADERS_BYTES`], every
    /// field counts at least 32, so at most `cap / 32` headers are kept,
    /// their names and values total at most the cap, and each of the two
    /// vectors that holds them (the decoded section and the reader's
    /// `headers`) requests at most four `Header`s per header as it doubles.
    const STATIC_REFERENCE_BOUND: usize = MAX_HEADERS_BYTES as usize
        + 2 * 4 * (MAX_HEADERS_BYTES as usize / 32) * std::mem::size_of::<Header>();

    /// Adds up what each thread asks the allocator for, so a test can see a
    /// reservation that is dropped again before the reader returns.
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

    /// Runs `f` and returns what it asked the allocator for on this thread
    /// (the other decoders' bounded-allocation tests share this counter:
    /// a test binary has one global allocator).
    pub(crate) fn requested<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = REQUESTED.get();
        let out = f();
        (out, REQUESTED.get() - before)
    }

    /// Feeds `bytes` to a new reader in the pieces `cuts` marks, then
    /// finishes it. Once a feed fails, every later one fails too; the DATA
    /// handed out is never more than what came in; and the reader requests
    /// at most `allowed` bytes from start to finish.
    fn feed_and_check(bytes: &[u8], cuts: &[usize], allowed: usize) -> Result<(), String> {
        let before = REQUESTED.get();
        let mut reader = ResponseReader::new();
        let (mut data, mut failed, mut from) = (0, false, 0);
        for &to in cuts.iter().chain([&bytes.len()]) {
            let fed = reader.feed(&bytes[from..to], |d| data += d.len());
            proptest::prop_assert!(!failed || fed.is_err(), "a feed after an error succeeded");
            failed |= fed.is_err();
            from = to;
        }
        let complete = reader.finish().is_some();
        let requested = REQUESTED.get() - before;
        proptest::prop_assert!(!(failed && complete), "a failed stream read as complete");
        proptest::prop_assert!(data <= bytes.len());
        proptest::prop_assert!(
            requested <= allowed,
            "{} bytes in, {requested} requested, {allowed} allowed",
            bytes.len()
        );
        Ok(())
    }
}
