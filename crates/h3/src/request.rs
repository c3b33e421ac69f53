//! Request/response helpers over HTTP/3 streams: what the QScanner sends
//! (HEAD) and what the simulated servers answer.

use qcodec::{Reader, Writer};

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

/// Encodes a response (HEADERS + optional DATA) for a request stream.
pub fn encode_response(status: u16, headers: &[Header], body: &[u8]) -> Vec<u8> {
    let mut all = vec![Header::new(":status", &status.to_string())];
    all.extend_from_slice(headers);
    let mut w = Writer::new();
    H3Frame::Headers(encode_field_section(&all)).encode(&mut w);
    if !body.is_empty() {
        H3Frame::Data(body.to_vec()).encode(&mut w);
    }
    w.into_vec()
}

/// Parses a response stream's bytes into a [`Response`].
pub fn decode_response(bytes: &[u8]) -> Option<Response> {
    let frames = H3Frame::decode_all(bytes).ok()?;
    let mut status = 0u16;
    let mut headers = Vec::new();
    let mut body = Vec::new();
    for f in frames {
        match f {
            H3Frame::Headers(fs) => {
                for h in decode_field_section(&fs).ok()? {
                    if h.name == ":status" {
                        status = h.value.parse().ok()?;
                    } else {
                        headers.push(h);
                    }
                }
            }
            H3Frame::Data(d) => body.extend_from_slice(&d),
            _ => {}
        }
    }
    (status != 0).then_some(Response {
        status,
        headers,
        body,
    })
}

/// Reads the stream-type varint off the front of a unidirectional stream.
pub fn uni_stream_type(bytes: &[u8]) -> Option<(u64, &[u8])> {
    let mut r = Reader::new(bytes);
    let ty = r.read_varint().ok()?;
    Some((ty, r.rest()))
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
