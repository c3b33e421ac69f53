//! HTTP/1.1 message framing for the TLS-over-TCP scans (Goscanner sends
//! HTTP/1 requests and collects headers, notably `Alt-Svc` and `Server`).

use crate::qpack::Header;
use crate::request::{Request, Response};

/// Serializes an HTTP/1.1 request.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut s = format!(
        "{} {} HTTP/1.1\r\nHost: {}\r\n",
        req.method, req.path, req.authority
    );
    for h in &req.headers {
        s.push_str(&format!("{}: {}\r\n", h.name, h.value));
    }
    s.push_str("Connection: close\r\n\r\n");
    s.into_bytes()
}

/// Parses an HTTP/1.1 request (headers only; bodies unsupported).
pub fn decode_request(bytes: &[u8]) -> Option<Request> {
    let text = core::str::from_utf8(bytes).ok()?;
    let head = text.split("\r\n\r\n").next()?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split(' ');
    let method = parts.next()?.to_string();
    let path = parts.next()?.to_string();
    let version = parts.next()?;
    if !version.starts_with("HTTP/1") {
        return None;
    }
    let mut authority = String::new();
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line.split_once(':')?;
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "host" {
            authority = value;
        } else {
            headers.push(Header { name, value });
        }
    }
    Some(Request {
        method,
        authority,
        path,
        headers,
    })
}

/// Serializes an HTTP/1.1 response.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let reason = match resp.status {
        200 => "OK",
        301 => "Moved Permanently",
        403 => "Forbidden",
        404 => "Not Found",
        503 => "Service Unavailable",
        _ => "Status",
    };
    let mut s = format!("HTTP/1.1 {} {}\r\n", resp.status, reason);
    for h in &resp.headers {
        s.push_str(&format!("{}: {}\r\n", h.name, h.value));
    }
    s.push_str(&format!("content-length: {}\r\n\r\n", resp.body.len()));
    let mut out = s.into_bytes();
    out.extend_from_slice(&resp.body);
    out
}

/// Parses an HTTP/1.1 response.
pub fn decode_response(bytes: &[u8]) -> Option<Response> {
    let split_at = find_header_end(bytes)?;
    let head = core::str::from_utf8(&bytes[..split_at]).ok()?;
    let body = bytes[split_at + 4..].to_vec();
    let mut lines = head.split("\r\n");
    let status_line = lines.next()?;
    let mut parts = status_line.split(' ');
    let version = parts.next()?;
    if !version.starts_with("HTTP/1") {
        return None;
    }
    let status: u16 = parts.next()?.parse().ok()?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line.split_once(':')?;
        headers.push(Header {
            name: name.trim().to_ascii_lowercase(),
            value: value.trim().to_string(),
        });
    }
    Some(Response {
        status,
        headers,
        body,
    })
}

fn find_header_end(bytes: &[u8]) -> Option<usize> {
    bytes.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request {
            method: "GET".into(),
            authority: "example.com".into(),
            path: "/index.html".into(),
            headers: vec![Header::new("user-agent", "goscanner")],
        };
        let got = decode_request(&encode_request(&req)).unwrap();
        assert_eq!(got.method, "GET");
        assert_eq!(got.authority, "example.com");
        assert_eq!(got.path, "/index.html");
        assert!(got.headers.iter().any(|h| h.name == "user-agent"));
    }

    #[test]
    fn response_roundtrip_with_alt_svc() {
        let resp = Response {
            status: 200,
            headers: vec![
                Header::new("server", "cloudflare"),
                Header::new(
                    "alt-svc",
                    "h3-27=\":443\"; ma=86400, h3-28=\":443\"; ma=86400",
                ),
            ],
            body: b"<html></html>".to_vec(),
        };
        let got = decode_response(&encode_response(&resp)).unwrap();
        assert_eq!(got.status, 200);
        assert_eq!(got.header("server"), Some("cloudflare"));
        assert!(got.header("alt-svc").unwrap().contains("h3-27"));
        assert_eq!(got.body, b"<html></html>");
    }

    #[test]
    fn malformed_rejected() {
        assert!(decode_response(b"not http").is_none());
        assert!(decode_request(b"GET /\r\n\r\n").is_none());
    }
}
