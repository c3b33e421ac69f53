//! SVCB/HTTPS service parameters (draft-ietf-dnsop-svcb-https-05 §2.3).

use qcodec::{CodecError, Reader, Result, Writer};
use simnet::addr::{Ipv4Addr, Ipv6Addr};

/// SvcParamKeys the paper's scans consume.
mod key {
    pub const ALPN: u16 = 1;
    pub const PORT: u16 = 3;
    pub const IPV4HINT: u16 = 4;
    pub const IPV6HINT: u16 = 6;
}

/// Decoded service parameters. Keys must be emitted in strictly increasing
/// order on the wire; unknown keys are preserved.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SvcParams {
    /// `alpn`: protocols the endpoint supports (e.g. `h3-29`).
    pub alpn: Vec<String>,
    /// `port`: alternative port.
    pub port: Option<u16>,
    /// `ipv4hint` addresses.
    pub ipv4hint: Vec<Ipv4Addr>,
    /// `ipv6hint` addresses.
    pub ipv6hint: Vec<Ipv6Addr>,
    /// Unknown parameters (key, value).
    pub unknown: Vec<(u16, Vec<u8>)>,
}

impl SvcParams {
    /// True when any ALPN value indicates HTTP/3 (and thus QUIC) support —
    /// the signal the paper's HTTPS DNS RR scans look for.
    pub fn indicates_quic(&self) -> bool {
        self.alpn.iter().any(|a| a == "h3" || a.starts_with("h3-"))
    }

    /// Encodes parameters in key order.
    pub fn encode(&self, w: &mut Writer) {
        if !self.alpn.is_empty() {
            w.put_u16(key::ALPN);
            let mut body = Writer::new();
            for token in &self.alpn {
                body.put_vec8(token.as_bytes());
            }
            w.put_vec16(body.as_slice());
        }
        if let Some(port) = self.port {
            w.put_u16(key::PORT);
            w.put_u16(2);
            w.put_u16(port);
        }
        if !self.ipv4hint.is_empty() {
            w.put_u16(key::IPV4HINT);
            w.put_u16((self.ipv4hint.len() * 4) as u16);
            for a in &self.ipv4hint {
                w.put_bytes(&a.octets());
            }
        }
        if !self.ipv6hint.is_empty() {
            w.put_u16(key::IPV6HINT);
            w.put_u16((self.ipv6hint.len() * 16) as u16);
            for a in &self.ipv6hint {
                w.put_bytes(&a.octets());
            }
        }
        for (k, v) in &self.unknown {
            w.put_u16(*k);
            w.put_vec16(v);
        }
    }

    /// Decodes parameters until the reader is exhausted.
    pub fn decode(r: &mut Reader<'_>) -> Result<SvcParams> {
        let mut params = SvcParams::default();
        while !r.is_empty() {
            let k = r.read_u16()?;
            let value = r.read_vec16()?;
            let mut vr = Reader::new(value);
            match k {
                key::ALPN => {
                    while !vr.is_empty() {
                        let token = vr.read_vec8()?;
                        params.alpn.push(
                            String::from_utf8(token.to_vec())
                                .map_err(|_| CodecError::Invalid("non-UTF-8 ALPN"))?,
                        );
                    }
                }
                key::PORT => params.port = Some(vr.read_u16()?),
                key::IPV4HINT => {
                    while !vr.is_empty() {
                        let b = vr.read_bytes(4)?;
                        params.ipv4hint.push(Ipv4Addr::new(b[0], b[1], b[2], b[3]));
                    }
                }
                key::IPV6HINT => {
                    while !vr.is_empty() {
                        params.ipv6hint.push(Ipv6Addr::from(vr.read_array::<16>()?));
                    }
                }
                other => params.unknown.push((other, value.to_vec())),
            }
        }
        Ok(params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_full() {
        let p = SvcParams {
            alpn: vec!["h3-29".into(), "h3-28".into(), "h3-27".into()],
            port: Some(443),
            ipv4hint: vec![Ipv4Addr::new(104, 16, 1, 1), Ipv4Addr::new(104, 16, 1, 2)],
            ipv6hint: vec![Ipv6Addr::new(0x2606, 0x4700, 0, 0, 0, 0, 0, 1)],
            unknown: vec![(7, vec![1])],
        };
        let mut w = Writer::new();
        p.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        assert_eq!(SvcParams::decode(&mut r).unwrap(), p);
    }

    #[test]
    fn quic_indication() {
        let mut p = SvcParams {
            alpn: vec!["h2".into()],
            ..SvcParams::default()
        };
        assert!(!p.indicates_quic());
        p.alpn.push("h3-29".into());
        assert!(p.indicates_quic());
        let v1 = SvcParams {
            alpn: vec!["h3".into()],
            ..SvcParams::default()
        };
        assert!(v1.indicates_quic());
    }

    #[test]
    fn empty_params() {
        let p = SvcParams::default();
        let mut w = Writer::new();
        p.encode(&mut w);
        assert!(w.is_empty());
    }
}
