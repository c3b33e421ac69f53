//! Resource records and their RDATA encodings.

use qcodec::{CodecError, Reader, Result, Writer};
use simnet::addr::{Ipv4Addr, Ipv6Addr};

use crate::svcb::SvcParams;
use crate::wire::{decode_name, encode_name};

/// Query/record types the stack understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QType {
    /// IPv4 address.
    A,
    /// IPv6 address.
    Aaaa,
    /// Canonical name.
    Cname,
    /// Service binding (draft-ietf-dnsop-svcb-https).
    Svcb,
    /// HTTPS-specific service binding.
    Https,
}

impl QType {
    /// IANA type code.
    pub fn code(self) -> u16 {
        match self {
            QType::A => 1,
            QType::Aaaa => 28,
            QType::Cname => 5,
            QType::Svcb => 64,
            QType::Https => 65,
        }
    }

    /// Decodes a type code.
    pub fn from_code(code: u16) -> Option<QType> {
        Some(match code {
            1 => QType::A,
            28 => QType::Aaaa,
            5 => QType::Cname,
            64 => QType::Svcb,
            65 => QType::Https,
            _ => return None,
        })
    }
}

/// Typed RDATA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RData {
    /// A.
    A(Ipv4Addr),
    /// AAAA.
    Aaaa(Ipv6Addr),
    /// CNAME target.
    Cname(String),
    /// SVCB/HTTPS in ServiceMode (priority ≥ 1) or AliasMode (priority 0).
    Svc {
        /// SvcPriority; 0 = AliasMode.
        priority: u16,
        /// TargetName ("." encodes as empty).
        target: String,
        /// Service parameters.
        params: SvcParams,
    },
}

impl RData {
    /// The record type this RDATA belongs to, given how it's being served
    /// (SVCB vs. HTTPS share a wire format).
    pub fn qtype(&self, https: bool) -> QType {
        match self {
            RData::A(_) => QType::A,
            RData::Aaaa(_) => QType::Aaaa,
            RData::Cname(_) => QType::Cname,
            RData::Svc { .. } => {
                if https {
                    QType::Https
                } else {
                    QType::Svcb
                }
            }
        }
    }

    /// Encodes the RDATA body.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            RData::A(a) => w.put_bytes(&a.octets()),
            RData::Aaaa(a) => w.put_bytes(&a.octets()),
            RData::Cname(name) => encode_name(w, name),
            RData::Svc {
                priority,
                target,
                params,
            } => {
                w.put_u16(*priority);
                encode_name(w, target);
                params.encode(w);
            }
        }
    }

    /// Decodes RDATA of the given type.
    pub fn decode(qtype: QType, bytes: &[u8]) -> Result<RData> {
        let mut r = Reader::new(bytes);
        let rdata = match qtype {
            QType::A => {
                let b = r.read_bytes(4)?;
                RData::A(Ipv4Addr::new(b[0], b[1], b[2], b[3]))
            }
            QType::Aaaa => RData::Aaaa(Ipv6Addr::from(r.read_array::<16>()?)),
            QType::Cname => RData::Cname(decode_name(&mut r, bytes)?),
            QType::Svcb | QType::Https => {
                let priority = r.read_u16()?;
                let target = decode_name(&mut r, bytes)?;
                let params = SvcParams::decode(&mut r)?;
                RData::Svc {
                    priority,
                    target,
                    params,
                }
            }
        };
        if !r.is_empty() {
            return Err(CodecError::Invalid("trailing RDATA bytes"));
        }
        Ok(rdata)
    }
}

/// A full resource record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Owner name.
    pub name: String,
    /// TTL seconds.
    pub ttl: u32,
    /// Typed data.
    pub rdata: RData,
}

impl Record {
    /// Convenience constructor with a 300-second TTL.
    pub fn new(name: &str, rdata: RData) -> Record {
        Record {
            name: name.to_string(),
            ttl: 300,
            rdata,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qtype_codes() {
        for t in [
            QType::A,
            QType::Aaaa,
            QType::Cname,
            QType::Svcb,
            QType::Https,
        ] {
            assert_eq!(QType::from_code(t.code()), Some(t));
        }
        assert_eq!(QType::Https.code(), 65);
        assert_eq!(QType::from_code(16), None); // TXT unsupported
    }

    fn roundtrip(rdata: RData, qtype: QType) {
        let mut w = Writer::new();
        rdata.encode(&mut w);
        let got = RData::decode(qtype, w.as_slice()).unwrap();
        assert_eq!(got, rdata);
    }

    #[test]
    fn rdata_roundtrips() {
        roundtrip(RData::A(Ipv4Addr::new(192, 0, 2, 7)), QType::A);
        roundtrip(
            RData::Aaaa(Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1)),
            QType::Aaaa,
        );
        roundtrip(RData::Cname("cdn.example.net".into()), QType::Cname);
        roundtrip(
            RData::Svc {
                priority: 1,
                target: String::new(),
                params: SvcParams {
                    alpn: vec!["h3-29".into(), "h3".into()],
                    port: Some(443),
                    ipv4hint: vec![Ipv4Addr::new(203, 0, 113, 1)],
                    ipv6hint: vec![Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 2)],
                    unknown: vec![],
                },
            },
            QType::Https,
        );
    }
}
