//! TLS extensions (RFC 8446 §4.2 plus the QUIC transport-parameters
//! extension from RFC 9001 §8.2).

use qcodec::{CodecError, Reader, Result, Writer};

/// Extension type codes used by the stack.
pub mod ext_type {
    /// server_name (RFC 6066).
    pub const SERVER_NAME: u16 = 0;
    /// supported_groups.
    pub const SUPPORTED_GROUPS: u16 = 10;
    /// signature_algorithms.
    pub const SIGNATURE_ALGORITHMS: u16 = 13;
    /// application_layer_protocol_negotiation (RFC 7301).
    pub const ALPN: u16 = 16;
    /// supported_versions.
    pub const SUPPORTED_VERSIONS: u16 = 43;
    /// key_share.
    pub const KEY_SHARE: u16 = 51;
    /// quic_transport_parameters (RFC 9001).
    pub const QUIC_TRANSPORT_PARAMETERS: u16 = 0x39;
}

/// Key-exchange groups. Only X25519 is implemented — the paper's scanners
/// "offer the X25519 key exchange group which is accepted by close to all
/// targets" (§5.1); the other exists so servers can *prefer* a different
/// group and surface the paper's small QUIC/TCP discrepancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedGroup {
    /// x25519 (0x001d).
    X25519,
    /// secp256r1 (0x0017) — negotiable but keyed via X25519 material in the
    /// simulation (documented substitution).
    Secp256r1,
}

impl NamedGroup {
    /// IANA wire value.
    pub fn wire(self) -> u16 {
        match self {
            NamedGroup::X25519 => 0x001d,
            NamedGroup::Secp256r1 => 0x0017,
        }
    }

    /// Decodes a wire value.
    pub fn from_wire(v: u16) -> Option<NamedGroup> {
        Some(match v {
            0x001d => NamedGroup::X25519,
            0x0017 => NamedGroup::Secp256r1,
            _ => return None,
        })
    }

    /// Registry name for scan results.
    pub fn name(self) -> &'static str {
        match self {
            NamedGroup::X25519 => "x25519",
            NamedGroup::Secp256r1 => "secp256r1",
        }
    }
}

/// A decoded extension. ClientHello and ServerHello forms of
/// `supported_versions` and `key_share` are distinct variants so encoding
/// never has to guess. Unknown extensions are preserved opaquely so the
/// scanners can report the peer's full extension list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Extension {
    /// SNI host name (client) or the empty acknowledgment (server).
    ServerName(Option<String>),
    /// Offered/selected groups.
    SupportedGroups(Vec<u16>),
    /// Signature schemes (opaque list; SimSig ignores them).
    SignatureAlgorithms(Vec<u16>),
    /// ALPN protocol list (client offer or single server selection).
    Alpn(Vec<Vec<u8>>),
    /// supported_versions, ClientHello form (list).
    SupportedVersionsList(Vec<u16>),
    /// supported_versions, ServerHello form (selected version).
    SelectedVersion(u16),
    /// key_share, ClientHello form: offered entries (group, key exchange).
    KeyShareList(Vec<(u16, Vec<u8>)>),
    /// key_share, ServerHello form: the server's single share.
    KeyShareServer(u16, Vec<u8>),
    /// QUIC transport parameters, kept opaque at the TLS layer.
    QuicTransportParameters(Vec<u8>),
    /// Anything else.
    Unknown(u16, Vec<u8>),
}

impl Extension {
    /// The extension's type code.
    pub fn type_code(&self) -> u16 {
        match self {
            Extension::ServerName(_) => ext_type::SERVER_NAME,
            Extension::SupportedGroups(_) => ext_type::SUPPORTED_GROUPS,
            Extension::SignatureAlgorithms(_) => ext_type::SIGNATURE_ALGORITHMS,
            Extension::Alpn(_) => ext_type::ALPN,
            Extension::SupportedVersionsList(_) | Extension::SelectedVersion(_) => {
                ext_type::SUPPORTED_VERSIONS
            }
            Extension::KeyShareList(_) | Extension::KeyShareServer(..) => ext_type::KEY_SHARE,
            Extension::QuicTransportParameters(_) => ext_type::QUIC_TRANSPORT_PARAMETERS,
            Extension::Unknown(t, _) => *t,
        }
    }

    /// Encodes type, length, and body.
    pub fn encode(&self, w: &mut Writer) {
        w.put_u16(self.type_code());
        w.lengthed16(|w| match self {
            Extension::ServerName(None) => {}
            Extension::ServerName(Some(name)) => {
                w.lengthed16(|w| {
                    w.put_u8(0); // name_type host_name
                    w.put_vec16(name.as_bytes());
                });
            }
            Extension::SupportedGroups(groups) => {
                w.lengthed16(|w| {
                    for g in groups {
                        w.put_u16(*g);
                    }
                });
            }
            Extension::SignatureAlgorithms(schemes) => {
                w.lengthed16(|w| {
                    for s in schemes {
                        w.put_u16(*s);
                    }
                });
            }
            Extension::Alpn(protos) => {
                w.lengthed16(|w| {
                    for p in protos {
                        w.put_vec8(p);
                    }
                });
            }
            Extension::SupportedVersionsList(vs) => {
                w.lengthed8(|w| {
                    for v in vs {
                        w.put_u16(*v);
                    }
                });
            }
            Extension::SelectedVersion(v) => w.put_u16(*v),
            Extension::KeyShareList(entries) => {
                w.lengthed16(|w| {
                    for (g, kx) in entries {
                        w.put_u16(*g);
                        w.put_vec16(kx);
                    }
                });
            }
            Extension::KeyShareServer(group, kx) => {
                w.put_u16(*group);
                w.put_vec16(kx);
            }
            Extension::QuicTransportParameters(body) => w.put_bytes(body),
            Extension::Unknown(_, body) => w.put_bytes(body),
        });
    }

    /// Decodes one extension. `in_server_hello` selects the ServerHello
    /// variants of supported_versions and key_share.
    pub fn decode(r: &mut Reader<'_>, in_server_hello: bool) -> Result<Extension> {
        let type_code = r.read_u16()?;
        let body = r.read_vec16()?;
        let mut br = Reader::new(body);
        let ext = match type_code {
            ext_type::SERVER_NAME => {
                if br.is_empty() {
                    Extension::ServerName(None)
                } else {
                    let list = br.read_vec16()?;
                    let mut lr = Reader::new(list);
                    let name_type = lr.read_u8()?;
                    if name_type != 0 {
                        return Err(CodecError::Invalid("unknown SNI name type"));
                    }
                    let name = lr.read_vec16()?;
                    let name = String::from_utf8(name.to_vec())
                        .map_err(|_| CodecError::Invalid("SNI not UTF-8"))?;
                    Extension::ServerName(Some(name))
                }
            }
            ext_type::SUPPORTED_GROUPS => {
                let list = br.read_vec16()?;
                Extension::SupportedGroups(u16_list(list)?)
            }
            ext_type::SIGNATURE_ALGORITHMS => {
                let list = br.read_vec16()?;
                Extension::SignatureAlgorithms(u16_list(list)?)
            }
            ext_type::ALPN => {
                let list = br.read_vec16()?;
                let mut lr = Reader::new(list);
                let mut protos = Vec::new();
                while !lr.is_empty() {
                    protos.push(lr.read_vec8()?.to_vec());
                }
                Extension::Alpn(protos)
            }
            ext_type::SUPPORTED_VERSIONS => {
                if in_server_hello {
                    Extension::SelectedVersion(br.read_u16()?)
                } else {
                    let list = br.read_vec8()?;
                    Extension::SupportedVersionsList(u16_list(list)?)
                }
            }
            ext_type::KEY_SHARE => {
                if in_server_hello {
                    let group = br.read_u16()?;
                    let kx = br.read_vec16()?.to_vec();
                    Extension::KeyShareServer(group, kx)
                } else {
                    let list = br.read_vec16()?;
                    let mut lr = Reader::new(list);
                    let mut entries = Vec::new();
                    while !lr.is_empty() {
                        let group = lr.read_u16()?;
                        let kx = lr.read_vec16()?.to_vec();
                        entries.push((group, kx));
                    }
                    Extension::KeyShareList(entries)
                }
            }
            ext_type::QUIC_TRANSPORT_PARAMETERS => {
                Extension::QuicTransportParameters(body.to_vec())
            }
            other => Extension::Unknown(other, body.to_vec()),
        };
        Ok(ext)
    }
}

fn u16_list(bytes: &[u8]) -> Result<Vec<u16>> {
    if !bytes.len().is_multiple_of(2) {
        return Err(CodecError::Invalid("odd u16 list"));
    }
    Ok(bytes
        .chunks(2)
        .map(|c| u16::from_be_bytes([c[0], c[1]]))
        .collect())
}

/// Encodes an extension block (u16 total length + extensions).
pub fn encode_extensions(w: &mut Writer, exts: &[Extension]) {
    w.lengthed16(|w| {
        for e in exts {
            e.encode(w);
        }
    });
}

/// Decodes an extension block.
pub fn decode_extensions(r: &mut Reader<'_>, in_server_hello: bool) -> Result<Vec<Extension>> {
    let block = r.read_vec16()?;
    let mut br = Reader::new(block);
    let mut out = Vec::new();
    while !br.is_empty() {
        out.push(Extension::decode(&mut br, in_server_hello)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ext: Extension, server: bool) -> Extension {
        let mut w = Writer::new();
        ext.encode(&mut w);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let got = Extension::decode(&mut r, server).unwrap();
        assert!(r.is_empty());
        got
    }

    #[test]
    fn sni_roundtrip() {
        let e = Extension::ServerName(Some("example.com".into()));
        assert_eq!(roundtrip(e.clone(), false), e);
        let ack = Extension::ServerName(None);
        assert_eq!(roundtrip(ack.clone(), false), ack);
    }

    #[test]
    fn alpn_roundtrip() {
        let e = Extension::Alpn(vec![b"h3".to_vec(), b"h3-29".to_vec()]);
        assert_eq!(roundtrip(e.clone(), false), e);
    }

    #[test]
    fn supported_versions_both_forms() {
        let ch = Extension::SupportedVersionsList(vec![0x0304]);
        assert_eq!(roundtrip(ch.clone(), false), ch);
        let sh = Extension::SelectedVersion(0x0304);
        assert_eq!(roundtrip(sh.clone(), true), sh);
    }

    #[test]
    fn key_share_both_forms() {
        let ch = Extension::KeyShareList(vec![(0x001d, vec![1; 32]), (0x0017, vec![2; 65])]);
        assert_eq!(roundtrip(ch.clone(), false), ch);
        let sh = Extension::KeyShareServer(0x001d, vec![9; 32]);
        assert_eq!(roundtrip(sh.clone(), true), sh);
    }

    #[test]
    fn unknown_preserved() {
        let e = Extension::Unknown(0xfafa, vec![1, 2, 3]);
        assert_eq!(roundtrip(e.clone(), false), e);
    }

    #[test]
    fn extension_block() {
        let exts = vec![
            Extension::ServerName(Some("a.example".into())),
            Extension::SelectedVersion(0x0304),
        ];
        let mut w = Writer::new();
        encode_extensions(&mut w, &exts);
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        let got = decode_extensions(&mut r, true).unwrap();
        assert_eq!(got, exts);
        assert!(r.is_empty());
    }

    #[test]
    fn group_wire() {
        assert_eq!(NamedGroup::from_wire(0x001d), Some(NamedGroup::X25519));
        assert_eq!(NamedGroup::X25519.name(), "x25519");
        assert_eq!(NamedGroup::from_wire(0x9999), None);
    }
}
