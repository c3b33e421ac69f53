//! TLS 1.3 handshake messages (RFC 8446 §4).
//!
//! Only the messages the QUIC/TCP handshakes exchange are modeled:
//! ClientHello, ServerHello, EncryptedExtensions, Certificate,
//! CertificateVerify, Finished.

use qcodec::{CodecError, Reader, Result, Writer};

use crate::cert::Certificate;
use crate::ext::{decode_extensions, encode_extensions, Extension};

/// Handshake message type codes.
pub mod hs_type {
    pub const CLIENT_HELLO: u8 = 1;
    pub const SERVER_HELLO: u8 = 2;
    pub const ENCRYPTED_EXTENSIONS: u8 = 8;
    pub const CERTIFICATE: u8 = 11;
    pub const CERTIFICATE_VERIFY: u8 = 15;
    pub const FINISHED: u8 = 20;
}

/// ClientHello (RFC 8446 §4.1.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientHello {
    /// 32 random bytes.
    pub random: [u8; 32],
    /// Legacy session id (we send empty over QUIC, 32 bytes over TCP).
    pub session_id: Vec<u8>,
    /// Offered cipher suites (wire values).
    pub cipher_suites: Vec<u16>,
    /// Extensions.
    pub extensions: Vec<Extension>,
}

/// ServerHello (RFC 8446 §4.1.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerHello {
    /// 32 random bytes.
    pub random: [u8; 32],
    /// Echo of the client's legacy session id.
    pub session_id: Vec<u8>,
    /// Selected cipher suite.
    pub cipher_suite: u16,
    /// Extensions (ServerHello form).
    pub extensions: Vec<Extension>,
}

/// Any handshake message we understand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handshake {
    ClientHello(ClientHello),
    ServerHello(ServerHello),
    /// EncryptedExtensions: just an extension list.
    EncryptedExtensions(Vec<Extension>),
    /// Certificate: the leaf chain (we send exactly one entry).
    Certificate(Vec<Certificate>),
    /// CertificateVerify: (signature scheme, signature bytes).
    CertificateVerify(u16, Vec<u8>),
    /// Finished: verify data (32 bytes for SHA-256 suites).
    Finished(Vec<u8>),
}

impl Handshake {
    /// The handshake type code.
    pub fn type_code(&self) -> u8 {
        match self {
            Handshake::ClientHello(_) => hs_type::CLIENT_HELLO,
            Handshake::ServerHello(_) => hs_type::SERVER_HELLO,
            Handshake::EncryptedExtensions(_) => hs_type::ENCRYPTED_EXTENSIONS,
            Handshake::Certificate(_) => hs_type::CERTIFICATE,
            Handshake::CertificateVerify(..) => hs_type::CERTIFICATE_VERIFY,
            Handshake::Finished(_) => hs_type::FINISHED,
        }
    }

    /// Encodes with the 4-byte handshake header (type + u24 length).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(self.type_code());
        w.lengthed24(|w| self.encode_body(w));
        w.into_vec()
    }

    fn encode_body(&self, w: &mut Writer) {
        match self {
            Handshake::ClientHello(ch) => {
                w.put_u16(0x0303); // legacy_version
                w.put_bytes(&ch.random);
                w.put_vec8(&ch.session_id);
                w.lengthed16(|w| {
                    for cs in &ch.cipher_suites {
                        w.put_u16(*cs);
                    }
                });
                w.put_vec8(&[0]); // legacy_compression_methods = [null]
                encode_extensions(w, &ch.extensions);
            }
            Handshake::ServerHello(sh) => {
                w.put_u16(0x0303);
                w.put_bytes(&sh.random);
                w.put_vec8(&sh.session_id);
                w.put_u16(sh.cipher_suite);
                w.put_u8(0); // legacy_compression_method
                encode_extensions(w, &sh.extensions);
            }
            Handshake::EncryptedExtensions(exts) => encode_extensions(w, exts),
            Handshake::Certificate(chain) => {
                w.put_vec8(&[]); // certificate_request_context
                w.lengthed24(|w| {
                    for cert in chain {
                        w.put_vec24(&cert.encode());
                        w.put_u16(0); // no per-certificate extensions
                    }
                });
            }
            Handshake::CertificateVerify(scheme, sig) => {
                w.put_u16(*scheme);
                w.put_vec16(sig);
            }
            Handshake::Finished(verify) => w.put_bytes(verify),
        }
    }

    /// Decodes one handshake message from the front of `r`.
    pub fn decode(r: &mut Reader<'_>) -> Result<Handshake> {
        let type_code = r.read_u8()?;
        let body = r.read_vec24()?;
        let mut br = Reader::new(body);
        let msg = match type_code {
            hs_type::CLIENT_HELLO => {
                let _legacy = br.read_u16()?;
                let random: [u8; 32] = br.read_bytes(32)?.try_into().unwrap();
                let session_id = br.read_vec8()?.to_vec();
                let suites_raw = br.read_vec16()?;
                if !suites_raw.len().is_multiple_of(2) {
                    return Err(CodecError::Invalid("odd cipher suite list"));
                }
                let cipher_suites = suites_raw
                    .chunks(2)
                    .map(|c| u16::from_be_bytes([c[0], c[1]]))
                    .collect();
                let _compression = br.read_vec8()?;
                let extensions = decode_extensions(&mut br, false)?;
                Handshake::ClientHello(ClientHello {
                    random,
                    session_id,
                    cipher_suites,
                    extensions,
                })
            }
            hs_type::SERVER_HELLO => {
                let _legacy = br.read_u16()?;
                let random: [u8; 32] = br.read_bytes(32)?.try_into().unwrap();
                let session_id = br.read_vec8()?.to_vec();
                let cipher_suite = br.read_u16()?;
                let _compression = br.read_u8()?;
                let extensions = decode_extensions(&mut br, true)?;
                Handshake::ServerHello(ServerHello {
                    random,
                    session_id,
                    cipher_suite,
                    extensions,
                })
            }
            hs_type::ENCRYPTED_EXTENSIONS => {
                Handshake::EncryptedExtensions(decode_extensions(&mut br, true)?)
            }
            hs_type::CERTIFICATE => {
                let _ctx = br.read_vec8()?;
                let list = br.read_vec24()?;
                let mut lr = Reader::new(list);
                let mut chain = Vec::new();
                while !lr.is_empty() {
                    let cert_bytes = lr.read_vec24()?;
                    let _exts = lr.read_vec16()?;
                    chain.push(Certificate::decode(cert_bytes)?);
                }
                Handshake::Certificate(chain)
            }
            hs_type::CERTIFICATE_VERIFY => {
                let scheme = br.read_u16()?;
                let sig = br.read_vec16()?.to_vec();
                Handshake::CertificateVerify(scheme, sig)
            }
            hs_type::FINISHED => Handshake::Finished(br.read_rest().to_vec()),
            _ => return Err(CodecError::Invalid("unknown handshake type")),
        };
        if !br.is_empty() {
            return Err(CodecError::Invalid("trailing bytes in handshake message"));
        }
        Ok(msg)
    }

    /// Decodes a concatenated stream of handshake messages.
    pub fn decode_stream(bytes: &[u8]) -> Result<Vec<Handshake>> {
        Ok(Handshake::decode_stream_raw(bytes)?
            .into_iter()
            .map(|(msg, _)| msg)
            .collect())
    }

    /// Like [`Handshake::decode_stream`], but pairs each message with the raw
    /// wire bytes it was parsed from. Transcript maintenance hashes these
    /// slices directly instead of cloning and re-encoding each message.
    pub fn decode_stream_raw(bytes: &[u8]) -> Result<Vec<(Handshake, &[u8])>> {
        let mut out = Vec::new();
        let mut rest = bytes;
        while !rest.is_empty() {
            if rest.len() < 4 {
                return Err(CodecError::Invalid("truncated handshake header"));
            }
            let body_len = u32::from_be_bytes([0, rest[1], rest[2], rest[3]]) as usize;
            let total = 4 + body_len;
            if rest.len() < total {
                return Err(CodecError::Invalid("truncated handshake message"));
            }
            let raw = &rest[..total];
            let mut r = Reader::new(raw);
            out.push((Handshake::decode(&mut r)?, raw));
            rest = &rest[total..];
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertificateAuthority;
    use crate::ext::Extension;

    #[test]
    fn client_hello_roundtrip() {
        let ch = Handshake::ClientHello(ClientHello {
            random: [7; 32],
            session_id: vec![],
            cipher_suites: vec![0x1301, 0x1303],
            extensions: vec![
                Extension::ServerName(Some("example.com".into())),
                Extension::SupportedVersionsList(vec![0x0304]),
                Extension::KeyShareList(vec![(0x001d, vec![5; 32])]),
            ],
        });
        let bytes = ch.encode();
        let mut r = Reader::new(&bytes);
        assert_eq!(Handshake::decode(&mut r).unwrap(), ch);
        assert!(r.is_empty());
    }

    #[test]
    fn server_hello_roundtrip() {
        let sh = Handshake::ServerHello(ServerHello {
            random: [9; 32],
            session_id: vec![1, 2, 3],
            cipher_suite: 0x1301,
            extensions: vec![
                Extension::SelectedVersion(0x0304),
                Extension::KeyShareServer(0x001d, vec![8; 32]),
            ],
        });
        let bytes = sh.encode();
        let mut r = Reader::new(&bytes);
        assert_eq!(Handshake::decode(&mut r).unwrap(), sh);
    }

    #[test]
    fn certificate_roundtrip() {
        let ca = CertificateAuthority::new("CA", 1);
        let cert = ca.issue(1, "example.com", vec![], 0, 10, [2; 32]);
        let msg = Handshake::Certificate(vec![cert]);
        let bytes = msg.encode();
        let mut r = Reader::new(&bytes);
        assert_eq!(Handshake::decode(&mut r).unwrap(), msg);
    }

    #[test]
    fn stream_of_messages() {
        let fin = Handshake::Finished(vec![0xaa; 32]);
        let cv = Handshake::CertificateVerify(0x0807, vec![1; 32]);
        let mut bytes = cv.encode();
        bytes.extend_from_slice(&fin.encode());
        let msgs = Handshake::decode_stream(&bytes).unwrap();
        assert_eq!(msgs, vec![cv, fin]);
    }

    #[test]
    fn decode_stream_raw_slices_match_encoding() {
        let fin = Handshake::Finished(vec![0xbb; 32]);
        let cv = Handshake::CertificateVerify(0x0807, vec![4; 32]);
        let mut bytes = cv.encode();
        bytes.extend_from_slice(&fin.encode());
        let msgs = Handshake::decode_stream_raw(&bytes).unwrap();
        assert_eq!(msgs.len(), 2);
        for (msg, raw) in &msgs {
            assert_eq!(&msg.encode(), raw);
        }
        assert!(Handshake::decode_stream_raw(&bytes[..bytes.len() - 1]).is_err());
        assert!(Handshake::decode_stream_raw(&[20, 0]).is_err());
    }

    #[test]
    fn rejects_unknown_type() {
        let bytes = [99u8, 0, 0, 0];
        let mut r = Reader::new(&bytes);
        assert!(Handshake::decode(&mut r).is_err());
    }
}
