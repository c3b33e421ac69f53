//! Hostile-peer properties for the decoders a handshake feeds peer bytes
//! into, in the shape of `quic::frame`'s `decode_survives_arbitrary_bytes`:
//!
//! * `packet::decode_first`, with keys installed for every packet type, so
//!   header-protection removal and AEAD open run on junk;
//! * `TransportParameters::decode`;
//! * `qtls::msgs::Handshake::decode_stream_raw`;
//! * `qtls::record::TlsTcpClient::on_bytes`, which drives the record
//!   buffer's cursor.
//!
//! Each gets arbitrary bytes, headers claiming lengths the bytes do not
//! hold, and mutated valid messages. Every input must end in `Ok` or `Err`:
//! a panic fails the test, and so does any single allocation larger than
//! [`allocation_cap`] of the input's length. The cap grows with the bytes
//! present, not with what a header claims (up to 2^24 for a handshake
//! message, 2^62 for a varint), so a buffer reserved by a claim fails here.
//!
//! One fixed case goes past the decoders: a connection ID longer than RFC
//! 9000's 20 bytes, which the wire format can carry, reaching the
//! Initial-key memo at a server and at a client after a Retry.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use quic::keys::{initial_keys, PacketKeys};
use quic::packet::{decode_first, seal_long, ConnectionId, KeySource, PacketType};
use quic::{
    ClientConnection, Endpoint, EndpointConfig, StreamHandler, StreamSend, TransportParameters,
    Version,
};

use qcodec::Writer;
use qtls::ext::Extension;
use qtls::msgs::{ClientHello, Handshake, ServerHello};
use qtls::record::{TlsTcpClient, TlsTcpServer};

/// The largest single allocation a decoder may make for `len` input bytes:
/// room for every byte decoded into a 32-byte value (a `Vec` of enums,
/// after its last doubling), plus fixed-size key material.
fn allocation_cap(len: usize) -> usize {
    32 * len + 4096
}

/// Records the largest allocation request each thread makes while armed.
struct LargestAllocation;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; `note` only reads and writes two `const`-initialised
// thread-local cells, which neither allocate nor unwind.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` on `input` and fails if any single allocation it made exceeded
/// the cap for the input's length.
fn bounded<T>(what: &str, input: &[u8], f: impl FnOnce(&[u8]) -> T) -> Result<T, String> {
    LARGEST.with(|largest| largest.set(0));
    ARMED.with(|armed| armed.set(true));
    let out = f(input);
    ARMED.with(|armed| armed.set(false));
    let largest = LARGEST.with(Cell::get);
    prop_assert!(
        largest <= allocation_cap(input.len()),
        "{what}: one allocation of {largest} bytes for {} input bytes",
        input.len()
    );
    Ok(out)
}

/// Flips the byte at each `(position, xor)` (positions wrap) and cuts the
/// result to at most `keep` bytes.
fn mutate(valid: &[u8], flips: &[(u16, u8)], keep: u16) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    if !bytes.is_empty() {
        for &(at, xor) in flips {
            let at = usize::from(at) % bytes.len();
            bytes[at] ^= xor;
        }
    }
    bytes.truncate(usize::from(keep));
    bytes
}

fn varint(v: u64) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_varint(v);
    w.into_vec()
}

/// RFC 9001 §A's Destination Connection ID.
const DCID: &[u8] = b"\x83\x94\xc8\xf0\x3e\x51\x57\x08";

/// One set of keys answering for every packet type, so long and short
/// headers alike reach header-protection removal and the AEAD.
struct EveryType(PacketKeys);

impl KeySource for EveryType {
    fn keys_for(&self, _ty: PacketType) -> Option<&PacketKeys> {
        Some(&self.0)
    }
}

fn every_type() -> EveryType {
    EveryType(initial_keys(Version::V1, DCID).0)
}

/// A client Initial sealed with [`every_type`]'s keys, carrying a token of
/// `token_len` bytes: past 128 the header no longer fits the decoder's
/// stack copy and takes the heap fallback.
fn sealed_initial(keys: &EveryType, token_len: usize, payload: &[u8]) -> Vec<u8> {
    seal_long(
        PacketType::Initial,
        Version::V1,
        &ConnectionId::new(DCID),
        &ConnectionId::new(b"client"),
        &vec![0x5a; token_len],
        7,
        payload,
        &keys.0,
        0,
    )
}

fn decode_packet(keys: &EveryType, datagram: &[u8]) -> Result<(), String> {
    bounded("decode_first", datagram, |datagram| {
        let _ = decode_first(datagram, 8, keys);
    })
}

proptest! {
    /// Arbitrary bytes, and a long header whose token and length varints
    /// claim up to 2^62 bytes in front of arbitrary bytes.
    #[test]
    fn decode_first_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..1500),
        first in any::<u8>(),
        token_claim in any::<u64>(),
        length_claim in any::<u64>(),
        shift in 2u32..64,
    ) {
        let keys = every_type();
        decode_packet(&keys, &bytes)?;
        let mut claiming = vec![first | 0x80];
        claiming.extend_from_slice(&Version::V1.0.to_be_bytes());
        claiming.push(DCID.len() as u8);
        claiming.extend_from_slice(DCID);
        claiming.push(0);
        claiming.extend(varint(token_claim >> shift));
        claiming.extend(varint(length_claim >> shift));
        claiming.extend_from_slice(&bytes);
        decode_packet(&keys, &claiming)?;
    }

    /// Valid Initials, with tokens on both sides of the header's stack
    /// copy, decode to their payload; with bytes flipped and the tail cut
    /// they decode to `Ok` or `Err`.
    #[test]
    fn decode_first_survives_mutated_initials(
        token_len in 0usize..400,
        payload in proptest::collection::vec(any::<u8>(), 20..600),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..4),
        keep in any::<u16>(),
    ) {
        let keys = every_type();
        let valid = sealed_initial(&keys, token_len, &payload);
        let decoded = bounded("decode_first", &valid, |valid| decode_first(valid, 8, &keys))?;
        let (packet, consumed) = decoded.map_err(|e| format!("valid Initial: {e:?}"))?;
        prop_assert_eq!(consumed, valid.len());
        prop_assert_eq!(packet.token.len(), token_len);
        prop_assert_eq!(&packet.payload, &payload);
        decode_packet(&keys, &mutate(&valid, &flips, keep))?;
        decode_packet(&keys, &mutate(&valid, &flips, u16::MAX))?;
    }

    /// Arbitrary bytes; one parameter whose length claims up to 2^62 bytes;
    /// and a valid server encoding, mutated.
    #[test]
    fn transport_parameters_survive_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        id in any::<u64>(),
        length_claim in any::<u64>(),
        shift in 2u32..64,
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..4),
        keep in any::<u16>(),
    ) {
        let decode = |bytes: &[u8]| {
            bounded("TransportParameters::decode", bytes, |bytes| {
                let _ = TransportParameters::decode(bytes);
            })
        };
        decode(&bytes)?;
        let mut claiming = varint(id >> shift);
        claiming.extend(varint(length_claim >> shift));
        claiming.extend_from_slice(&bytes);
        decode(&claiming)?;
        let valid = TransportParameters {
            original_destination_connection_id: Some(DCID.to_vec()),
            initial_source_connection_id: Some(b"server".to_vec()),
            stateless_reset_token: Some([9; 16]),
            unknown: vec![(0x4752, vec![0xaa; 3])],
            ..TransportParameters::server_defaults()
        }
        .encode();
        decode(&mutate(&valid, &flips, keep))?;
    }
}

fn certificate() -> qtls::Certificate {
    let ca = qtls::CertificateAuthority::new("Hostile CA", 1);
    let key = qcrypto::sha256::digest(b"hostile.example");
    ca.issue(
        3,
        "hostile.example",
        vec!["*.hostile.example".into()],
        0,
        99,
        key,
    )
}

/// One of each handshake message the two engines parse, concatenated.
fn handshake_stream() -> Vec<u8> {
    let mut stream = Vec::new();
    for msg in [
        Handshake::ClientHello(ClientHello {
            random: [1; 32],
            session_id: vec![2; 32],
            cipher_suites: vec![0x1301, 0x1303],
            extensions: vec![
                Extension::ServerName(Some("hostile.example".into())),
                Extension::SupportedVersionsList(vec![0x0304]),
                Extension::KeyShareList(vec![(0x001d, vec![5; 32])]),
                Extension::Alpn(vec![b"h3".to_vec()]),
            ],
        }),
        Handshake::ServerHello(ServerHello {
            random: [3; 32],
            session_id: Vec::new(),
            cipher_suite: 0x1301,
            extensions: vec![
                Extension::SelectedVersion(0x0304),
                Extension::KeyShareServer(0x001d, vec![6; 32]),
            ],
        }),
        Handshake::EncryptedExtensions(vec![Extension::QuicTransportParameters(vec![1, 2, 3])]),
        Handshake::Certificate(vec![certificate()]),
        Handshake::CertificateVerify(0x0807, vec![7; 32]),
        Handshake::Finished(vec![8; 32]),
    ] {
        stream.extend(msg.encode());
    }
    stream
}

proptest! {
    /// Arbitrary bytes behind every message type; a header claiming up to
    /// 2^24 − 1 body bytes; and a valid six-message stream, mutated.
    #[test]
    fn handshake_stream_survives_arbitrary_bytes(
        msg_type in 0u8..=24,
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        claim in 0u32..(1 << 24),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..4),
        keep in any::<u16>(),
    ) {
        let decode = |bytes: &[u8]| {
            bounded("Handshake::decode_stream_raw", bytes, |bytes| {
                let _ = Handshake::decode_stream_raw(bytes);
            })
        };
        let mut typed = vec![msg_type];
        typed.extend_from_slice(&bytes);
        decode(&typed)?;
        let mut claiming = vec![msg_type];
        claiming.extend_from_slice(&claim.to_be_bytes()[1..]);
        claiming.extend_from_slice(&bytes);
        decode(&claiming)?;
        let valid = handshake_stream();
        decode(&valid)?;
        decode(&mutate(&valid, &flips, keep))?;
    }
}

/// A certificate that claims 255 subject alternative names in a 23-byte
/// Certificate message once reserved room for all 255 before reading one.
#[test]
fn certificate_claiming_255_names_reserves_nothing() {
    let mut msg = vec![11, 0, 0, 19, 0, 0, 0, 15, 0, 0, 10];
    msg.extend_from_slice(&[0; 8]); // serial
    msg.extend_from_slice(&[0, 255]); // empty subject, then 255 names
    msg.extend_from_slice(&[0, 0]); // no certificate extensions
    assert_eq!(msg.len(), 23);
    let failed = bounded("Handshake::decode_stream_raw", &msg, |msg| {
        Handshake::decode_stream_raw(msg).is_err()
    });
    assert_eq!(failed, Ok(true));
}

/// A TLS-over-TCP client that has sent its ClientHello, and the server's
/// whole answer to it.
fn client_and_server_flight(seed: u64) -> (TlsTcpClient, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (client, hello) = TlsTcpClient::start(
        qtls::ClientConfig {
            server_name: Some("hostile.example".into()),
            ..qtls::ClientConfig::default()
        },
        &mut rng,
    );
    let config = Arc::new(qtls::ServerConfig::single_cert(certificate()));
    let flight = TlsTcpServer::new(config, &mut rng).on_bytes(&hello);
    (client, flight)
}

proptest! {
    /// Arbitrary bytes, records claiming any length, and the server's
    /// flight mutated, each fed to a fresh client in pieces of arbitrary
    /// size; and the unmutated flight, fed the same way, completes the
    /// handshake, whichever way the pieces cut its records.
    #[test]
    fn tls_client_survives_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..1024),
        record_type in 20u8..=24,
        claim in any::<u16>(),
        flips in proptest::collection::vec((any::<u16>(), 1u8..=255), 1..4),
        keep in any::<u16>(),
        piece in 1usize..600,
        seed in any::<u64>(),
    ) {
        let feed = |client: &mut TlsTcpClient, bytes: &[u8]| {
            bounded("TlsTcpClient::on_bytes", bytes, |bytes| {
                for chunk in bytes.chunks(piece) {
                    if client.on_bytes(chunk).is_err() {
                        break;
                    }
                }
            })
        };
        let mut claiming = vec![record_type, 3, 3];
        claiming.extend_from_slice(&claim.to_be_bytes());
        claiming.extend_from_slice(&bytes);
        let (_, valid) = client_and_server_flight(seed);
        for input in [&bytes, &claiming, &mutate(&valid, &flips, keep)] {
            let (mut client, _) = client_and_server_flight(seed);
            feed(&mut client, input)?;
        }
        let (mut client, flight) = client_and_server_flight(seed);
        feed(&mut client, &flight)?;
        prop_assert!(client.is_connected(), "valid flight in {piece}-byte pieces");
    }
}

/// A server application that never answers.
struct Silent;

impl StreamHandler for Silent {
    fn on_stream_data(&mut self, _id: u64, _data: &[u8], _fin: bool) -> Vec<StreamSend> {
        Vec::new()
    }
}

/// A connection ID longer than RFC 9000's 20 bytes reaches the Initial-key
/// memo, whose key holds 20, at both ends of a handshake: at a server
/// receiving an Initial addressed to one, and at a client a Retry told to
/// use one. Both derive the keys and carry on.
#[test]
fn connection_ids_longer_than_20_bytes_get_initial_keys() {
    // Built from the field, as the decoders do: `ConnectionId::new`
    // asserts the bound, the wire does not.
    let long = ConnectionId(vec![0x42; 255]);

    let (client_keys, _) = initial_keys(Version::V1, long.as_slice());
    let initial = seal_long(
        PacketType::Initial,
        Version::V1,
        &long,
        &ConnectionId::new(b"client"),
        b"",
        0,
        &[0x01], // PING
        &client_keys,
        1162,
    );
    let config = EndpointConfig::new(Arc::new(qtls::ServerConfig::single_cert(certificate())));
    let mut server = Endpoint::new(config, 1, Box::new(|| Box::new(Silent)));
    let _ = server.handle_datagram(1, &initial);

    let config = quic::ClientConfig {
        versions: vec![Version::V1],
        ..quic::ClientConfig::default()
    };
    let mut client = ClientConnection::new(config, 2);
    let first = client.poll_transmit().remove(0);
    let dcid_end = 6 + usize::from(first[5]);
    let dcid = ConnectionId::new(&first[6..dcid_end]);
    let scid = ConnectionId::new(&first[dcid_end + 1..dcid_end + 1 + usize::from(first[dcid_end])]);
    client.on_datagram(&quic::retry::encode_retry(
        Version::V1,
        &scid,
        &long,
        &dcid,
        b"token",
    ));
    let again = client.poll_transmit().remove(0);
    assert_eq!(usize::from(again[5]), long.len());
    assert_eq!(&again[6..6 + long.len()], long.as_slice());
}
