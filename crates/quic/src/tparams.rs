//! QUIC transport parameters (RFC 9000 §18) — the paper's richest
//! fingerprinting signal (§5.2, Figure 9, 45 distinct configurations).

use qcodec::{Reader, Result, Writer};

/// Transport parameter ids (RFC 9000 §18.2).
pub mod id {
    pub const ORIGINAL_DESTINATION_CONNECTION_ID: u64 = 0x00;
    pub const MAX_IDLE_TIMEOUT: u64 = 0x01;
    pub const STATELESS_RESET_TOKEN: u64 = 0x02;
    pub const MAX_UDP_PAYLOAD_SIZE: u64 = 0x03;
    pub const INITIAL_MAX_DATA: u64 = 0x04;
    pub const INITIAL_MAX_STREAM_DATA_BIDI_LOCAL: u64 = 0x05;
    pub const INITIAL_MAX_STREAM_DATA_BIDI_REMOTE: u64 = 0x06;
    pub const INITIAL_MAX_STREAM_DATA_UNI: u64 = 0x07;
    pub const INITIAL_MAX_STREAMS_BIDI: u64 = 0x08;
    pub const INITIAL_MAX_STREAMS_UNI: u64 = 0x09;
    pub const ACK_DELAY_EXPONENT: u64 = 0x0a;
    pub const MAX_ACK_DELAY: u64 = 0x0b;
    pub const DISABLE_ACTIVE_MIGRATION: u64 = 0x0c;
    pub const PREFERRED_ADDRESS: u64 = 0x0d;
    pub const ACTIVE_CONNECTION_ID_LIMIT: u64 = 0x0e;
    pub const INITIAL_SOURCE_CONNECTION_ID: u64 = 0x0f;
    pub const RETRY_SOURCE_CONNECTION_ID: u64 = 0x10;
}

/// A decoded transport-parameter set. Integer parameters use the RFC
/// defaults when absent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportParameters {
    /// Session-specific: echo of the client's first DCID (server only).
    pub original_destination_connection_id: Option<Vec<u8>>,
    /// Idle timeout in milliseconds (0 = none).
    pub max_idle_timeout: u64,
    /// Session-specific 16-byte token (server only).
    pub stateless_reset_token: Option<[u8; 16]>,
    /// Maximum UDP payload the endpoint accepts (default 65527).
    pub max_udp_payload_size: u64,
    /// Connection-level flow control window.
    pub initial_max_data: u64,
    /// Per-stream windows.
    pub initial_max_stream_data_bidi_local: u64,
    pub initial_max_stream_data_bidi_remote: u64,
    pub initial_max_stream_data_uni: u64,
    /// Stream count limits.
    pub initial_max_streams_bidi: u64,
    pub initial_max_streams_uni: u64,
    /// ACK delay exponent (default 3).
    pub ack_delay_exponent: u64,
    /// Max ACK delay in ms (default 25).
    pub max_ack_delay: u64,
    /// Migration disabled flag.
    pub disable_active_migration: bool,
    /// Whether a preferred_address was present (contents ignored).
    pub has_preferred_address: bool,
    /// Active connection id limit (default 2).
    pub active_connection_id_limit: u64,
    /// Session-specific: sender's source CID.
    pub initial_source_connection_id: Option<Vec<u8>>,
    /// Session-specific: retry SCID.
    pub retry_source_connection_id: Option<Vec<u8>>,
    /// Unknown/GREASE parameters, preserved as (id, value) pairs — real
    /// stacks differ here too, and that difference is fingerprintable.
    pub unknown: Vec<(u64, Vec<u8>)>,
}

impl Default for TransportParameters {
    fn default() -> Self {
        TransportParameters {
            original_destination_connection_id: None,
            max_idle_timeout: 0,
            stateless_reset_token: None,
            max_udp_payload_size: 65527,
            initial_max_data: 0,
            initial_max_stream_data_bidi_local: 0,
            initial_max_stream_data_bidi_remote: 0,
            initial_max_stream_data_uni: 0,
            initial_max_streams_bidi: 0,
            initial_max_streams_uni: 0,
            ack_delay_exponent: 3,
            max_ack_delay: 25,
            disable_active_migration: false,
            has_preferred_address: false,
            active_connection_id_limit: 2,
            initial_source_connection_id: None,
            retry_source_connection_id: None,
            unknown: Vec::new(),
        }
    }
}

fn put_varint_param(w: &mut Writer, id_v: u64, value: u64) {
    w.put_varint(id_v);
    let mut body = Writer::new();
    body.put_varint(value);
    w.put_varvec(body.as_slice());
}

impl TransportParameters {
    /// Encodes to the extension body format (sequence of id/len/value).
    /// Integer parameters equal to their defaults are still emitted when the
    /// struct says so implicitly — we emit every non-default value plus the
    /// stream/data parameters unconditionally, matching common stacks.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        if let Some(ocid) = &self.original_destination_connection_id {
            w.put_varint(id::ORIGINAL_DESTINATION_CONNECTION_ID);
            w.put_varvec(ocid);
        }
        if self.max_idle_timeout != 0 {
            put_varint_param(&mut w, id::MAX_IDLE_TIMEOUT, self.max_idle_timeout);
        }
        if let Some(tok) = &self.stateless_reset_token {
            w.put_varint(id::STATELESS_RESET_TOKEN);
            w.put_varvec(tok);
        }
        if self.max_udp_payload_size != 65527 {
            put_varint_param(&mut w, id::MAX_UDP_PAYLOAD_SIZE, self.max_udp_payload_size);
        }
        put_varint_param(&mut w, id::INITIAL_MAX_DATA, self.initial_max_data);
        put_varint_param(
            &mut w,
            id::INITIAL_MAX_STREAM_DATA_BIDI_LOCAL,
            self.initial_max_stream_data_bidi_local,
        );
        put_varint_param(
            &mut w,
            id::INITIAL_MAX_STREAM_DATA_BIDI_REMOTE,
            self.initial_max_stream_data_bidi_remote,
        );
        put_varint_param(
            &mut w,
            id::INITIAL_MAX_STREAM_DATA_UNI,
            self.initial_max_stream_data_uni,
        );
        put_varint_param(
            &mut w,
            id::INITIAL_MAX_STREAMS_BIDI,
            self.initial_max_streams_bidi,
        );
        put_varint_param(
            &mut w,
            id::INITIAL_MAX_STREAMS_UNI,
            self.initial_max_streams_uni,
        );
        if self.ack_delay_exponent != 3 {
            put_varint_param(&mut w, id::ACK_DELAY_EXPONENT, self.ack_delay_exponent);
        }
        if self.max_ack_delay != 25 {
            put_varint_param(&mut w, id::MAX_ACK_DELAY, self.max_ack_delay);
        }
        if self.disable_active_migration {
            w.put_varint(id::DISABLE_ACTIVE_MIGRATION);
            w.put_varint(0);
        }
        if self.active_connection_id_limit != 2 {
            put_varint_param(
                &mut w,
                id::ACTIVE_CONNECTION_ID_LIMIT,
                self.active_connection_id_limit,
            );
        }
        if let Some(scid) = &self.initial_source_connection_id {
            w.put_varint(id::INITIAL_SOURCE_CONNECTION_ID);
            w.put_varvec(scid);
        }
        if let Some(rcid) = &self.retry_source_connection_id {
            w.put_varint(id::RETRY_SOURCE_CONNECTION_ID);
            w.put_varvec(rcid);
        }
        for (pid, value) in &self.unknown {
            w.put_varint(*pid);
            w.put_varvec(value);
        }
        w.into_vec()
    }

    /// Decodes an extension body.
    pub fn decode(bytes: &[u8]) -> Result<TransportParameters> {
        let mut tp = TransportParameters::default();
        let mut r = Reader::new(bytes);
        while !r.is_empty() {
            let pid = r.read_varint()?;
            let value = r.read_varvec()?;
            let mut vr = Reader::new(value);
            match pid {
                id::ORIGINAL_DESTINATION_CONNECTION_ID => {
                    tp.original_destination_connection_id = Some(value.to_vec())
                }
                id::MAX_IDLE_TIMEOUT => tp.max_idle_timeout = vr.read_varint()?,
                id::STATELESS_RESET_TOKEN => {
                    tp.stateless_reset_token =
                        Some(value.try_into().map_err(|_| {
                            qcodec::CodecError::Invalid("stateless reset token length")
                        })?)
                }
                id::MAX_UDP_PAYLOAD_SIZE => tp.max_udp_payload_size = vr.read_varint()?,
                id::INITIAL_MAX_DATA => tp.initial_max_data = vr.read_varint()?,
                id::INITIAL_MAX_STREAM_DATA_BIDI_LOCAL => {
                    tp.initial_max_stream_data_bidi_local = vr.read_varint()?
                }
                id::INITIAL_MAX_STREAM_DATA_BIDI_REMOTE => {
                    tp.initial_max_stream_data_bidi_remote = vr.read_varint()?
                }
                id::INITIAL_MAX_STREAM_DATA_UNI => {
                    tp.initial_max_stream_data_uni = vr.read_varint()?
                }
                id::INITIAL_MAX_STREAMS_BIDI => tp.initial_max_streams_bidi = vr.read_varint()?,
                id::INITIAL_MAX_STREAMS_UNI => tp.initial_max_streams_uni = vr.read_varint()?,
                id::ACK_DELAY_EXPONENT => tp.ack_delay_exponent = vr.read_varint()?,
                id::MAX_ACK_DELAY => tp.max_ack_delay = vr.read_varint()?,
                id::DISABLE_ACTIVE_MIGRATION => tp.disable_active_migration = true,
                id::PREFERRED_ADDRESS => tp.has_preferred_address = true,
                id::ACTIVE_CONNECTION_ID_LIMIT => {
                    tp.active_connection_id_limit = vr.read_varint()?
                }
                id::INITIAL_SOURCE_CONNECTION_ID => {
                    tp.initial_source_connection_id = Some(value.to_vec())
                }
                id::RETRY_SOURCE_CONNECTION_ID => {
                    tp.retry_source_connection_id = Some(value.to_vec())
                }
                other => tp.unknown.push((other, value.to_vec())),
            }
        }
        Ok(tp)
    }

    /// The *configuration key* used to cluster deployments (§5.2): every
    /// implementation/configuration-specific parameter, with the
    /// session-specific ones (tokens, connection ids, preferred address)
    /// excluded — exactly the paper's methodology.
    pub fn config_key(&self) -> String {
        let mut unknown_ids: Vec<u64> = self.unknown.iter().map(|(i, _)| *i).collect();
        unknown_ids.sort_unstable();
        format!(
            "idle={};udp={};data={};sdbl={};sdbr={};sdu={};smb={};smu={};ade={};mad={};mig={};acl={};extra={:?}",
            self.max_idle_timeout,
            self.max_udp_payload_size,
            self.initial_max_data,
            self.initial_max_stream_data_bidi_local,
            self.initial_max_stream_data_bidi_remote,
            self.initial_max_stream_data_uni,
            self.initial_max_streams_bidi,
            self.initial_max_streams_uni,
            self.ack_delay_exponent,
            self.max_ack_delay,
            self.disable_active_migration,
            self.active_connection_id_limit,
            unknown_ids,
        )
    }

    /// Server-side builder with the values most stacks ship: a convenience
    /// the `internet` crate's implementation catalogue specializes.
    pub fn server_defaults() -> TransportParameters {
        TransportParameters {
            max_idle_timeout: 30_000,
            initial_max_data: 1_048_576,
            initial_max_stream_data_bidi_local: 1_048_576,
            initial_max_stream_data_bidi_remote: 1_048_576,
            initial_max_stream_data_uni: 1_048_576,
            initial_max_streams_bidi: 100,
            initial_max_streams_uni: 100,
            ..TransportParameters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_defaults() {
        let tp = TransportParameters::server_defaults();
        let decoded = TransportParameters::decode(&tp.encode()).unwrap();
        assert_eq!(decoded, tp);
    }

    #[test]
    fn roundtrip_full() {
        let tp = TransportParameters {
            original_destination_connection_id: Some(vec![1, 2, 3]),
            max_idle_timeout: 60_000,
            stateless_reset_token: Some([7; 16]),
            max_udp_payload_size: 1500,
            initial_max_data: 10_485_760,
            initial_max_stream_data_bidi_local: 10_485_760,
            initial_max_stream_data_bidi_remote: 10_485_760,
            initial_max_stream_data_uni: 10_485_760,
            initial_max_streams_bidi: 256,
            initial_max_streams_uni: 3,
            ack_delay_exponent: 8,
            max_ack_delay: 50,
            disable_active_migration: true,
            has_preferred_address: false,
            active_connection_id_limit: 8,
            initial_source_connection_id: Some(vec![9; 8]),
            retry_source_connection_id: None,
            unknown: vec![(0x4752, vec![0xaa])],
        };
        let decoded = TransportParameters::decode(&tp.encode()).unwrap();
        assert_eq!(decoded, tp);
    }

    #[test]
    fn config_key_excludes_session_values() {
        let mut a = TransportParameters::server_defaults();
        let mut b = a.clone();
        a.stateless_reset_token = Some([1; 16]);
        b.stateless_reset_token = Some([2; 16]);
        a.initial_source_connection_id = Some(vec![1]);
        b.initial_source_connection_id = Some(vec![2]);
        assert_eq!(a.config_key(), b.config_key());
    }

    #[test]
    fn config_key_separates_configs() {
        let a = TransportParameters::server_defaults();
        let mut b = a.clone();
        b.max_udp_payload_size = 1500;
        assert_ne!(a.config_key(), b.config_key());
        let mut c = a.clone();
        c.initial_max_data = 8192;
        assert_ne!(a.config_key(), c.config_key());
    }

    #[test]
    fn defaults_match_rfc() {
        let tp = TransportParameters::default();
        assert_eq!(tp.max_udp_payload_size, 65527);
        assert_eq!(tp.ack_delay_exponent, 3);
        assert_eq!(tp.max_ack_delay, 25);
        assert_eq!(tp.active_connection_id_limit, 2);
    }

    #[test]
    fn unknown_preserved() {
        let tp = TransportParameters {
            unknown: vec![(0x1f1f, vec![1, 2]), (0x2f2f, vec![])],
            ..TransportParameters::default()
        };
        let decoded = TransportParameters::decode(&tp.encode()).unwrap();
        assert_eq!(decoded.unknown, tp.unknown);
    }
}
