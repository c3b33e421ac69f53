//! QUIC transport error codes (RFC 9000 §20).

/// A transport error code as carried in CONNECTION_CLOSE.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransportError(pub u64);

impl TransportError {
    pub const NO_ERROR: TransportError = TransportError(0x00);
    pub const INTERNAL_ERROR: TransportError = TransportError(0x01);
    pub const CONNECTION_REFUSED: TransportError = TransportError(0x02);
    pub const FLOW_CONTROL_ERROR: TransportError = TransportError(0x03);
    pub const PROTOCOL_VIOLATION: TransportError = TransportError(0x0a);
    pub const VERSION_NEGOTIATION_ERROR: TransportError = TransportError(0x11);

    /// A TLS alert surfaced as a QUIC error: `0x100 + alert` (RFC 9001 §4.8).
    /// Alert 40 (handshake_failure) yields `0x128` — the paper's most common
    /// stateful-scan error.
    pub fn crypto(alert_code: u8) -> TransportError {
        TransportError(0x100 + u64::from(alert_code))
    }

    /// True for the 0x100–0x1ff crypto-error range.
    pub fn is_crypto(self) -> bool {
        (0x100..0x200).contains(&self.0)
    }

    /// The TLS alert behind a crypto error.
    pub fn alert(self) -> Option<u8> {
        self.is_crypto().then(|| (self.0 - 0x100) as u8)
    }

    /// Human-readable label (`0x128 (crypto: handshake_failure)` style).
    pub fn label(self) -> String {
        let name = match self.0 {
            0x00 => Some("NO_ERROR"),
            0x01 => Some("INTERNAL_ERROR"),
            0x02 => Some("CONNECTION_REFUSED"),
            0x03 => Some("FLOW_CONTROL_ERROR"),
            0x0a => Some("PROTOCOL_VIOLATION"),
            0x11 => Some("VERSION_NEGOTIATION_ERROR"),
            _ => None,
        };
        if let Some(n) = name {
            return format!("0x{:x} ({n})", self.0);
        }
        if let Some(alert) = self.alert() {
            let alert_name = match alert {
                40 => "handshake_failure",
                112 => "unrecognized_name",
                120 => "no_application_protocol",
                70 => "protocol_version",
                47 => "illegal_parameter",
                _ => "alert",
            };
            return format!("0x{:x} (crypto: {alert_name})", self.0);
        }
        format!("0x{:x}", self.0)
    }
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A connection error (RFC 9000 §11.1) found in the peer's 1-RTT frames:
/// what the CONNECTION_CLOSE that ends the connection carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectionError {
    /// The transport error code.
    pub code: TransportError,
    /// Type of the frame that triggered the error.
    pub frame_type: u64,
    /// Reason phrase.
    pub reason: &'static str,
}

impl ConnectionError {
    /// An ACK frame acknowledged a packet number never sent (RFC 9000 §13.1).
    pub const ACK_OF_UNSENT: ConnectionError = ConnectionError {
        code: TransportError::PROTOCOL_VIOLATION,
        frame_type: 0x02,
        reason: "ACK for a packet never sent",
    };
    /// A STREAM frame carried data past a limit this endpoint advertised
    /// (RFC 9000 §4.1).
    pub const FLOW_CONTROL: ConnectionError = ConnectionError {
        code: TransportError::FLOW_CONTROL_ERROR,
        frame_type: 0x08,
        reason: "STREAM data beyond the advertised limit",
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_error_0x128() {
        let e = TransportError::crypto(40);
        assert_eq!(e.0, 0x128);
        assert!(e.is_crypto());
        assert_eq!(e.alert(), Some(40));
        assert_eq!(e.label(), "0x128 (crypto: handshake_failure)");
    }

    #[test]
    fn named_codes() {
        assert_eq!(TransportError::NO_ERROR.label(), "0x0 (NO_ERROR)");
        assert!(!TransportError::PROTOCOL_VIOLATION.is_crypto());
        assert_eq!(TransportError::PROTOCOL_VIOLATION.alert(), None);
        assert_eq!(TransportError(0x2ab).label(), "0x2ab");
    }
}
