//! Byte-level encoding and decoding shared by every wire format in the
//! workspace (QUIC packets, TLS records, DNS messages, HTTP framing).
//!
//! The design follows the sans-IO philosophy: [`Reader`] borrows an input
//! slice and never allocates; [`Writer`] owns a growable buffer. QUIC
//! variable-length integers (RFC 9000 §16) live in [`varint`].

pub mod hex;
mod reader;
pub mod varint;
mod writer;

pub use reader::Reader;
pub use writer::Writer;

/// Error produced when decoding runs out of bytes or meets a malformed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the requested number of bytes was available.
    UnexpectedEnd {
        /// Bytes requested by the decoder.
        wanted: usize,
        /// Bytes remaining in the input.
        available: usize,
    },
    /// A value was syntactically present but semantically invalid.
    Invalid(&'static str),
}

impl core::fmt::Display for CodecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CodecError::UnexpectedEnd { wanted, available } => {
                write!(
                    f,
                    "unexpected end of input: wanted {wanted} bytes, {available} available"
                )
            }
            CodecError::Invalid(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Convenience alias used throughout the decoders.
pub type Result<T> = core::result::Result<T, CodecError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = CodecError::UnexpectedEnd {
            wanted: 4,
            available: 1,
        };
        assert_eq!(
            e.to_string(),
            "unexpected end of input: wanted 4 bytes, 1 available"
        );
        assert_eq!(
            CodecError::Invalid("bad tag").to_string(),
            "invalid value: bad tag"
        );
    }
}
