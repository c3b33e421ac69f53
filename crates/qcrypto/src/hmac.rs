//! HMAC-SHA256 (RFC 2104 / FIPS 198-1).

use crate::sha256::{self, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// Incremental HMAC-SHA256.
///
/// Both padded key blocks are hashed once, in [`HmacSha256::new`]: `inner`
/// and `outer` hold the midstates after them, so a clone of a keyed MAC
/// compresses only the message and the inner digest.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Initializes the MAC with `key` (any length; long keys are hashed).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256::digest(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let keyed = |pad: u8| {
            let mut h = Sha256::new();
            h.update(&k.map(|b| b ^ pad));
            h
        };
        HmacSha256 {
            inner: keyed(0x36),
            outer: keyed(0x5c),
        }
    }

    /// Feeds message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer;
        outer.update(&self.inner.finalize());
        outer.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::each_sha256_backend;
    use qcodec::hex;

    /// RFC 4231 test cases 1, 2 and 7 (SHA-256 column).
    #[test]
    fn rfc4231_vectors() {
        each_sha256_backend(|_| {
            let t1 = hmac_sha256(&[0x0b; 20], b"Hi There");
            assert_eq!(
                hex::encode(&t1),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
            );
            let t2 = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
            assert_eq!(
                hex::encode(&t2),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
            );
            let t7 = hmac_sha256(
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            );
            assert_eq!(
                hex::encode(&t7),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
            );
        });
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut mac = HmacSha256::new(b"key");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"key", b"hello world"));
    }
}
