//! SHA-256 (FIPS 180-4).
//!
//! One [`Sha256`] front end (block buffering and one-step padding) over two
//! implementations of the compression function, picked from what the CPU
//! reports — there is no feature flag, environment variable or option:
//!
//! * `hw` — x86_64 with SHA-NI, SSSE3 and SSE4.1: `sha256rnds2` and
//!   `sha256msg1`/`sha256msg2`;
//! * `soft` — everywhere else: the FIPS 180-4 rounds as written, which are
//!   also the test oracle `hw` is held against.

#[cfg(target_arch = "x86_64")]
use crate::hw;

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Which implementation runs the compression function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// SHA-NI; the token proves the CPU has it.
    #[cfg(target_arch = "x86_64")]
    Hw(hw::ShaToken),
    /// The portable rounds.
    Soft,
}

impl Backend {
    /// `hw` when the CPU has it, `soft` otherwise — from the CPU and
    /// nothing else, like [`crate::aes::Backend::detect`]. In this crate's
    /// own tests `reference::each_sha256_backend` can pin it for the calling
    /// thread.
    pub(crate) fn detect() -> Backend {
        #[cfg(test)]
        if let Some(pinned) = crate::reference::PINNED_SHA256.with(std::cell::Cell::get) {
            return pinned;
        }
        Backend::hw().unwrap_or(Backend::Soft)
    }

    /// The hardware backend, if this CPU has one.
    pub(crate) fn hw() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        return hw::ShaToken::detect().map(Backend::Hw);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    block: [u8; BLOCK_LEN],
    block_len: usize,
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            block: [0; BLOCK_LEN],
            block_len: 0,
            total_len: 0,
            backend: Backend::detect(),
        }
    }

    /// Feeds `data` into the hash. Whole blocks are compressed straight
    /// from `data`; only a partial block is copied.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.block_len > 0 {
            let take = (BLOCK_LEN - self.block_len).min(data.len());
            self.block[self.block_len..self.block_len + take].copy_from_slice(&data[..take]);
            self.block_len += take;
            data = &data[take..];
            if self.block_len < BLOCK_LEN {
                return;
            }
            let block = self.block;
            self.compress(&block);
            self.block_len = 0;
        }
        let (whole, rest) = data.split_at(data.len() - data.len() % BLOCK_LEN);
        if !whole.is_empty() {
            self.compress(whole);
        }
        self.block[..rest.len()].copy_from_slice(rest);
        self.block_len = rest.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    ///
    /// The padding (FIPS 180-4 §5.1.1: 0x80, zeros, the 64-bit bit length)
    /// is laid out in one go behind the buffered bytes: one block, or two
    /// when fewer than nine bytes are left in the first.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let n = self.block_len;
        let mut tail = [0u8; 2 * BLOCK_LEN];
        tail[..n].copy_from_slice(&self.block[..n]);
        tail[n] = 0x80;
        let len = if n + 9 <= BLOCK_LEN {
            BLOCK_LEN
        } else {
            2 * BLOCK_LEN
        };
        tail[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        self.compress(&tail[..len]);
        let mut out = [0u8; DIGEST_LEN];
        for (bytes, w) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Compresses every whole block of `blocks` into the state.
    fn compress(&mut self, blocks: &[u8]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(token) => hw::sha256_compress(token, &mut self.state, blocks),
            Backend::Soft => {
                for block in blocks.chunks_exact(BLOCK_LEN) {
                    compress_soft(&mut self.state, block.try_into().expect("64-byte chunk"));
                }
            }
        }
    }
}

/// The portable compression function: FIPS 180-4 §6.2.2 as written.
pub(crate) fn compress_soft(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, each_sha256_backend};
    use qcodec::hex;

    /// FIPS 180-4 / NIST CAVP short-message vectors.
    #[test]
    fn nist_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        each_sha256_backend(|backend| {
            for (msg, want) in cases {
                assert_eq!(hex::encode(&digest(msg)), *want, "{backend:?}");
            }
        });
    }

    #[test]
    fn million_a() {
        each_sha256_backend(|backend| {
            let mut h = Sha256::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex::encode(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{backend:?}"
            );
        });
    }

    /// Every length from 0 to 300 bytes — across the 55/56/63/64 and
    /// 119/120 edges where the padding takes one block or two — equals the
    /// whole-message padding oracle, in one `update` and split at every
    /// point, on both backends.
    #[test]
    fn padding_matches_the_oracle_at_every_length_and_split() {
        let data: Vec<u8> = (0..=300u32).map(|i| (i * 167 + 13) as u8).collect();
        each_sha256_backend(|backend| {
            for len in 0..=data.len() {
                let msg = &data[..len];
                let want = reference::sha256(msg);
                assert_eq!(digest(msg), want, "{backend:?} len {len}");
                for split in 0..=len {
                    let mut h = Sha256::new();
                    h.update(&msg[..split]);
                    h.update(&msg[split..]);
                    assert_eq!(h.finalize(), want, "{backend:?} len {len} split {split}");
                }
            }
        });
    }

    /// Both backends' compression functions agree on arbitrary states and
    /// runs of one to four blocks.
    #[test]
    fn backends_match_portable_rounds() {
        let mut rng = proptest::TestRng::for_test("sha256::backends_match_portable_rounds");
        for case in 0..200 {
            let start: [u32; 8] = std::array::from_fn(|_| rng.next_u64() as u32);
            let blocks: Vec<u8> = (0..BLOCK_LEN * (1 + case % 4))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let mut want = start;
            for block in blocks.chunks_exact(BLOCK_LEN) {
                compress_soft(&mut want, block.try_into().unwrap());
            }
            each_sha256_backend(|backend| {
                let mut h = Sha256::new();
                h.state = start;
                h.compress(&blocks);
                assert_eq!(h.state, want, "{backend:?} case {case}");
            });
        }
    }

    /// µs per compressed block, per 1 KiB digest, per HMAC of a short
    /// message and per `HKDF-Expand-Label`, on each backend; prints, asserts
    /// nothing. Run with
    /// `cargo test --release -p qcrypto -- --ignored --nocapture sha256_speed`.
    #[test]
    #[ignore = "micro-benchmark: prints timings, meaningful in release builds only"]
    fn sha256_speed() {
        use crate::{hkdf, hmac};
        use std::hint::black_box;
        use std::time::Instant;
        let per_op_us = |op: &mut dyn FnMut()| {
            let iterations = 20_000;
            let best_of = 5;
            (0..best_of)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..iterations {
                        op();
                    }
                    start.elapsed().as_secs_f64() * 1e6 / f64::from(iterations)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let data = [0xabu8; 1024];
        let key = [0x42u8; 32];
        each_sha256_backend(|backend| {
            let mut h = Sha256::new();
            let block = per_op_us(&mut || h.compress(black_box(&data[..BLOCK_LEN])));
            black_box(h.state);
            let digest_1k = per_op_us(&mut || {
                black_box(digest(black_box(&data)));
            });
            let mac = per_op_us(&mut || {
                black_box(hmac::hmac_sha256(black_box(&key), black_box(&data[..48])));
            });
            let label = per_op_us(&mut || {
                black_box(hkdf::expand_label(black_box(&key), "quic key", &[], 16));
            });
            println!(
                "{backend:?}: block {block:.3} us, digest_1k {digest_1k:.3} us, \
                 hmac_48 {mac:.3} us, expand_label {label:.3} us"
            );
        });
    }
}
