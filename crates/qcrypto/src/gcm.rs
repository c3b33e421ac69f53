//! AES-GCM authenticated encryption (NIST SP 800-38D) with 96-bit nonces.
//!
//! Every Initial, Handshake and 1-RTT packet the scanner and the simulated
//! servers exchange passes through here, so this is the hottest code in the
//! data plane. [`AesGcm`] is the same type on every host; what runs behind it
//! follows the [`Aes`] schedule's backend (chosen from the CPU, see
//! [`crate::aes`]):
//!
//! * `vaes512` — CTR sixteen blocks per batch, four per 512-bit `vaesenc`;
//!   GHASH four blocks per `vpclmulqdq`, each batch of eight against
//!   [H⁸..H⁵] and [H⁴..H¹] in two registers, the lanes folded and reduced
//!   once. What is shorter than a batch runs on the `hw` kernels;
//! * `hw` — CTR eight blocks at a time on `aesenc`, GHASH on `pclmulqdq`
//!   with one reduction per eight blocks, against H¹..H⁸;
//! * `soft` — T-table CTR, GHASH with 4-bit Shoup tables.
//!
//! A key holds the AES schedule and H, nothing derived from H. Every backend
//! rebuilds what it multiplies by — `hw` and `vaes512` eight powers (three
//! dependent multiplications), `soft` its 512 bytes of tables (about a
//! hundred shifts and XORs) — on the stack per call, some 30 ns against a
//! packet's worth of work. Storing them per key was measured instead: a
//! simulated server keeps ~64 connections × 5 keys per endpoint, and 128
//! more bytes per key put `mux_manyconn`'s 18 MiB peak RSS up by 24 %.
//!
//! All three produce identical bytes; `reference` (test builds only) holds
//! the bit-serial GHASH and byte-wise AES rounds they are tested against.
//! Opening verifies the tag over the ciphertext before any of it is
//! decrypted, and [`AesGcm::open_append`] writes nothing on failure.

use crate::aes::{Aes, Backend};
#[cfg(target_arch = "x86_64")]
use crate::hw;
use crate::soft;
use crate::AuthError;

/// Authentication tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Nonce length in bytes (the only length QUIC/TLS 1.3 use).
pub const NONCE_LEN: usize = 12;

/// AES-GCM context for a fixed key: the AES schedule and the GHASH subkey
/// H = AES_K(0¹²⁸), 258 bytes inline.
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    h: [u8; 16],
}

impl AesGcm {
    /// Creates a context from a 16-byte (AES-128) or 32-byte (AES-256) key.
    pub fn new(key: &[u8]) -> Self {
        Self::with_backend(key, Backend::detect())
    }

    /// [`AesGcm::new`] pinned to one backend (see [`Aes::with_backend`]).
    pub(crate) fn with_backend(key: &[u8], backend: Backend) -> Self {
        let aes = Aes::with_backend(key, backend);
        let h = aes.encrypt(&[0u8; 16]);
        AesGcm { aes, h }
    }

    /// Encrypts `plaintext` with `nonce` and additional data `aad`, returning
    /// ciphertext || 16-byte tag.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_append(nonce, aad, plaintext, &mut out);
        out
    }

    /// Appends ciphertext || 16-byte tag to `out` without allocating when
    /// `out` already has spare capacity — the QUIC packet fast path seals
    /// directly into the datagram buffer.
    pub fn seal_append(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) {
        let start = out.len();
        out.reserve(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.aes.ctr_xor(nonce, 2, &mut out[start..]);
        let tag = self.tag(nonce, aad, &out[start..]);
        out.extend_from_slice(&tag);
    }

    /// Decrypts and authenticates `ciphertext || tag`.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, AuthError> {
        let mut out = Vec::with_capacity(ciphertext_and_tag.len().saturating_sub(TAG_LEN));
        self.open_append(nonce, aad, ciphertext_and_tag, &mut out)?;
        Ok(out)
    }

    /// Authenticates `ciphertext || tag` and, only if the tag verifies,
    /// appends the plaintext to `out` — decrypting in the caller's buffer
    /// instead of a fresh vector. On failure `out` is untouched.
    pub fn open_append(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), AuthError> {
        let ct_len = ciphertext_and_tag
            .len()
            .checked_sub(TAG_LEN)
            .ok_or(AuthError)?;
        let (ct, tag) = ciphertext_and_tag.split_at(ct_len);
        let want = self.tag(nonce, aad, ct);
        // Non-secret setting; still compare without early exit out of habit.
        let diff = want.iter().zip(tag).fold(0u8, |acc, (a, b)| acc | (a ^ b));
        if diff != 0 {
            return Err(AuthError);
        }
        let start = out.len();
        out.extend_from_slice(ct);
        self.aes.ctr_xor(nonce, 2, &mut out[start..]);
        Ok(())
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
        let mut j0 = [0u8; 16];
        j0[..NONCE_LEN].copy_from_slice(nonce);
        j0[15] = 1;
        let mut tag = self.ghash(aad, ct);
        for (t, k) in tag.iter_mut().zip(self.aes.encrypt(&j0)) {
            *t ^= k;
        }
        tag
    }

    /// GHASH_H(aad, ct), padding and length block included.
    fn ghash(&self, aad: &[u8], ct: &[u8]) -> [u8; 16] {
        match self.aes.backend() {
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes512(token) => hw::ghash_wide(token, &self.h, aad, ct),
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(token) => hw::ghash(token, &self.h, aad, ct),
            Backend::Soft => soft::ghash(&self.h, aad, ct),
        }
    }
}

/// Splits GHASH input into its whole 16-byte blocks and, if the length is
/// not a multiple of 16, the zero-padded last block (SP 800-38D §6.4).
pub(crate) fn split_blocks(data: &[u8]) -> (&[u8], Option<[u8; 16]>) {
    let (whole, tail) = data.split_at(data.len() & !15);
    let partial = (!tail.is_empty()).then(|| {
        let mut block = [0u8; 16];
        block[..tail.len()].copy_from_slice(tail);
        block
    });
    (whole, partial)
}

/// GHASH's closing block: the bit lengths of AAD and ciphertext.
pub(crate) fn length_block(aad_len: usize, ct_len: usize) -> [u8; 16] {
    let mut block = [0u8; 16];
    block[..8].copy_from_slice(&(aad_len as u64 * 8).to_be_bytes());
    block[8..].copy_from_slice(&(ct_len as u64 * 8).to_be_bytes());
    block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, each_backend};
    use proptest::prelude::*;
    use qcodec::hex;

    const KEY: &str = "feffe9928665731c6d6a8f9467308308";
    const IV_96: &str = "cafebabefacedbaddecaf888";
    const IV_64: &str = "cafebabefacedbad";
    const IV_480: &str = "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728\
                          c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b";
    const PT: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                      1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
    const AAD: &str = "feedfacedeadbeeffeedfacedeadbeefabaddad2";

    /// One McGrew–Viega test case: number, key size, IV, whether it uses the
    /// 60-byte plaintext + AAD form, ciphertext, tag.
    struct Case(u32, usize, &'static str, bool, &'static str, &'static str);

    /// "The Galois/Counter Mode of Operation" (McGrew & Viega) Appendix B,
    /// cases 1–6 (AES-128) and 13–18 (AES-256); also the SP 800-38D
    /// validation set. Cases 1/2 and 13/14 use the all-zero key and IV.
    const CASES: [Case; 12] = [
        Case(1, 16, "", false, "", "58e2fccefa7e3061367f1d57a4e7455a"),
        Case(
            2,
            16,
            "",
            false,
            "0388dace60b6a392f328c2b971b2fe78",
            "ab6e47d42cec13bdf53a67b21257bddf",
        ),
        Case(
            3,
            16,
            IV_96,
            false,
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            "4d5c2af327cd64a62cf35abd2ba6fab4",
        ),
        Case(
            4,
            16,
            IV_96,
            true,
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            "5bc94fbc3221a5db94fae95ae7121a47",
        ),
        Case(
            5,
            16,
            IV_64,
            true,
            "61353b4c2806934a777ff51fa22a4755699b2a714fcdc6f83766e5f97b6c7423\
             73806900e49f24b22b097544d4896b424989b5e1ebac0f07c23f4598",
            "3612d2e79e3b0785561be14aaca2fccb",
        ),
        Case(
            6,
            16,
            IV_480,
            true,
            "8ce24998625615b603a033aca13fb894be9112a5c3a211a8ba262a3cca7e2ca7\
             01e4a9a4fba43c90ccdcb281d48c7c6fd62875d2aca417034c34aee5",
            "619cc5aefffe0bfa462af43c1699d050",
        ),
        Case(13, 32, "", false, "", "530f8afbc74536b9a963b4f1c4cb738b"),
        Case(
            14,
            32,
            "",
            false,
            "cea7403d4d606b6e074ec5d3baf39d18",
            "d0d1c8a799996bf0265b98b5d48ab919",
        ),
        Case(
            15,
            32,
            IV_96,
            false,
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
            "b094dac5d93471bdec1a502270e3cc6c",
        ),
        Case(
            16,
            32,
            IV_96,
            true,
            "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
             8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
            "76fc6ece0f4e1768cddf8853bb2d551b",
        ),
        Case(
            17,
            32,
            IV_64,
            true,
            "c3762df1ca787d32ae47c13bf19844cbaf1ae14d0b976afac52ff7d79bba9de0\
             feb582d33934a4f0954cc2363bc73f7862ac430e64abe499f47c9b1f",
            "3a337dbf46a792c45e454913fe2ea8f2",
        ),
        Case(
            18,
            32,
            IV_480,
            true,
            "5a8def2f0c9e53f1f75d7853659e2a20eeb2b22aafde6419a058ab4f6f746bf4\
             0fc0c3b780f244452da3ebf1c5d82cdea2418997200ef82e44ae7e3f",
            "a44a8266ee1c8eb0c8b5d4cf5ae9f19a",
        ),
    ];

    /// SP 800-38D for an IV of any length, assembled from the same private
    /// pieces `seal_append` uses. The public API takes 96-bit nonces only;
    /// the other IV lengths still make good GHASH and CTR vectors (J0 is a
    /// GHASH output, and the counter starts somewhere other than 2).
    fn seal_any_iv(gcm: &AesGcm, iv: &[u8], aad: &[u8], pt: &[u8]) -> Vec<u8> {
        if let Ok(nonce) = iv.try_into() {
            return gcm.seal(nonce, aad, pt);
        }
        let j0 = gcm.ghash(&[], iv);
        let nonce: [u8; 12] = j0[..12].try_into().unwrap();
        let counter = u32::from_be_bytes(j0[12..].try_into().unwrap());
        let mut out = pt.to_vec();
        gcm.aes.ctr_xor(&nonce, counter.wrapping_add(1), &mut out);
        let mut tag = gcm.ghash(aad, &out);
        for (t, k) in tag.iter_mut().zip(gcm.aes.encrypt(&j0)) {
            *t ^= k;
        }
        out.extend_from_slice(&tag);
        out
    }

    #[test]
    fn mcgrew_viega_cases() {
        each_backend(|backend| {
            for Case(number, key_len, iv, with_aad, ct, tag) in &CASES {
                let zero_case = iv.is_empty();
                let key = if zero_case {
                    vec![0u8; *key_len]
                } else {
                    hex::decode(KEY).unwrap().repeat(key_len / 16)
                };
                let iv = if zero_case {
                    vec![0u8; 12]
                } else {
                    hex::decode(iv).unwrap()
                };
                let (pt, aad) = match (zero_case, with_aad) {
                    (true, _) => (vec![0u8; ct.len() / 2], Vec::new()),
                    (false, false) => (hex::decode(PT).unwrap(), Vec::new()),
                    (false, true) => (
                        hex::decode(PT).unwrap()[..60].to_vec(),
                        hex::decode(AAD).unwrap(),
                    ),
                };
                let gcm = AesGcm::with_backend(&key, backend);
                let sealed = seal_any_iv(&gcm, &iv, &aad, &pt);
                let want = format!("{}{}", ct.replace(' ', ""), tag);
                assert_eq!(hex::encode(&sealed), want, "case {number} on {backend:?}");
                if let Ok(nonce) = iv[..].try_into() {
                    assert_eq!(
                        gcm.open(nonce, &aad, &sealed).unwrap(),
                        pt,
                        "case {number} on {backend:?}"
                    );
                }
            }
        });
    }

    fn bytes(len: std::ops::Range<usize>) -> proptest::collection::VecStrategy<proptest::Any<u8>> {
        proptest::collection::vec(any::<u8>(), len)
    }

    proptest! {
        /// Every backend == the bit-serial oracle, over both key sizes,
        /// every tail length, and plaintexts shorter than, equal to and
        /// longer than one eight-block GHASH batch and one sixteen-block
        /// `vaes512` CTR batch.
        #[test]
        fn backends_match_oracle(
            key in proptest::array::uniform32(any::<u8>()),
            aes256 in any::<bool>(),
            nonce in proptest::array::uniform12(any::<u8>()),
            aad in bytes(0..65),
            pt in bytes(0..2049),
            batch_edge in 0usize..8,
        ) {
            let key = if aes256 { &key[..] } else { &key[..16] };
            // Half the cases sit exactly on or beside a batch edge.
            let pt = match batch_edge {
                0 => &pt[..pt.len().min(128) / 16 * 16],
                1 => &pt[..pt.len().min(129)],
                2 => &pt[..pt.len().min(256) / 64 * 64],
                3 => &pt[..pt.len().min(257)],
                _ => &pt[..],
            };
            let want = reference::gcm_seal(key, &nonce, &aad, pt);
            each_backend(|backend| {
                let gcm = AesGcm::with_backend(key, backend);
                assert_eq!(gcm.seal(&nonce, &aad, pt), want, "{backend:?}");
                let mut opened = b"kept".to_vec();
                gcm.open_append(&nonce, &aad, &want, &mut opened).expect("oracle output opens");
                assert_eq!(&opened[..4], b"kept");
                assert_eq!(&opened[4..], pt, "{backend:?}");
            });
        }
    }

    /// Every plaintext length up to 600 bytes with every AAD length up to
    /// 40, so every tail past a 64-, 128- and 256-byte boundary, on every
    /// backend against the oracle.
    #[test]
    fn every_short_length_matches_the_oracle() {
        let key = [0x5cu8; 16];
        let nonce = [0xa7u8; 12];
        let data: Vec<u8> = (0..640u32).map(|i| (i * 131 + 7) as u8).collect();
        let gcms: Vec<(Backend, AesGcm)> = {
            let mut all = Vec::new();
            each_backend(|backend| all.push((backend, AesGcm::with_backend(&key, backend))));
            all
        };
        let mut out = Vec::new();
        for pt_len in 0..=600 {
            for aad_len in 0..=40 {
                let (pt, aad) = (&data[..pt_len], &data[600..600 + aad_len]);
                let want = reference::gcm_seal(&key, &nonce, aad, pt);
                for (backend, gcm) in &gcms {
                    out.clear();
                    gcm.seal_append(&nonce, aad, pt, &mut out);
                    assert_eq!(out, want, "{pt_len} + {aad_len} bytes on {backend:?}");
                    out.clear();
                    gcm.open_append(&nonce, aad, &want, &mut out)
                        .expect("oracle output opens");
                    assert_eq!(out, pt, "{pt_len} + {aad_len} bytes on {backend:?}");
                }
            }
        }
    }

    /// Every way of damaging a sealed message is refused on every backend,
    /// and `open_append` releases no plaintext when it refuses.
    #[test]
    fn tampering_is_rejected_without_output() {
        let nonce = [9u8; 12];
        let aad = b"header bytes";
        let pt: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        each_backend(|backend| {
            for key_len in [16, 32] {
                let gcm = AesGcm::with_backend(&vec![7u8; key_len], backend);
                let sealed = gcm.seal(&nonce, aad, &pt);
                let last = sealed.len() - 1;
                let flipped = |at: usize| {
                    let mut bad = sealed.clone();
                    bad[at] ^= 0x01;
                    bad
                };
                let mut bad_aad = aad.to_vec();
                bad_aad[3] ^= 0x80;
                let attempts: [(&str, &[u8], Vec<u8>); 8] = [
                    ("ciphertext bit", aad, flipped(0)),
                    ("ciphertext bit past one batch", aad, flipped(200)),
                    ("ciphertext bit past one wide batch", aad, flipped(290)),
                    ("tag bit", aad, flipped(last)),
                    ("aad bit", &bad_aad, sealed.clone()),
                    ("truncated ciphertext", aad, sealed[1..].to_vec()),
                    ("truncated tag", aad, sealed[..last].to_vec()),
                    ("shorter than a tag", aad, sealed[..8].to_vec()),
                ];
                for (what, aad, input) in attempts {
                    assert_eq!(
                        gcm.open(&nonce, aad, &input),
                        Err(AuthError),
                        "{what} on {backend:?}"
                    );
                    let mut out = b"before".to_vec();
                    assert_eq!(
                        gcm.open_append(&nonce, aad, &input, &mut out),
                        Err(AuthError)
                    );
                    assert_eq!(
                        out, b"before",
                        "{what} on {backend:?}: output buffer touched"
                    );
                }
                let mut wrong_nonce = nonce;
                wrong_nonce[11] ^= 1;
                assert_eq!(gcm.open(&wrong_nonce, aad, &sealed), Err(AuthError));
                assert_eq!(gcm.open(&nonce, aad, &sealed).unwrap(), pt);
            }
        });
    }

    /// `seal_append` leaves what the buffer already held alone.
    #[test]
    fn seal_append_appends() {
        each_backend(|backend| {
            let gcm = AesGcm::with_backend(&[0x42u8; 32], backend);
            let nonce = [1u8; 12];
            let mut out = b"prefix".to_vec();
            gcm.seal_append(&nonce, b"a", b"x", &mut out);
            assert_eq!(&out[..6], b"prefix");
            assert_eq!(&out[6..], &gcm.seal(&nonce, b"a", b"x")[..]);
        });
    }

    /// The 32-bit block counter wraps without touching the nonce part
    /// (SP 800-38D inc32), on the batched paths too: from `MAX − 9` the
    /// wrap falls between two registers of four blocks, from `MAX − 2`
    /// inside one.
    #[test]
    fn counter_wraps_like_the_oracle() {
        let key = [3u8; 16];
        let nonce = [0xffu8; 12];
        let data = vec![0u8; 16 * 20];
        each_backend(|backend| {
            let aes = Aes::with_backend(&key, backend);
            for start in [u32::MAX - 9, u32::MAX - 2] {
                let mut got = data.clone();
                aes.ctr_xor(&nonce, start, &mut got);
                for (i, chunk) in got.chunks(16).enumerate() {
                    let mut block = [0u8; 16];
                    block[..12].copy_from_slice(&nonce);
                    block[12..].copy_from_slice(&start.wrapping_add(i as u32).to_be_bytes());
                    assert_eq!(
                        chunk,
                        aes.encrypt(&block),
                        "block {i} from {start:#x} on {backend:?}"
                    );
                }
            }
        });
    }

    /// Per-key state stays small and inline: a connection holds some two
    /// dozen of these and a simulated server tens of thousands.
    #[test]
    fn per_key_state_is_small() {
        assert_eq!(std::mem::size_of::<AesGcm>(), 15 * 16 + 2 + 16);
    }

    /// How fast each backend the CPU has seals and opens a 1200-byte packet
    /// payload and builds a key; prints, asserts nothing. Run with
    /// `cargo test --release -p qcrypto -- --ignored --nocapture backend_speed`.
    #[test]
    #[ignore = "micro-benchmark: prints timings, meaningful in release builds only"]
    fn backend_speed() {
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
        let data = vec![0xabu8; 1200];
        let nonce = [1u8; 12];
        each_backend(|backend| {
            let gcm = AesGcm::with_backend(&[7u8; 16], backend);
            let sealed = gcm.seal(&nonce, b"aad", &data);
            let mut out = Vec::with_capacity(1216);
            let seal = per_op_us(&mut || {
                out.clear();
                gcm.seal_append(&nonce, b"aad", black_box(&data), &mut out);
                black_box(&out);
            });
            let open = per_op_us(&mut || {
                out.clear();
                gcm.open_append(&nonce, b"aad", black_box(&sealed), &mut out)
                    .expect("verifies");
                black_box(&out);
            });
            let seal_64 = per_op_us(&mut || {
                out.clear();
                gcm.seal_append(&nonce, b"aad", black_box(&data[..64]), &mut out);
                black_box(&out);
            });
            let key = per_op_us(&mut || {
                black_box(AesGcm::with_backend(black_box(&[7u8; 16]), backend));
            });
            println!(
                "{}: seal_1200 {seal:.3} us ({:.2} ns/B), open_1200 {open:.3} us, \
                 seal_64 {seal_64:.3} us, new_key {key:.3} us",
                backend.name(),
                seal * 1e3 / 1200.0
            );
        });
    }
}
