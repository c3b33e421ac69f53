//! AES block cipher (FIPS 197), encrypt direction only — CTR-based modes
//! (GCM) never need the inverse cipher.
//!
//! [`Aes`] is the key schedule: up to 15 round keys held inline (no heap
//! allocation per key — a QUIC connection expands about two dozen of them)
//! plus the backend that will run the rounds. The backend is picked by
//! [`Backend::detect`] from what the CPU reports and nothing else:
//!
//! * `vaes512` — x86_64 with all of `hw` plus AVX-512F, AVX-512BW, VAES and
//!   VPCLMULQDQ: CTR sixteen blocks per batch, four per 512-bit `vaesenc`;
//!   single blocks (H, the tag mask) on the `hw` kernels;
//! * `hw` — x86_64 with AES-NI, PCLMULQDQ and SSSE3: `aesenc` rounds, eight
//!   CTR blocks in flight;
//! * `soft` — everywhere else: compile-time T-tables, eight CTR blocks per
//!   pass.
//!
//! The key expansion itself is shared and portable (it runs once per key and
//! is a few hundred S-box lookups). No backend makes the *crate*
//! constant-time: `soft` indexes tables by secret bytes, and the key
//! expansion does so on every host.

#[cfg(target_arch = "x86_64")]
use crate::hw;
use crate::soft;

pub(crate) const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 11] = [
    0x00, 0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36,
];

/// Round keys of one schedule; AES-128 fills the first 11, AES-256 all 15.
pub(crate) type RoundKeys = [[u8; 16]; 15];

/// Which implementation runs the rounds (and, in [`crate::gcm`], GHASH).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// VAES + VPCLMULQDQ on 512-bit registers for CTR and GHASH, the
    /// 128-bit kernels for single blocks; the token proves the CPU has both.
    #[cfg(target_arch = "x86_64")]
    Vaes512(hw::VaesToken),
    /// AES-NI + PCLMULQDQ; the token proves the CPU has them.
    #[cfg(target_arch = "x86_64")]
    Hw(hw::Token),
    /// Portable table-driven code.
    Soft,
}

impl Backend {
    /// The backend every public constructor uses: the widest the CPU has
    /// (`vaes512`, then `hw`, then `soft`). `is_x86_feature_detected!` asks
    /// the CPU once per process and answers from a cached word after that,
    /// so this is a few relaxed loads and cannot change its mind. In this
    /// crate's own tests `reference::each_backend` can pin it for the
    /// calling thread.
    pub(crate) fn detect() -> Backend {
        #[cfg(test)]
        if let Some(pinned) = crate::reference::PINNED_AES.with(std::cell::Cell::get) {
            return pinned;
        }
        Backend::vaes512()
            .or_else(Backend::hw)
            .unwrap_or(Backend::Soft)
    }

    /// The 512-bit backend, if this CPU has it.
    pub(crate) fn vaes512() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        return hw::VaesToken::detect().map(Backend::Vaes512);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// The 128-bit hardware backend, if this CPU has it — also on a CPU
    /// that would pick `vaes512`.
    pub(crate) fn hw() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        return hw::Token::detect().map(Backend::Hw);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// The name [`crate::backends`] reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes512(_) => "vaes512",
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(_) => "hw",
            Backend::Soft => "soft",
        }
    }
}

/// Expanded AES key supporting the 128- and 256-bit variants.
#[derive(Clone)]
pub struct Aes {
    round_keys: RoundKeys,
    rounds: u8,
    backend: Backend,
}

impl Aes {
    /// Expands a 16-byte AES-128 key.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::with_backend(key, Backend::detect())
    }

    /// Expands a key of 16 or 32 bytes.
    ///
    /// # Panics
    /// Panics on any other key length.
    pub fn new(key: &[u8]) -> Self {
        Self::with_backend(key, Backend::detect())
    }

    /// [`Aes::new`] pinned to one backend, so tests can hold both against
    /// the same vectors whatever the CPU would have picked.
    pub(crate) fn with_backend(key: &[u8], backend: Backend) -> Self {
        let (nk, rounds) = match key.len() {
            16 => (4, 10),
            32 => (8, 14),
            n => panic!("unsupported AES key length {n}"),
        };
        // FIPS 197 §5.2, on big-endian words.
        let sub_word = |w: u32| u32::from_be_bytes(w.to_be_bytes().map(|b| SBOX[b as usize]));
        let mut w = [0u32; 60];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4-byte chunk"));
        }
        for i in nk..4 * (rounds + 1) {
            let mut t = w[i - 1];
            if i.is_multiple_of(nk) {
                t = sub_word(t.rotate_left(8)) ^ (u32::from(RCON[i / nk]) << 24);
            } else if nk > 6 && i % nk == 4 {
                t = sub_word(t);
            }
            w[i] = w[i - nk] ^ t;
        }
        let mut round_keys = [[0u8; 16]; 15];
        for (bytes, word) in round_keys.as_flattened_mut().chunks_exact_mut(4).zip(w) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Aes {
            round_keys,
            rounds: rounds as u8,
            backend,
        }
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; 16]) {
        let rounds = usize::from(self.rounds);
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes512(token) => {
                hw::encrypt_block(token.token(), &self.round_keys, rounds, block)
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(token) => hw::encrypt_block(token, &self.round_keys, rounds, block),
            Backend::Soft => soft::encrypt_block(&self.round_keys, rounds, block),
        }
    }

    /// Encrypts `block` and returns the ciphertext, leaving the input intact.
    pub fn encrypt(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut b = *block;
        self.encrypt_block(&mut b);
        b
    }

    /// XORs `data` with the CTR keystream of `nonce || counter`, the 32-bit
    /// big-endian counter starting at `counter` and wrapping (SP 800-38D
    /// `inc32`).
    pub(crate) fn ctr_xor(&self, nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
        let rounds = usize::from(self.rounds);
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::Vaes512(token) => {
                hw::ctr_xor_wide(token, &self.round_keys, rounds, nonce, counter, data)
            }
            #[cfg(target_arch = "x86_64")]
            Backend::Hw(token) => {
                hw::ctr_xor(token, &self.round_keys, rounds, nonce, counter, data)
            }
            Backend::Soft => soft::ctr_xor(&self.round_keys, rounds, nonce, counter, data),
        }
    }

    /// The backend this schedule was built for.
    pub(crate) fn backend(&self) -> Backend {
        self.backend
    }

    /// Round keys and round count, for the test oracle.
    #[cfg(test)]
    pub(crate) fn schedule(&self) -> (&RoundKeys, usize) {
        (&self.round_keys, usize::from(self.rounds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, each_backend};
    use qcodec::hex;

    fn block(s: &str) -> [u8; 16] {
        hex::decode(s).unwrap().try_into().unwrap()
    }

    /// FIPS 197 Appendix C.1 (AES-128) and C.3 (AES-256).
    #[test]
    fn fips197_vectors() {
        let pt = block("00112233445566778899aabbccddeeff");
        let k128 = hex::decode("000102030405060708090a0b0c0d0e0f").unwrap();
        let k256 = hex::decode("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .unwrap();
        each_backend(|backend| {
            let aes = Aes::with_backend(&k128, backend);
            assert_eq!(
                hex::encode(&aes.encrypt(&pt)),
                "69c4e0d86a7b0430d8cdb78070b4c55a"
            );
            let aes = Aes::with_backend(&k256, backend);
            assert_eq!(
                hex::encode(&aes.encrypt(&pt)),
                "8ea2b7ca516745bfeafc49904b496089"
            );
        });
    }

    /// NIST SP 800-38A F.1.1 ECB-AES128, all four blocks.
    #[test]
    fn sp800_38a_ecb() {
        let key = hex::decode("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let cases = [
            (
                "6bc1bee22e409f96e93d7e117393172a",
                "3ad77bb40d7a3660a89ecaf32466ef97",
            ),
            (
                "ae2d8a571e03ac9c9eb76fac45af8e51",
                "f5d3d58503b9699de785895a96fdbaaf",
            ),
            (
                "30c81c46a35ce411e5fbc1191a0a52ef",
                "43b1cd7f598ece23881b00e3ed030688",
            ),
            (
                "f69f2445df4f9b17ad2b417be66c3710",
                "7b0c785e27e8ad3f8223207104725dd4",
            ),
        ];
        each_backend(|backend| {
            let aes = Aes::with_backend(&key, backend);
            for (pt, ct) in cases {
                assert_eq!(hex::encode(&aes.encrypt(&block(pt))), ct, "{backend:?}");
            }
        });
    }

    /// NIST SP 800-38A F.5.1 CTR-AES128: the keystream of four consecutive
    /// counter blocks, through the multi-block CTR path.
    #[test]
    fn sp800_38a_ctr() {
        let key = hex::decode("2b7e151628aed2a6abf7158809cf4f3c").unwrap();
        let nonce: [u8; 12] = hex::decode("f0f1f2f3f4f5f6f7f8f9fafb")
            .unwrap()
            .try_into()
            .unwrap();
        let pt = hex::decode(
            "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51\
             30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710",
        )
        .unwrap();
        each_backend(|backend| {
            let mut data = pt.clone();
            Aes::with_backend(&key, backend).ctr_xor(&nonce, 0xfcfdfeff, &mut data);
            assert_eq!(
                hex::encode(&data),
                "874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff\
                 5ae4df3edbd5d35e5b4f09020db03eab1e031dda2fbe03d1792170a0f3009cee",
                "{backend:?}"
            );
        });
    }

    /// Every backend equals the byte-wise FIPS 197 rounds on arbitrary keys
    /// and blocks.
    #[test]
    fn backends_match_bytewise_rounds() {
        let mut rng = proptest::TestRng::for_test("aes::backends_match_bytewise_rounds");
        for case in 0..200 {
            let key: Vec<u8> = (0..if case % 2 == 0 { 16 } else { 32 })
                .map(|_| rng.next_u64() as u8)
                .collect();
            let block: [u8; 16] = std::array::from_fn(|_| rng.next_u64() as u8);
            each_backend(|backend| {
                let aes = Aes::with_backend(&key, backend);
                let (rk, rounds) = aes.schedule();
                let mut want = block;
                reference::encrypt_block(rk, rounds, &mut want);
                assert_eq!(aes.encrypt(&block), want, "{backend:?} case {case}");
            });
        }
    }

    #[test]
    #[should_panic(expected = "unsupported AES key length")]
    fn bad_key_length() {
        let _ = Aes::new(&[0u8; 24]); // AES-192 deliberately unsupported
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    /// Encryption is deterministic and key-sensitive.
    #[test]
    fn different_keys_different_ciphertext() {
        let a = Aes::new_128(&[1u8; 16]);
        let b = Aes::new_128(&[2u8; 16]);
        let block = [0x5au8; 16];
        assert_ne!(a.encrypt(&block), b.encrypt(&block));
        assert_eq!(a.encrypt(&block), a.encrypt(&block));
    }

    /// Every single-bit key flip changes the ciphertext (avalanche smoke).
    #[test]
    fn key_avalanche() {
        let block = [7u8; 16];
        let base = Aes::new_128(&[0u8; 16]).encrypt(&block);
        for byte in 0..16 {
            let mut key = [0u8; 16];
            key[byte] = 1;
            assert_ne!(Aes::new_128(&key).encrypt(&block), base, "byte {byte}");
        }
    }
}
