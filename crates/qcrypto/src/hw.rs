//! The x86_64 backends:
//!
//! * AES-GCM — `aesenc` rounds with eight CTR blocks in flight, GHASH by
//!   `pclmulqdq` with one reduction per eight blocks (against H¹..H⁸);
//! * the SHA-256 compression function — `sha256rnds2` for the rounds,
//!   `sha256msg1`/`sha256msg2` for the message schedule, sixteen groups of
//!   four rounds per block.
//!
//! This is the one module in the workspace that contains `unsafe`, and it
//! needs it for exactly two things:
//!
//! * calling functions compiled with `#[target_feature]` — sound because
//!   every entry point takes a token: a [`Token`] for AES-GCM, a
//!   [`ShaToken`] for SHA-256. Only their `detect` can make them, and only
//!   after the CPU reported every feature the functions behind them enable;
//! * unaligned 16-byte loads and stores — confined to [`load`] and
//!   [`store`], which take `[u8; 16]` references, so the access is exactly
//!   the referent. Anything shorter than a block goes through a zero-padded
//!   block on the stack first.
//!
//! AES-NI, PCLMULQDQ and the SHA extensions run in time independent of their
//! operands, which makes this path constant-time in key and data as a side
//! effect; the crate as a whole still is not (see the crate docs).
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::aes::RoundKeys;
use crate::gcm::{length_block, split_blocks};
use crate::sha256::{BLOCK_LEN, K};

/// Proof that this CPU has AES-NI, PCLMULQDQ and SSSE3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token(());

impl Token {
    /// Asks the CPU; `None` means the portable backend must be used.
    pub(crate) fn detect() -> Option<Token> {
        (is_x86_feature_detected!("aes")
            && is_x86_feature_detected!("pclmulqdq")
            && is_x86_feature_detected!("ssse3"))
        .then_some(Token(()))
    }
}

/// Proof that this CPU has the SHA extensions, SSSE3 and SSE4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShaToken(());

impl ShaToken {
    /// Asks the CPU; `None` means the portable rounds must be used.
    pub(crate) fn detect() -> Option<ShaToken> {
        (is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1"))
        .then_some(ShaToken(()))
    }
}

#[inline(always)]
fn load(block: &[u8; 16]) -> __m128i {
    // SAFETY: `block` is a valid reference to 16 readable bytes, `loadu` has
    // no alignment requirement, and SSE2 is part of the x86_64 baseline.
    unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
}

#[inline(always)]
fn store(block: &mut [u8; 16], v: __m128i) {
    // SAFETY: `block` is a valid exclusive reference to 16 writable bytes,
    // `storeu` has no alignment requirement, and SSE2 is x86_64 baseline.
    unsafe { _mm_storeu_si128(block.as_mut_ptr().cast(), v) }
}

/// Views a 16-byte chunk (as `chunks_exact(16)` yields) as a block.
#[inline(always)]
fn as_block(chunk: &[u8]) -> &[u8; 16] {
    chunk.try_into().expect("16-byte chunk")
}

/// CTR blocks kept in flight: `aesenc` has a latency of several cycles and
/// a throughput of one or two per cycle, so eight independent blocks keep
/// the unit busy.
const LANES: usize = 8;

/// Runs the rounds over `N` independent blocks, round by round together.
#[inline]
#[target_feature(enable = "aes")]
fn encrypt_lanes<const N: usize>(keys: &[__m128i; 15], rounds: usize, blocks: &mut [__m128i; N]) {
    for b in blocks.iter_mut() {
        *b = _mm_xor_si128(*b, keys[0]);
    }
    for key in &keys[1..rounds] {
        for b in blocks.iter_mut() {
            *b = _mm_aesenc_si128(*b, *key);
        }
    }
    for b in blocks.iter_mut() {
        *b = _mm_aesenclast_si128(*b, keys[rounds]);
    }
}

#[target_feature(enable = "aes")]
fn encrypt_block_impl(rk: &RoundKeys, rounds: usize, block: &mut [u8; 16]) {
    let keys = rk.map(|k| load(&k));
    let mut lane = [load(block)];
    encrypt_lanes(&keys, rounds, &mut lane);
    store(block, lane[0]);
}

/// Encrypts one block in place.
pub(crate) fn encrypt_block(_: Token, rk: &RoundKeys, rounds: usize, block: &mut [u8; 16]) {
    // SAFETY: the token proves the CPU has the `aes` feature.
    unsafe { encrypt_block_impl(rk, rounds, block) }
}

#[target_feature(enable = "aes")]
fn ctr_xor_impl(
    rk: &RoundKeys,
    rounds: usize,
    nonce: &[u8; 12],
    mut counter: u32,
    data: &mut [u8],
) {
    let keys = rk.map(|k| load(&k));
    let word = |i: usize| i32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    let (n0, n1, n2) = (word(0), word(1), word(2));
    let keystream = |counter: &mut u32| {
        // The counter is big-endian on the wire, the lanes little-endian.
        let mut lanes: [__m128i; LANES] = core::array::from_fn(|i| {
            _mm_set_epi32(
                counter.wrapping_add(i as u32).swap_bytes() as i32,
                n2,
                n1,
                n0,
            )
        });
        *counter = counter.wrapping_add(LANES as u32);
        encrypt_lanes(&keys, rounds, &mut lanes);
        lanes
    };

    let mut batches = data.chunks_exact_mut(16 * LANES);
    for batch in &mut batches {
        let lanes = keystream(&mut counter);
        for (chunk, ks) in batch.chunks_exact_mut(16).zip(lanes) {
            let block: &mut [u8; 16] = chunk.try_into().expect("16-byte chunk");
            store(block, _mm_xor_si128(load(block), ks));
        }
    }
    let tail = batches.into_remainder();
    if !tail.is_empty() {
        let lanes = keystream(&mut counter);
        let mut bytes = [[0u8; 16]; LANES];
        for (block, ks) in bytes.iter_mut().zip(lanes) {
            store(block, ks);
        }
        for (d, ks) in tail.iter_mut().zip(bytes.as_flattened()) {
            *d ^= ks;
        }
    }
}

/// XORs `data` with the keystream of counter blocks `nonce || counter`,
/// `counter + 1`, … (32-bit wrapping).
pub(crate) fn ctr_xor(
    _: Token,
    rk: &RoundKeys,
    rounds: usize,
    nonce: &[u8; 12],
    counter: u32,
    data: &mut [u8],
) {
    // SAFETY: the token proves the CPU has the `aes` feature.
    unsafe { ctr_xor_impl(rk, rounds, nonce, counter, data) }
}

/// Blocks multiplied per reduction, and so the highest power of H used.
///
/// Field elements live in registers *bit-reflected*: the block is
/// byte-reversed on load, so register bit 127 is the coefficient of x⁰.
/// `pclmulqdq` on two such values yields the product shifted down by one
/// bit; keeping the key side pre-multiplied by x⁻¹ (a one-bit left shift,
/// done once in [`powers`]) cancels that for every product.
const AGGREGATE: usize = 8;

/// The 256-bit carry-less product of `a` and `b` as (low, middle, high)
/// partial products; the middle one straddles the two halves.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn clmul(a: __m128i, b: __m128i) -> (__m128i, __m128i, __m128i) {
    let lo = _mm_clmulepi64_si128(a, b, 0x00);
    let hi = _mm_clmulepi64_si128(a, b, 0x11);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128(a, b, 0x10),
        _mm_clmulepi64_si128(a, b, 0x01),
    );
    (lo, mid, hi)
}

/// Reduces a (sum of) partial products modulo x¹²⁸ + x⁷ + x² + x + 1.
///
/// In the reflected layout the low register half holds the *high* powers.
/// They are cancelled 64 bits at a time by adding multiples of the
/// reflected polynomial 1 + y¹²¹ + y¹²⁶ + y¹²⁷ + y¹²⁸: its low 64 bits are
/// 1, so the multiplier is the word itself, and the y¹²¹..y¹²⁷ terms are one
/// `pclmulqdq` by 0xc2 << 56.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn reduce((lo, mid, hi): (__m128i, __m128i, __m128i)) -> __m128i {
    let lo = _mm_xor_si128(lo, _mm_slli_si128(mid, 8));
    let hi = _mm_xor_si128(hi, _mm_srli_si128(mid, 8));
    let poly = _mm_set_epi64x(0, 0xc2u64.wrapping_shl(56) as i64);
    const SWAP_HALVES: i32 = 0b01_00_11_10;
    let lo = _mm_xor_si128(
        _mm_shuffle_epi32(lo, SWAP_HALVES),
        _mm_clmulepi64_si128(lo, poly, 0x00),
    );
    let lo = _mm_xor_si128(
        _mm_shuffle_epi32(lo, SWAP_HALVES),
        _mm_clmulepi64_si128(lo, poly, 0x00),
    );
    _mm_xor_si128(hi, lo)
}

/// Byte-reverses a register: wire order ↔ reflected layout.
#[inline]
#[target_feature(enable = "ssse3")]
fn reflect(v: __m128i) -> __m128i {
    _mm_shuffle_epi8(
        v,
        _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    )
}

/// Folds up to [`AGGREGATE`] blocks into `y`:
/// `(y ⊕ b₀)·Hⁿ ⊕ b₁·Hⁿ⁻¹ ⊕ … ⊕ bₙ₋₁·H`, summed unreduced and reduced once.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn absorb(powers: &[__m128i; AGGREGATE], y: __m128i, blocks: &[u8]) -> __m128i {
    let n = blocks.len() / 16;
    let mut sum = (
        _mm_setzero_si128(),
        _mm_setzero_si128(),
        _mm_setzero_si128(),
    );
    for (i, chunk) in blocks.chunks_exact(16).enumerate() {
        let mut x = reflect(load(as_block(chunk)));
        if i == 0 {
            x = _mm_xor_si128(x, y);
        }
        let (lo, mid, hi) = clmul(x, powers[n - 1 - i]);
        sum = (
            _mm_xor_si128(sum.0, lo),
            _mm_xor_si128(sum.1, mid),
            _mm_xor_si128(sum.2, hi),
        );
    }
    reduce(sum)
}

/// `powers[k]` = H^(k+1) · x⁻¹ for the first `count` entries (the rest are
/// left zero). Derived per call rather than stored per key: a key would
/// grow by 128 bytes, and servers hold tens of thousands of keys, while a
/// call pays three dependent multiplications (H^(k+1) is built from the two
/// halves of its exponent, so the chain is log₂ deep).
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn powers(h: &[u8; 16], count: usize) -> [__m128i; AGGREGATE] {
    // H · x⁻¹: in the reflected layout a one-bit left shift, the bit falling
    // off the top (x⁰ · x⁻¹) coming back as x⁻¹ ≡ x¹²⁷ + x⁶ + x + 1.
    let h = u128::from_be_bytes(*h);
    let h = (h << 1) ^ ((h >> 127) * 0xc200_0000_0000_0000_0000_0000_0000_0001);
    let mut powers = [_mm_setzero_si128(); AGGREGATE];
    powers[0] = load(&h.to_le_bytes());
    for k in 1..count.min(AGGREGATE) {
        let half = k.div_ceil(2);
        powers[k] = reduce(clmul(powers[half - 1], powers[k - half]));
    }
    powers
}

#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash_impl(h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let powers = powers(h, (aad.len().max(ct.len()) / 16).max(1));
    let mut y = _mm_setzero_si128();
    for data in [aad, ct] {
        let (whole, partial) = split_blocks(data);
        for batch in whole.chunks(16 * AGGREGATE) {
            y = absorb(&powers, y, batch);
        }
        if let Some(block) = partial {
            y = absorb(&powers, y, &block);
        }
    }
    y = absorb(&powers, y, &length_block(aad.len(), ct.len()));
    let mut out = [0u8; 16];
    store(&mut out, reflect(y));
    out
}

/// GHASH_H(aad, ct) with the SP 800-38D padding and length block, for the
/// hash subkey `h` = AES_K(0¹²⁸).
pub(crate) fn ghash(_: Token, h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    // SAFETY: the token proves the CPU has `pclmulqdq` and `ssse3`.
    unsafe { ghash_impl(h, aad, ct) }
}

/// Four SHA-256 rounds on the (ABEF, CDGH) register pair: `sha256rnds2`
/// takes two `w + k` words from the low half of `wk`, so it runs twice.
/// Each call leaves the new ABEF, and the old ABEF is the new CDGH.
#[inline]
#[target_feature(enable = "sha")]
fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, wk: __m128i) {
    *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
    *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0b00_00_11_10));
}

#[target_feature(enable = "sha,ssse3,sse4.1")]
fn sha256_compress_impl(state: &mut [u32; 8], blocks: &[u8]) {
    // Big-endian message words into little-endian lanes, W[t] in lane 0.
    let be_words = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
    let [a, b, c, d, e, f, g, h] = state.map(|w| w as i32);
    let mut abef = _mm_set_epi32(a, b, e, f);
    let mut cdgh = _mm_set_epi32(c, d, g, h);
    for block in blocks.chunks_exact(BLOCK_LEN) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        // W[4i..4i+4] for the last four groups, group i in w[i % 4].
        let mut w: [__m128i; 4] = core::array::from_fn(|i| {
            _mm_shuffle_epi8(load(as_block(&block[16 * i..16 * i + 16])), be_words)
        });
        for i in 0..16 {
            if i >= 4 {
                // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]:
                // msg1 adds σ0, alignr brings W[t-7], msg2 adds σ1.
                let (w16, w12, w8, w4) = (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                let partial =
                    _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                w[i % 4] = _mm_sha256msg2_epu32(partial, w4);
            }
            let k = _mm_set_epi32(
                K[4 * i + 3] as i32,
                K[4 * i + 2] as i32,
                K[4 * i + 1] as i32,
                K[4 * i] as i32,
            );
            rounds4(&mut abef, &mut cdgh, _mm_add_epi32(w[i % 4], k));
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|w| w as u32);
}

/// Runs the SHA-256 compression function over each 64-byte block of
/// `blocks` in turn; a trailing partial block is ignored.
pub(crate) fn sha256_compress(_: ShaToken, state: &mut [u32; 8], blocks: &[u8]) {
    // SAFETY: the token proves the CPU has `sha`, `ssse3` and `sse4.1`.
    unsafe { sha256_compress_impl(state, blocks) }
}
