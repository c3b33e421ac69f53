//! The x86_64 backends:
//!
//! * AES-GCM, two tiers — `aesenc` rounds with eight CTR blocks in flight,
//!   GHASH by `pclmulqdq` with one reduction per eight blocks (against
//!   H¹..H⁸); and on AVX-512 the same on 512-bit registers, four blocks per
//!   `vaesenc` or `vpclmulqdq`: CTR sixteen blocks per batch, the counter
//!   word kept native so one `vpaddd` is inc32 for four blocks, and GHASH
//!   eight blocks against [H⁸..H⁵] and [H⁴..H¹], folded to one lane and
//!   reduced once;
//! * the SHA-256 compression function — `sha256rnds2` for the rounds,
//!   `sha256msg1`/`sha256msg2` for the message schedule, sixteen groups of
//!   four rounds per block;
//! * X25519's ladder and fixed-base comb — four field elements per 256-bit
//!   register, one 51-bit limb per lane, multiplied with AVX-512 IFMA
//!   (`vpmadd52luq`/`vpmadd52huq`): a ladder step is three four-lane
//!   multiplications, a comb addition or doubling two. Inversion and the
//!   byte encoding stay on the portable code in [`crate::x25519`].
//!
//! This is the one module in the workspace that contains `unsafe`, and it
//! needs it for exactly two things:
//!
//! * calling functions compiled with `#[target_feature]` — sound because
//!   every entry point takes a token: a [`Token`] for AES-GCM's 128-bit
//!   tier, a [`VaesToken`] for its 512-bit tier, a [`ShaToken`] for
//!   SHA-256, an [`IfmaToken`] for X25519. Only their `detect` can make
//!   them, and only after the CPU reported every feature the functions
//!   behind them enable (a `VaesToken` also every feature a `Token` needs,
//!   which is why [`VaesToken::token`] may make one);
//! * unaligned 16- and 64-byte loads and stores — confined to [`load`] and
//!   [`store`], which take `[u8; 16]` references, and [`load4`] and
//!   [`store4`], which take `[u8; 64]` references, so the access is exactly
//!   the referent. Anything shorter goes through a buffer on the stack.
//!   The X25519 code has none: its vectors are built from and read back
//!   into `u64` limbs by `_mm256_set_epi64x` and `_mm256_extract_epi64`.
//!
//! AES-NI, VAES, (V)PCLMULQDQ and the SHA extensions run in time
//! independent of their operands, which makes this path constant-time in
//! key and data as a side effect. The X25519 code has no branch and no
//! load address that depends on the scalar: the ladder's swap is a lane
//! permutation, the comb's selection a lane mask. The crate as a whole
//! still is not constant-time (see the crate docs).
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

/// Proof that this CPU has everything a [`Token`] proves plus AVX-512F,
/// AVX-512BW, VAES and VPCLMULQDQ: AES rounds and carry-less products on
/// four blocks per 512-bit register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct VaesToken(());

impl VaesToken {
    /// Asks the CPU; `None` means the 128-bit kernels (or `soft`) must be
    /// used.
    pub(crate) fn detect() -> Option<VaesToken> {
        Token::detect()?;
        (is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
            && is_x86_feature_detected!("vaes")
            && is_x86_feature_detected!("vpclmulqdq"))
        .then_some(VaesToken(()))
    }

    /// The 128-bit kernels' proof, which this one implies; single blocks
    /// and short GHASH runs go through them.
    pub(crate) fn token(self) -> Token {
        Token(())
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

#[inline]
#[target_feature(enable = "avx512f")]
fn load4(blocks: &[u8; 64]) -> __m512i {
    // SAFETY: `blocks` is a valid reference to 64 readable bytes and `loadu`
    // has no alignment requirement; the caller's features include AVX-512F.
    unsafe { _mm512_loadu_si512(blocks.as_ptr().cast()) }
}

#[inline]
#[target_feature(enable = "avx512f")]
fn store4(blocks: &mut [u8; 64], v: __m512i) {
    // SAFETY: `blocks` is a valid exclusive reference to 64 writable bytes
    // and `storeu` has no alignment requirement; AVX-512F as for `load4`.
    unsafe { _mm512_storeu_si512(blocks.as_mut_ptr().cast(), v) }
}

/// Views a 16-byte chunk (as `chunks_exact(16)` yields) as a block.
#[inline(always)]
fn as_block(chunk: &[u8]) -> &[u8; 16] {
    chunk.try_into().expect("16-byte chunk")
}

/// The `rounds + 1` round keys in registers (the rest stay zero).
#[inline(always)]
fn round_keys(rk: &RoundKeys, rounds: usize) -> [__m128i; 15] {
    let mut keys = [load(&[0; 16]); 15];
    for (key, bytes) in keys.iter_mut().zip(rk).take(rounds + 1) {
        *key = load(bytes);
    }
    keys
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
    let keys = round_keys(rk, rounds);
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
    let keys = round_keys(rk, rounds);
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

/// GHASH over `aad` and `ct` against `powers`: every whole batch of
/// [`AGGREGATE`] blocks through `batch`, what is left of each (a shorter
/// run, the zero-padded partial block) and the length block through
/// [`absorb`].
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash_with(
    powers: &[__m128i; AGGREGATE],
    aad: &[u8],
    ct: &[u8],
    mut batch: impl FnMut(__m128i, &[u8; 16 * AGGREGATE]) -> __m128i,
) -> [u8; 16] {
    let mut y = _mm_setzero_si128();
    for data in [aad, ct] {
        let (whole, partial) = split_blocks(data);
        let mut batches = whole.chunks_exact(16 * AGGREGATE);
        for chunk in &mut batches {
            y = batch(y, chunk.try_into().expect("whole batch"));
        }
        if !batches.remainder().is_empty() {
            y = absorb(powers, y, batches.remainder());
        }
        if let Some(block) = partial {
            y = absorb(powers, y, &block);
        }
    }
    y = absorb(powers, y, &length_block(aad.len(), ct.len()));
    let mut out = [0u8; 16];
    store(&mut out, reflect(y));
    out
}

/// H's powers for a GHASH over `aad` and `ct`: as many as the longer has
/// blocks, up to [`AGGREGATE`].
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn powers_for(h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [__m128i; AGGREGATE] {
    powers(h, (aad.len().max(ct.len()) / 16).max(1))
}

#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash_impl(h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let powers = powers_for(h, aad, ct);
    ghash_with(&powers, aad, ct, |y, batch| absorb(&powers, y, batch))
}

/// GHASH_H(aad, ct) with the SP 800-38D padding and length block, for the
/// hash subkey `h` = AES_K(0¹²⁸).
pub(crate) fn ghash(_: Token, h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    // SAFETY: the token proves the CPU has `pclmulqdq` and `ssse3`.
    unsafe { ghash_impl(h, aad, ct) }
}

/// 512-bit registers of four blocks each that CTR encrypts per batch.
const WIDE_LANES: usize = 4;

/// Runs the rounds over registers of four blocks each, round by round
/// together.
#[inline]
#[target_feature(enable = "avx512f,vaes")]
fn encrypt_wide<const N: usize>(keys: &[__m512i; 15], rounds: usize, blocks: &mut [__m512i; N]) {
    for b in blocks.iter_mut() {
        *b = _mm512_xor_si512(*b, keys[0]);
    }
    for key in &keys[1..rounds] {
        for b in blocks.iter_mut() {
            *b = _mm512_aesenc_epi128(*b, *key);
        }
    }
    for b in blocks.iter_mut() {
        *b = _mm512_aesenclast_epi128(*b, keys[rounds]);
    }
}

#[target_feature(enable = "avx512f,avx512bw,vaes")]
fn ctr_xor_wide_impl(
    rk: &RoundKeys,
    rounds: usize,
    nonce: &[u8; 12],
    counter: u32,
    data: &mut [u8],
) {
    let mut keys = [_mm512_setzero_si512(); 15];
    for (wide, key) in keys.iter_mut().zip(round_keys(rk, rounds)) {
        *wide = _mm512_broadcast_i32x4(key);
    }
    // Counter blocks hold the counter as a native integer in each lane's
    // last word, so one `add_epi32` is inc32 for four blocks and one
    // `vpshufb` makes the word big-endian.
    let mut first = [0u8; 16];
    first[..12].copy_from_slice(nonce);
    first[12..].copy_from_slice(&counter.to_le_bytes());
    let mut next = _mm512_add_epi32(
        _mm512_broadcast_i32x4(load(&first)),
        _mm512_set_epi32(3, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0),
    );
    let step = _mm512_set_epi32(4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0);
    let big_endian = _mm512_broadcast_i32x4(_mm_set_epi8(
        12, 13, 14, 15, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0,
    ));
    let mut keystream = || {
        let mut lanes = [_mm512_setzero_si512(); WIDE_LANES];
        for lane in &mut lanes {
            *lane = _mm512_shuffle_epi8(next, big_endian);
            next = _mm512_add_epi32(next, step);
        }
        encrypt_wide(&keys, rounds, &mut lanes);
        lanes
    };

    let (batches, tail) = data.split_at_mut(data.len() & !(64 * WIDE_LANES - 1));
    for batch in batches.as_chunks_mut::<64>().0.chunks_exact_mut(WIDE_LANES) {
        for (blocks, ks) in batch.iter_mut().zip(keystream()) {
            store4(blocks, _mm512_xor_si512(load4(blocks), ks));
        }
    }
    if !tail.is_empty() {
        // A whole batch of keystream costs about what one register's does:
        // the rounds' latency, not their count, bounds it.
        let mut bytes = [[0u8; 64]; WIDE_LANES];
        for (blocks, ks) in bytes.iter_mut().zip(keystream()) {
            store4(blocks, ks);
        }
        for (d, ks) in tail.iter_mut().zip(bytes.as_flattened()) {
            *d ^= ks;
        }
    }
}

/// [`ctr_xor`] sixteen blocks per batch, four per `vaesenc`.
pub(crate) fn ctr_xor_wide(
    _: VaesToken,
    rk: &RoundKeys,
    rounds: usize,
    nonce: &[u8; 12],
    counter: u32,
    data: &mut [u8],
) {
    // SAFETY: the token proves the CPU has `avx512f`, `avx512bw` and `vaes`.
    unsafe { ctr_xor_wide_impl(rk, rounds, nonce, counter, data) }
}

/// [`reflect`] on each of a register's four blocks.
#[inline]
#[target_feature(enable = "avx512f,avx512bw")]
fn reflect4(v: __m512i) -> __m512i {
    _mm512_shuffle_epi8(
        v,
        _mm512_broadcast_i32x4(_mm_set_epi8(
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
        )),
    )
}

/// [`clmul`] on four lane pairs at once.
#[inline]
#[target_feature(enable = "avx512f,vpclmulqdq")]
fn clmul4(a: __m512i, b: __m512i) -> (__m512i, __m512i, __m512i) {
    let lo = _mm512_clmulepi64_epi128(a, b, 0x00);
    let hi = _mm512_clmulepi64_epi128(a, b, 0x11);
    let mid = _mm512_xor_si512(
        _mm512_clmulepi64_epi128(a, b, 0x10),
        _mm512_clmulepi64_epi128(a, b, 0x01),
    );
    (lo, mid, hi)
}

/// The XOR of a register's four lanes.
#[inline]
#[target_feature(enable = "avx512f")]
fn fold4(v: __m512i) -> __m128i {
    let v = _mm256_xor_si256(_mm512_castsi512_si256(v), _mm512_extracti64x4_epi64::<1>(v));
    _mm_xor_si128(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v))
}

/// Four blocks in one register, `lanes[0]` in the low lane.
#[inline]
#[target_feature(enable = "avx512f")]
fn join4(lanes: [__m128i; 4]) -> __m512i {
    let v = _mm512_castsi128_si512(lanes[0]);
    let v = _mm512_inserti32x4::<1>(v, lanes[1]);
    let v = _mm512_inserti32x4::<2>(v, lanes[2]);
    _mm512_inserti32x4::<3>(v, lanes[3])
}

/// [`absorb`] for one whole batch: blocks 0..3 times `high` = H⁸..H⁵ and
/// blocks 4..7 times `low` = H⁴..H¹ (each · x⁻¹), the four lanes folded and
/// reduced once. `y` is multiplied by H⁸ on its own, a 128-bit product:
/// (y ⊕ b₀)·H⁸ = y·H⁸ ⊕ b₀·H⁸, and that keeps the lane products and the
/// fold off the chain from one batch's `y` to the next.
#[inline]
#[target_feature(enable = "avx512f,avx512bw,vpclmulqdq,pclmulqdq")]
fn absorb_wide(
    (high, low, h8): (__m512i, __m512i, __m128i),
    y: __m128i,
    batch: &[u8; 16 * AGGREGATE],
) -> __m128i {
    let (first, second) = batch.split_at(64);
    let first = reflect4(load4(first.try_into().expect("64 bytes")));
    let second = reflect4(load4(second.try_into().expect("64 bytes")));
    let (l0, m0, h0) = clmul4(first, high);
    let (l1, m1, h1) = clmul4(second, low);
    let (yl, ym, yh) = clmul(y, h8);
    reduce((
        _mm_xor_si128(fold4(_mm512_xor_si512(l0, l1)), yl),
        _mm_xor_si128(fold4(_mm512_xor_si512(m0, m1)), ym),
        _mm_xor_si128(fold4(_mm512_xor_si512(h0, h1)), yh),
    ))
}

#[target_feature(enable = "avx512f,avx512bw,vpclmulqdq,pclmulqdq,ssse3")]
fn ghash_wide_impl(h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let powers = powers_for(h, aad, ct);
    let [p1, p2, p3, p4, p5, p6, p7, p8] = powers;
    let keys = (join4([p8, p7, p6, p5]), join4([p4, p3, p2, p1]), p8);
    ghash_with(&powers, aad, ct, |y, batch| absorb_wide(keys, y, batch))
}

/// [`ghash`] with each whole batch multiplied four blocks per
/// `vpclmulqdq`; input without a whole batch goes to [`ghash`] itself.
pub(crate) fn ghash_wide(token: VaesToken, h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    if aad.len().max(ct.len()) < 16 * AGGREGATE {
        return ghash(token.token(), h, aad, ct);
    }
    // SAFETY: the token proves the CPU has `avx512f`, `avx512bw`,
    // `vpclmulqdq`, and (as a `Token` does) `pclmulqdq` and `ssse3`.
    unsafe { ghash_wide_impl(h, aad, ct) }
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

/// Proof that this CPU has AVX-512F, AVX-512VL and AVX-512 IFMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IfmaToken(());

impl IfmaToken {
    /// Asks the CPU; `None` means the portable field arithmetic must be used.
    pub(crate) fn detect() -> Option<IfmaToken> {
        (is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512vl")
            && is_x86_feature_detected!("avx512ifma"))
        .then_some(IfmaToken(()))
    }
}

/// Four field elements mod 2^255 − 19 side by side: `.0[i]` holds limb i
/// (weight 2^(51·i)) of each, one element per 64-bit lane.
///
/// `vpmadd52luq`/`vpmadd52huq` read the low 52 bits of each lane and drop
/// the rest without a trace, so every operand of [`mul`] must have its
/// limbs below 2^52. [`mul`] and [`addsub`] return limbs below 2^51 + 2^15
/// and so can be multiplied directly; a raw sum cannot, which is why
/// [`addsub`] carries before it returns.
#[derive(Clone, Copy)]
struct Fe4([__m256i; 5]);

const MASK51: u64 = (1 << 51) - 1;
/// n·p limb by limb, p = 2^255 − 19 = (2^51 − 19, 2^51 − 1, …, 2^51 − 1).
const fn times_p(n: u64) -> [u64; 5] {
    let top = n * MASK51;
    [top - n * 18, top, top, top, top]
}
/// The bias that keeps `a − b` non-negative for any `b` below 2^53 − 76 per
/// limb.
const FOUR_P: [u64; 5] = times_p(4);
/// For negating a reduced comb entry.
const TWO_P: [u64; 5] = times_p(2);
const FE_ZERO: [u64; 5] = [0; 5];
const FE_ONE: [u64; 5] = [1, 0, 0, 0, 0];
const FE_TWO: [u64; 5] = [2, 0, 0, 0, 0];

/// The immediate of `vpermq` that puts lane `l0` in lane 0, `l1` in lane 1,
/// and so on.
const fn order(l0: i32, l1: i32, l2: i32, l3: i32) -> i32 {
    l0 | l1 << 2 | l2 << 4 | l3 << 6
}

/// The element `lanes[l]` in lane l.
#[inline]
#[target_feature(enable = "avx2")]
fn from_lanes(lanes: [[u64; 5]; 4]) -> Fe4 {
    let [a, b, c, d] = lanes;
    Fe4(core::array::from_fn(|i| {
        _mm256_set_epi64x(d[i] as i64, c[i] as i64, b[i] as i64, a[i] as i64)
    }))
}

/// The element in lane `L`.
#[inline]
#[target_feature(enable = "avx2")]
fn lane<const L: i32>(v: &Fe4) -> [u64; 5] {
    v.0.map(|limb| _mm256_extract_epi64::<L>(limb) as u64)
}

/// Every lane from `v`, rearranged by [`order`].
#[inline]
#[target_feature(enable = "avx2")]
fn shuffle<const ORDER: i32>(v: &Fe4) -> Fe4 {
    Fe4(v.0.map(|limb| _mm256_permute4x64_epi64::<ORDER>(limb)))
}

/// [`shuffle`], then zero in the lanes `keep` leaves clear.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn shuffle_or_zero<const ORDER: i32>(keep: __mmask8, v: &Fe4) -> Fe4 {
    Fe4(v
        .0
        .map(|limb| _mm256_maskz_permutex_epi64::<ORDER>(keep, limb)))
}

/// `b` in the lanes `take` sets, `a` in the others.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn blend(take: __mmask8, a: &Fe4, b: &Fe4) -> Fe4 {
    Fe4(core::array::from_fn(|i| {
        _mm256_mask_blend_epi64(take, a.0[i], b.0[i])
    }))
}

/// 19·x, as 2^255 ≡ 19 wants for anything carried past limb 4.
#[inline]
#[target_feature(enable = "avx2")]
fn times19(x: __m256i) -> __m256i {
    let x3 = _mm256_add_epi64(x, _mm256_slli_epi64::<1>(x));
    _mm256_add_epi64(x3, _mm256_slli_epi64::<4>(x))
}

/// One carry pass over all five limbs at once: each keeps its low 51 bits
/// and gains the carry out of the limb below it, limb 4's carry wrapping to
/// limb 0 times 19. Limbs below 2^61 come out below 2^51 + 2^15.
#[inline]
#[target_feature(enable = "avx2")]
fn carry(v: [__m256i; 5]) -> Fe4 {
    let mask = _mm256_set1_epi64x(MASK51 as i64);
    let c = v.map(|limb| _mm256_srli_epi64::<51>(limb));
    let r = v.map(|limb| _mm256_and_si256(limb, mask));
    Fe4([
        _mm256_add_epi64(r[0], times19(c[4])),
        _mm256_add_epi64(r[1], c[0]),
        _mm256_add_epi64(r[2], c[1]),
        _mm256_add_epi64(r[3], c[2]),
        _mm256_add_epi64(r[4], c[3]),
    ])
}

/// a + b in the lanes `subtract` leaves clear, a − b (biased by 4p) in the
/// lanes it sets, carried. Limbs of `a` below 2^52 and of `b` below
/// 2^53 − 76 keep every lane below 2^54 before the carry.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn addsub(a: &Fe4, b: &Fe4, subtract: __mmask8) -> Fe4 {
    carry(core::array::from_fn(|i| {
        let four_p = _mm256_set1_epi64x(FOUR_P[i] as i64);
        let b = _mm256_mask_sub_epi64(b.0[i], subtract, four_p, b.0[i]);
        _mm256_add_epi64(a.0[i], b)
    }))
}

/// a·b lane by lane; limbs of both must be below 2^52.
///
/// A 52-bit multiplier splits each 104-bit partial product a_i·b_j into a
/// low half of weight 2^(51(i+j)), summed in `lo[i + j]`, and a high half
/// of weight 2^(51(i+j) + 52), twice that of the next column, summed in
/// `hi[i + j + 1]`. So column k is lo[k] + 2·hi[k], at most 14·2^52;
/// columns 5..9 fold onto 0..4 times 19 (2^255 ≡ 19), leaving each below
/// 2^61 for [`carry`].
#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn mul(a: &Fe4, b: &Fe4) -> Fe4 {
    let zero = _mm256_setzero_si256();
    let mut lo = [zero; 10];
    let mut hi = [zero; 10];
    for (i, &a) in a.0.iter().enumerate() {
        for (j, &b) in b.0.iter().enumerate() {
            lo[i + j] = _mm256_madd52lo_epu64(lo[i + j], a, b);
            hi[i + j + 1] = _mm256_madd52hi_epu64(hi[i + j + 1], a, b);
        }
    }
    let column = |k: usize| _mm256_add_epi64(lo[k], _mm256_slli_epi64::<1>(hi[k]));
    carry(core::array::from_fn(|k| {
        _mm256_add_epi64(column(k), times19(column(k + 5)))
    }))
}

/// The 255 steps of the Montgomery ladder, each three four-lane
/// multiplications. The state (x2, z2, x3, z3) sits in lanes 0..3; the
/// conditional swap exchanges the two halves by XORing the lane indices of
/// the step's first permutation with 2·swap, so no branch and no address
/// depends on a scalar bit.
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn x25519_ladder_impl(k: &[u8; 32], x1: &[u64; 5]) -> [[u64; 5]; 2] {
    let mut state = from_lanes([FE_ONE, FE_ZERO, *x1, FE_ONE]);
    let u = from_lanes([*x1; 4]);
    let a24 = from_lanes([[121665, 0, 0, 0, 0]; 4]);
    let pick_x = _mm256_set_epi64x(2, 2, 0, 0);
    let pick_z = _mm256_set_epi64x(3, 3, 1, 1);
    let permute = |v: &Fe4, idx| Fe4(v.0.map(|limb| _mm256_permutexvar_epi64(idx, limb)));
    let mut swap = 0u64;
    for t in (0..255).rev() {
        let bit = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= bit;
        let flip = _mm256_set1_epi64x((swap << 1) as i64);
        // (x2, x2, x3, x3) and (z2, z2, z3, z3), swapped where `swap` says.
        let x = permute(&state, _mm256_xor_si256(pick_x, flip));
        let z = permute(&state, _mm256_xor_si256(pick_z, flip));
        swap = bit;
        // (A, B, D, C) = (x2 + z2, x2 − z2, x3 − z3, x3 + z3).
        let abdc = addsub(&x, &z, 0b0110);
        // (AA, BB, DA, CB).
        let m1 = mul(&abdc, &shuffle::<{ order(0, 1, 0, 1) }>(&abdc));
        let even = shuffle::<{ order(0, 0, 2, 2) }>(&m1);
        let odd = shuffle::<{ order(1, 1, 3, 3) }>(&m1);
        // (AA + BB, E = AA − BB, DA + CB, DA − CB).
        let sums = addsub(&even, &odd, 0b1010);
        // (AA, E, DA + CB, DA − CB) × (BB, a24, DA + CB, DA − CB).
        let left = blend(0b0001, &sums, &m1);
        let right = blend(0b0010, &blend(0b1100, &odd, &sums), &a24);
        // (x2, a24·E, x3, (DA − CB)²).
        let m2 = mul(&left, &right);
        // (·, E, ·, (DA − CB)²) × (·, AA + a24·E, ·, x1).
        let left = blend(0b1100, &left, &m2);
        let right = blend(0b1000, &addsub(&m2, &even, 0), &u);
        // (·, z2, ·, z3).
        let m3 = mul(&left, &right);
        state = blend(0b1010, &m2, &m3);
    }
    // Clamping clears bit 0, so the last step leaves nothing to swap back.
    [lane::<0>(&state), lane::<1>(&state)]
}

/// X25519's Montgomery ladder for the clamped scalar `k` and the u
/// coordinate `x1` (five limbs below 2^52): the projective result (x2, z2),
/// limbs below 2^52.
pub(crate) fn x25519_ladder(_: IfmaToken, k: &[u8; 32], x1: &[u64; 5]) -> [[u64; 5]; 2] {
    // SAFETY: the token proves the CPU has `avx512f`, `avx512vl` and
    // `avx512ifma` (the first implies `avx2`).
    unsafe { x25519_ladder_impl(k, x1) }
}

/// The fixed-base comb table in lanes: entry j of row i holds
/// (y − x, y + x, 2dxy, 2) of (j + 1)·256^i·B. The 2 multiplies Z in the
/// lane that would otherwise idle, which gives D = 2Z for free.
pub(crate) struct CombTable(Vec<[Fe4; 8]>);

#[target_feature(enable = "avx2")]
fn comb_table_impl(rows: impl Iterator<Item = [[[u64; 5]; 3]; 8]>) -> CombTable {
    CombTable(
        rows.map(|row| row.map(|[ym, yp, xy2d]| from_lanes([ym, yp, xy2d, FE_TWO])))
            .collect(),
    )
}

/// Lays out the comb table from its rows, each entry given as
/// (y − x, y + x, 2dxy) with limbs below 2^51.
pub(crate) fn comb_table(
    _: IfmaToken,
    rows: impl Iterator<Item = [[[u64; 5]; 3]; 8]>,
) -> CombTable {
    // SAFETY: the token proves the CPU has `avx2` (implied by `avx512f`).
    unsafe { comb_table_impl(rows) }
}

/// The point (X, Y, Z, T) = (EF, GH, FG, EH) from s = (E, F, G, H): one
/// multiplication of (E, G, F, E) by (F, H, G, H).
#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn efgh(s: &Fe4) -> Fe4 {
    mul(
        &shuffle::<{ order(0, 2, 1, 0) }>(s),
        &shuffle::<{ order(1, 3, 2, 3) }>(s),
    )
}

/// p + q for p = (X, Y, Z, T) and a selected entry q: the same madd formula
/// as the portable `add_affine`, its three products and D = 2Z in one
/// multiplication and the four of E, F, G, H in the next.
#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn add_affine(p: &Fe4, q: &Fe4) -> Fe4 {
    // (Y − X, Y + X, T, Z).
    let l = addsub(
        &shuffle::<{ order(1, 1, 3, 2) }>(p),
        &shuffle_or_zero::<{ order(0, 0, 0, 0) }>(0b0011, p),
        0b0001,
    );
    // (A, B, C, D).
    let m = mul(&l, q);
    // (E, F, G, H) = (B − A, D − C, D + C, B + A).
    efgh(&addsub(
        &shuffle::<{ order(1, 3, 3, 1) }>(&m),
        &shuffle::<{ order(0, 2, 2, 0) }>(&m),
        0b0011,
    ))
}

/// 2·p, as the portable `double`: F and H come out negated, which negates
/// all four coordinates, the same point.
#[inline]
#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn double(p: &Fe4) -> Fe4 {
    // (X, Y, Z, X + Y), then (X, Y, 2Z, X + Y).
    let l = addsub(
        &shuffle::<{ order(0, 1, 2, 0) }>(p),
        &shuffle_or_zero::<{ order(0, 0, 0, 1) }>(0b1000, p),
        0,
    );
    let r = addsub(&l, &shuffle_or_zero::<{ order(0, 0, 2, 0) }>(0b0100, &l), 0);
    // (A, B, C, S²) = (X², Y², 2Z², (X + Y)²).
    let m = mul(&l, &r);
    // (A + B, G = B − A, ·, ·).
    let u = addsub(
        &shuffle::<{ order(1, 1, 1, 1) }>(&m),
        &shuffle::<{ order(0, 0, 0, 0) }>(&m),
        0b0010,
    );
    // (E, −F, G, −H) = (S² − (A + B), C − G, G, A + B).
    let x = blend(
        0b1100,
        &shuffle::<{ order(3, 2, 0, 0) }>(&m),
        &shuffle::<{ order(0, 0, 1, 0) }>(&u),
    );
    let y = shuffle_or_zero::<{ order(0, 1, 0, 0) }>(0b0011, &u);
    efgh(&addsub(&x, &y, 0b0011))
}

/// digit·(row's base) for a digit in [−8, 8], every entry read and kept or
/// dropped under a lane mask; the negation (swap y + x with y − x, negate
/// 2dxy) is applied the same way.
#[inline]
#[target_feature(enable = "avx512f,avx512vl")]
fn select(row: &[Fe4; 8], digit: i8) -> Fe4 {
    let negative = u64::from(digit as u8 >> 7);
    let abs = (digit as i64 as u64 ^ 0u64.wrapping_sub(negative)).wrapping_add(negative);
    let want = _mm256_set1_epi64x(abs as i64);
    let mut t = from_lanes([FE_ONE, FE_ONE, FE_ZERO, FE_TWO]);
    for (j, entry) in (1..).zip(row) {
        let hit = _mm256_cmpeq_epi64_mask(want, _mm256_set1_epi64x(j));
        t = blend(hit, &t, entry);
    }
    let swapped = shuffle::<{ order(1, 0, 2, 3) }>(&t);
    let minus = Fe4(core::array::from_fn(|i| {
        let two_p = _mm256_set1_epi64x(TWO_P[i] as i64);
        _mm256_mask_sub_epi64(swapped.0[i], 0b0100, two_p, swapped.0[i])
    }));
    blend(0u8.wrapping_sub(negative as u8), &t, &minus)
}

#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
fn x25519_comb_impl(digits: &[i8; 64], table: &CombTable) -> [[u64; 5]; 2] {
    let mut h = from_lanes([FE_ZERO, FE_ONE, FE_ONE, FE_ZERO]);
    // The odd digits, ×16, then the even ones; one loop, so `add_affine`
    // has one call site and is inlined.
    for odd in [1, 0] {
        for (row, pair) in table.0.iter().zip(digits.chunks_exact(2)) {
            h = add_affine(&h, &select(row, pair[odd]));
        }
        if odd == 1 {
            for _ in 0..4 {
                h = double(&h);
            }
        }
    }
    [lane::<1>(&h), lane::<2>(&h)]
}

/// The fixed-base comb over the recoded scalar `digits`: (Y, Z) of the
/// Edwards result, limbs below 2^52, as the portable comb computes it.
pub(crate) fn x25519_comb(_: IfmaToken, digits: &[i8; 64], table: &CombTable) -> [[u64; 5]; 2] {
    // SAFETY: the token proves the CPU has `avx512f`, `avx512vl` and
    // `avx512ifma`.
    unsafe { x25519_comb_impl(digits, table) }
}

#[target_feature(enable = "avx512f,avx512vl,avx512ifma")]
#[cfg(test)]
fn mul_lanes_impl(a: [[u64; 5]; 4], b: [[u64; 5]; 4]) -> [[u64; 5]; 4] {
    let m = mul(&from_lanes(a), &from_lanes(b));
    [lane::<0>(&m), lane::<1>(&m), lane::<2>(&m), lane::<3>(&m)]
}

/// The four-lane multiplication on its own, for the bound tests.
#[cfg(test)]
pub(crate) fn mul_lanes(_: IfmaToken, a: [[u64; 5]; 4], b: [[u64; 5]; 4]) -> [[u64; 5]; 4] {
    // SAFETY: the token proves the CPU has `avx512f`, `avx512vl` and
    // `avx512ifma`.
    unsafe { mul_lanes_impl(a, b) }
}
