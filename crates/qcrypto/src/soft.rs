//! The portable AES-GCM backend: T-table AES rounds and 4-bit Shoup tables
//! for GHASH. Runs wherever `hw` does not (non-x86_64 targets, and x86_64
//! CPUs without AES-NI/PCLMULQDQ); the tests hold it to the same vectors and
//! to the bit-serial oracle in `reference`.
//!
//! Table lookups are indexed by secret bytes, so this path is not
//! constant-time — see the crate docs for why that is accepted here.

use crate::aes::{RoundKeys, SBOX};
use crate::gcm::{length_block, split_blocks};

const fn xtime(b: u8) -> u8 {
    (b << 1) ^ ((b >> 7) * 0x1b)
}

/// `TE[0][x]` is the MixColumns image of S-box output `S[x]` in row 0 — the
/// big-endian column `(2·S, S, S, 3·S)`; `TE[k]` is the same for row `k`
/// (`TE[0]` rotated right by `k` bytes). One round of one column is then
/// four lookups and four XORs. Built at compile time from [`SBOX`].
static TE: [[u32; 256]; 4] = {
    let mut te = [[0u32; 256]; 4];
    let mut x = 0;
    while x < 256 {
        let s = SBOX[x];
        let s2 = xtime(s);
        let column = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        let mut k = 0;
        while k < 4 {
            te[k][x] = column.rotate_right(8 * k as u32);
            k += 1;
        }
        x += 1;
    }
    te
};

/// The schedule as big-endian column words, the form the tables work in.
fn key_words(rk: &RoundKeys, rounds: usize) -> [u32; 60] {
    let mut words = [0u32; 60];
    for (w, bytes) in words
        .iter_mut()
        .zip(rk.as_flattened().as_chunks::<4>().0)
        .take(4 * (rounds + 1))
    {
        *w = u32::from_be_bytes(*bytes);
    }
    words
}

/// SubBytes + ShiftRows + MixColumns for the column whose row-0 byte comes
/// from `a`, row-1 byte from `b` (one column to the right), and so on.
#[inline(always)]
fn column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    TE[0][(a >> 24) as usize]
        ^ TE[1][(b >> 16) as u8 as usize]
        ^ TE[2][(c >> 8) as u8 as usize]
        ^ TE[3][d as u8 as usize]
}

/// The last round's SubBytes + ShiftRows (no MixColumns) for one column.
#[inline(always)]
fn last_column(a: u32, b: u32, c: u32, d: u32) -> u32 {
    u32::from_be_bytes([
        SBOX[(a >> 24) as usize],
        SBOX[(b >> 16) as u8 as usize],
        SBOX[(c >> 8) as u8 as usize],
        SBOX[d as u8 as usize],
    ])
}

/// Encrypts `N` independent blocks, given and returned as column words.
/// The blocks advance round by round together so their lookups overlap.
#[inline(always)]
fn encrypt_words<const N: usize>(k: &[u32; 60], rounds: usize, blocks: &mut [[u32; 4]; N]) {
    for s in blocks.iter_mut() {
        for (word, key) in s.iter_mut().zip(&k[..4]) {
            *word ^= key;
        }
    }
    for round in 1..rounds {
        let k = &k[4 * round..4 * round + 4];
        for s in blocks.iter_mut() {
            let [s0, s1, s2, s3] = *s;
            *s = [
                column(s0, s1, s2, s3) ^ k[0],
                column(s1, s2, s3, s0) ^ k[1],
                column(s2, s3, s0, s1) ^ k[2],
                column(s3, s0, s1, s2) ^ k[3],
            ];
        }
    }
    let k = &k[4 * rounds..4 * rounds + 4];
    for s in blocks.iter_mut() {
        let [s0, s1, s2, s3] = *s;
        *s = [
            last_column(s0, s1, s2, s3) ^ k[0],
            last_column(s1, s2, s3, s0) ^ k[1],
            last_column(s2, s3, s0, s1) ^ k[2],
            last_column(s3, s0, s1, s2) ^ k[3],
        ];
    }
}

/// The big-endian words of a block or nonce.
fn be_words<const N: usize, const W: usize>(bytes: &[u8; N]) -> [u32; W] {
    let words = bytes.as_chunks::<4>().0;
    core::array::from_fn(|i| u32::from_be_bytes(words[i]))
}

/// Encrypts one block in place.
pub(crate) fn encrypt_block(rk: &RoundKeys, rounds: usize, block: &mut [u8; 16]) {
    let k = key_words(rk, rounds);
    let mut s = [be_words::<16, 4>(block)];
    encrypt_words(&k, rounds, &mut s);
    for (bytes, word) in block.chunks_exact_mut(4).zip(s[0]) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
}

/// CTR blocks interleaved per pass of [`encrypt_words`].
const LANES: usize = 8;

/// XORs `data` with the keystream of counter blocks `nonce || counter`,
/// `counter + 1`, … (32-bit wrapping).
pub(crate) fn ctr_xor(
    rk: &RoundKeys,
    rounds: usize,
    nonce: &[u8; 12],
    mut counter: u32,
    data: &mut [u8],
) {
    let k = key_words(rk, rounds);
    let n: [u32; 3] = be_words(nonce);
    for batch in data.chunks_mut(16 * LANES) {
        let mut blocks: [[u32; 4]; LANES] =
            std::array::from_fn(|i| [n[0], n[1], n[2], counter.wrapping_add(i as u32)]);
        counter = counter.wrapping_add(LANES as u32);
        encrypt_words(&k, rounds, &mut blocks);
        // A short last batch simply leaves some of the keystream unused.
        let mut keystream = [0u8; 16 * LANES];
        for (bytes, word) in keystream.chunks_exact_mut(4).zip(blocks.as_flattened()) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        for (d, ks) in batch.iter_mut().zip(keystream) {
            *d ^= ks;
        }
    }
}

/// Field elements are `u128::from_be_bytes(block)`: bit 127 is the
/// coefficient of x⁰ and bit 0 that of x¹²⁷ (SP 800-38D's bit order), so
/// multiplying by x is a right shift.
const R: u128 = 0xe1 << 120;

/// `v · x` in GF(2¹²⁸).
fn mul_x(v: u128) -> u128 {
    (v >> 1) ^ ((v & 1) * R)
}

/// Shoup's 4-bit table for a fixed `h`: `table[n] = n(x) · h`, where nibble
/// `n` has its top bit as the x⁰ coefficient.
fn shoup_table(h: u128) -> [u128; 16] {
    let mut table = [0u128; 16];
    table[8] = h;
    table[4] = mul_x(table[8]);
    table[2] = mul_x(table[4]);
    table[1] = mul_x(table[2]);
    for n in [2usize, 4, 8] {
        for low in 1..n {
            table[n + low] = table[n] ^ table[low];
        }
    }
    table
}

/// The tables [`mul`] multiplies by H with: one for the high nibble of each
/// byte (x⁰..x³) and one, for H·x⁴, for the low nibble (x⁴..x⁷), so a whole
/// byte is absorbed per step. 512 bytes and about a hundred XORs and shifts
/// to build — cheap enough that [`ghash`] builds them per call on the stack
/// instead of storing them in every key (see [`crate::gcm`]).
struct Tables {
    high_nibble: [u128; 16],
    low_nibble: [u128; 16],
}

impl Tables {
    fn new(h: u128) -> Self {
        let h_x4 = mul_x(mul_x(mul_x(mul_x(h))));
        Tables {
            high_nibble: shoup_table(h),
            low_nibble: shoup_table(h_x4),
        }
    }
}

/// `(lo · x¹²⁸) mod g` for `lo` holding the coefficients of x¹²⁸..x²⁵⁵
/// (bit 127 = x¹²⁸): x¹²⁸ ≡ 1 + x + x² + x⁷.
fn fold(lo: u128) -> u128 {
    let fold_once = |v: u128| v ^ (v >> 1) ^ (v >> 2) ^ (v >> 7);
    // What the three shifts pushed past x¹²⁷ — seven coefficients at most,
    // so folding them once more ends it.
    let spill = (lo << 127) ^ (lo << 126) ^ (lo << 121);
    fold_once(lo) ^ fold_once(spill)
}

/// `x · H`: Horner's rule over the 16 bytes of `x`, highest power first,
/// into a 256-bit accumulator that is reduced once at the end — so the loop
/// carries only a shift and XORs, no per-step reduction lookup.
fn mul(tables: &Tables, x: u128) -> u128 {
    let (mut hi, mut lo) = (0u128, 0u128);
    for byte in x.to_le_bytes() {
        lo = (lo >> 8) | (hi << 120);
        hi = (hi >> 8)
            ^ tables.high_nibble[usize::from(byte >> 4)]
            ^ tables.low_nibble[usize::from(byte & 0x0f)];
    }
    hi ^ fold(lo)
}

/// GHASH_H(aad, ct) with the SP 800-38D padding and length block.
pub(crate) fn ghash(h: &[u8; 16], aad: &[u8], ct: &[u8]) -> [u8; 16] {
    let tables = Tables::new(u128::from_be_bytes(*h));
    let mut y = 0u128;
    for data in [aad, ct] {
        let (whole, partial) = split_blocks(data);
        for block in whole.as_chunks::<16>().0.iter().chain(&partial) {
            y = mul(&tables, y ^ u128::from_be_bytes(*block));
        }
    }
    y = mul(
        &tables,
        y ^ u128::from_be_bytes(length_block(aad.len(), ct.len())),
    );
    y.to_be_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::gmul;

    #[test]
    fn table_driven_mul_matches_bit_serial() {
        let mut rng = proptest::TestRng::for_test("soft::table_driven_mul_matches_bit_serial");
        let mut wide = || (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
        let edge = [0u128, 1, 1 << 127, u128::MAX, 0xf, 0xf << 124];
        for case in 0..200 {
            let (h, x) = match case {
                0..36 => (edge[case / 6], edge[case % 6]),
                _ => (wide(), wide()),
            };
            assert_eq!(mul(&Tables::new(h), x), gmul(x, h), "h={h:032x} x={x:032x}");
        }
    }
}
