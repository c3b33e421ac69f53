//! The test oracle: AES rounds byte by byte as FIPS 197 writes them, GHASH
//! bit by bit as SP 800-38D writes it, GCM assembled from the two, and
//! SHA-256 padded the way FIPS 180-4 §5.1.1 writes it. The AES and GCM parts
//! were the production code before the `hw`/`soft` backends; all of it is
//! compiled into test builds only, where every backend is held against it.
//! For X25519 the portable 5×51 code is the definition the IFMA backend is
//! held against; [`each_x25519_backend`] runs a check on each.

use std::cell::Cell;

use crate::aes::{Aes, Backend, RoundKeys, SBOX};
use crate::sha256::{self, BLOCK_LEN, DIGEST_LEN};
use crate::x25519;

thread_local! {
    /// The AES-GCM backend [`each_backend`] pinned on this thread.
    pub(crate) static PINNED_AES: Cell<Option<Backend>> = const { Cell::new(None) };
}

/// Runs `check` against `soft`, then `hw` (the 128-bit kernels, also on a
/// CPU that would pick `vaes512`), then `vaes512`, each where the CPU has
/// it, with every schedule the calling thread builds through
/// [`Backend::detect`] pinned to the same one; says so on stderr for a
/// tier the CPU lacks, so a green run on such a host is not read as
/// covering it.
pub(crate) fn each_backend(mut check: impl FnMut(Backend)) {
    let mut run = |backend| {
        PINNED_AES.with(|p| p.set(Some(backend)));
        check(backend);
        PINNED_AES.with(|p| p.set(None));
    };
    run(Backend::Soft);
    match Backend::hw() {
        Some(hw) => run(hw),
        None => eprintln!("note: no AES-NI/PCLMULQDQ on this CPU — hw backend not exercised"),
    }
    match Backend::vaes512() {
        Some(wide) => run(wide),
        None => eprintln!(
            "note: no AVX-512 VAES/VPCLMULQDQ on this CPU — vaes512 backend not exercised"
        ),
    }
}

thread_local! {
    /// The SHA-256 backend [`each_sha256_backend`] pinned on this thread.
    pub(crate) static PINNED_SHA256: Cell<Option<sha256::Backend>> = const { Cell::new(None) };
}

/// Runs `check` with every hasher the calling thread creates — and so every
/// HMAC and HKDF call — on `soft`, then on `hw` where the CPU has it; says
/// so on stderr where it does not.
pub(crate) fn each_sha256_backend(mut check: impl FnMut(sha256::Backend)) {
    let mut run = |backend| {
        PINNED_SHA256.with(|p| p.set(Some(backend)));
        check(backend);
        PINNED_SHA256.with(|p| p.set(None));
    };
    run(sha256::Backend::Soft);
    match sha256::Backend::hw() {
        Some(hw) => run(hw),
        None => eprintln!("note: no SHA-NI on this CPU — hw SHA-256 backend not exercised"),
    }
}

thread_local! {
    /// The X25519 backend [`each_x25519_backend`] pinned on this thread.
    pub(crate) static PINNED_X25519: Cell<Option<x25519::Backend>> = const { Cell::new(None) };
}

/// Runs `check` with every `x25519` and `public_key` call on the calling
/// thread on `portable`, then on `ifma` where the CPU has it; says so on
/// stderr where it does not.
pub(crate) fn each_x25519_backend(mut check: impl FnMut(x25519::Backend)) {
    let mut run = |backend| {
        PINNED_X25519.with(|p| p.set(Some(backend)));
        check(backend);
        PINNED_X25519.with(|p| p.set(None));
    };
    run(x25519::Backend::Portable);
    match x25519::Backend::ifma() {
        Some(ifma) => run(ifma),
        None => eprintln!("note: no AVX-512 IFMA on this CPU — ifma X25519 backend not exercised"),
    }
}

/// SHA-256 of `msg` padded whole — message ‖ 0x80 ‖ zeros ‖ 64-bit bit
/// length — and compressed block by block with the portable rounds.
pub(crate) fn sha256(msg: &[u8]) -> [u8; DIGEST_LEN] {
    let mut padded = msg.to_vec();
    padded.push(0x80);
    while padded.len() % BLOCK_LEN != BLOCK_LEN - 8 {
        padded.push(0);
    }
    padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
    let mut state = sha256::H0;
    for block in padded.chunks_exact(BLOCK_LEN) {
        sha256::compress_soft(&mut state, block.try_into().expect("64-byte chunk"));
    }
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, w) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&w.to_be_bytes());
    }
    out
}

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

fn shift_rows(state: &mut [u8; 16]) {
    // State is column-major: byte (row r, col c) lives at index 4c + r.
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        let t = col[0] ^ col[1] ^ col[2] ^ col[3];
        for r in 0..4 {
            state[4 * c + r] = col[r] ^ t ^ xtime(col[r] ^ col[(r + 1) % 4]);
        }
    }
}

/// Encrypts one block in place, one FIPS 197 step at a time.
pub(crate) fn encrypt_block(rk: &RoundKeys, rounds: usize, block: &mut [u8; 16]) {
    add_round_key(block, &rk[0]);
    for key in &rk[1..rounds] {
        sub_bytes(block);
        shift_rows(block);
        mix_columns(block);
        add_round_key(block, key);
    }
    sub_bytes(block);
    shift_rows(block);
    add_round_key(block, &rk[rounds]);
}

/// Carry-less multiplication in GF(2^128) with the GCM polynomial, operating
/// on big-endian bit order as SP 800-38D defines it.
pub(crate) fn gmul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xe1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        let lsb = v & 1;
        v >>= 1;
        if lsb == 1 {
            v ^= R;
        }
    }
    z
}

/// AES-GCM seal (ciphertext || tag), one block at a time.
pub(crate) fn gcm_seal(key: &[u8], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let aes = Aes::with_backend(key, Backend::Soft);
    let (rk, rounds) = aes.schedule();
    let encrypt = |mut block: [u8; 16]| {
        encrypt_block(rk, rounds, &mut block);
        block
    };
    let counter_block = |counter: u32| {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[12..].copy_from_slice(&counter.to_be_bytes());
        block
    };

    let mut out = plaintext.to_vec();
    for (i, chunk) in out.chunks_mut(16).enumerate() {
        let ks = encrypt(counter_block(2u32.wrapping_add(i as u32)));
        for (d, k) in chunk.iter_mut().zip(ks) {
            *d ^= k;
        }
    }

    let h = u128::from_be_bytes(encrypt([0u8; 16]));
    let mut y = 0u128;
    for data in [aad, &out[..]] {
        for chunk in data.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = gmul(y ^ u128::from_be_bytes(block), h);
        }
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (out.len() as u128 * 8);
    y = gmul(y ^ lengths, h);
    let tag = y ^ u128::from_be_bytes(encrypt(counter_block(1)));
    out.extend_from_slice(&tag.to_be_bytes());
    out
}
