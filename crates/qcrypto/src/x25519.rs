//! X25519 Diffie-Hellman (RFC 7748).
//!
//! Field arithmetic over 2^255 - 19 uses five 51-bit limbs in `u64`s with
//! `u128` products (the donna-c64 layout): 25 partial products per
//! multiplication, and 15 per squaring, which computes each cross term
//! a_i·a_j once and doubles it.
//!
//! [`x25519`] is the one variable-base path: the Montgomery ladder, 255
//! steps for any u. [`public_key`] multiplies the fixed base point on the
//! birationally equivalent Ed25519 curve instead, as ref10's
//! `ge_scalarmult_base` does. The clamped scalar is recoded into 64 signed
//! radix-16 digits in [−8, 8], and each digit adds one entry of a 32 × 8
//! table whose row i holds j·256^i·B for j = 1..8, B being the Edwards
//! image of u = 9. Entries are affine `(y+x, y−x, 2dxy)`, so an addition
//! costs seven multiplications. The odd digits are summed first and
//! multiplied by 16 with four doublings; the even digits are added after.
//! The result converts back through u = (Z+Y)/(Z−Y), bit-identical to
//! `x25519(secret, &BASEPOINT)`. The table (30 KiB) is built once per
//! process on first use. A digit's entry is picked by reading its whole row
//! under masks, so neither a load address nor a branch depends on it.
//!
//! Both run on one of two backends, picked per process from the CPU (no
//! option, variable or feature picks it): `hw`'s AVX-512 IFMA code where the
//! CPU has AVX-512F, AVX-512VL and AVX-512 IFMA, the 5×51 code here
//! everywhere else. The IFMA ladder keeps (x2, z2, x3, z3) in the four lanes
//! of one register per limb and runs a step as three four-lane
//! multiplications — (AA, BB, DA, CB), then (AA·BB, a24·E, (DA+CB)²,
//! (DA−CB)²), then E·(AA + a24·E) and x1·(DA−CB)² — with the swap done as a
//! lane permutation. The IFMA comb keeps (X, Y, Z, T) in the lanes: an
//! addition's three products and 2Z are one multiplication, the four of
//! E, F, G, H the next, over a second, lane-major copy of the table
//! (40 KiB). Both backends finish with the inversion and encoding below,
//! so their outputs are the same bytes; the portable code is the definition
//! the tests hold the IFMA code to.

use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
use crate::hw;

/// A field element in 5×51-bit limbs, loosely reduced (< 2^52 per limb).
#[derive(Clone, Copy)]
struct Fe([u64; 5]);

const MASK51: u64 = (1 << 51) - 1;
const ZERO: Fe = Fe([0; 5]);
const ONE: Fe = Fe([1, 0, 0, 0, 0]);

impl Fe {
    fn from_bytes(s: &[u8; 32]) -> Fe {
        let lo = |r: core::ops::Range<usize>| -> u64 {
            let mut b = [0u8; 8];
            b[..r.len()].copy_from_slice(&s[r]);
            u64::from_le_bytes(b)
        };
        Fe([
            lo(0..8) & MASK51,
            (lo(6..14) >> 3) & MASK51,
            (lo(12..20) >> 6) & MASK51,
            (lo(19..27) >> 1) & MASK51,
            (lo(24..32) >> 12) & MASK51,
        ])
    }

    fn to_bytes(self) -> [u8; 32] {
        // Fully carry, then canonicalize mod 2^255 - 19.
        let mut h = self.0;
        let mut carry;
        for _ in 0..2 {
            for i in 0..5 {
                carry = h[i] >> 51;
                h[i] &= MASK51;
                if i == 4 {
                    h[0] += carry * 19;
                } else {
                    h[i + 1] += carry;
                }
            }
        }
        // h < 2^255 + small; subtract p if h >= p.
        let mut q = (h[0].wrapping_add(19)) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        h[0] += 19 * q;
        carry = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += carry;
        carry = h[1] >> 51;
        h[1] &= MASK51;
        h[2] += carry;
        carry = h[2] >> 51;
        h[2] &= MASK51;
        h[3] += carry;
        carry = h[3] >> 51;
        h[3] &= MASK51;
        h[4] += carry;
        h[4] &= MASK51;

        let mut out = [0u8; 32];
        let write = |out: &mut [u8; 32], bit_offset: usize, v: u64| {
            let byte = bit_offset / 8;
            let shift = bit_offset % 8;
            let val = (v as u128) << shift;
            for k in 0..8 {
                if byte + k < 32 {
                    out[byte + k] |= (val >> (8 * k)) as u8;
                }
            }
        };
        write(&mut out, 0, h[0]);
        write(&mut out, 51, h[1]);
        write(&mut out, 102, h[2]);
        write(&mut out, 153, h[3]);
        write(&mut out, 204, h[4]);
        out
    }

    #[inline]
    fn add(&self, other: &Fe) -> Fe {
        let a = &self.0;
        let b = &other.0;
        Fe([
            a[0] + b[0],
            a[1] + b[1],
            a[2] + b[2],
            a[3] + b[3],
            a[4] + b[4],
        ])
    }

    /// a - b, biased by 2p to stay non-negative (inputs loosely reduced).
    #[inline]
    fn sub(&self, other: &Fe) -> Fe {
        const TWO_P0: u64 = 0xfffffffffffda; // 2 * (2^51 - 19)
        const TWO_P1234: u64 = 0xffffffffffffe; // 2 * (2^51 - 1)
        let a = &self.0;
        let b = &other.0;
        Fe([
            a[0] + TWO_P0 - b[0],
            a[1] + TWO_P1234 - b[1],
            a[2] + TWO_P1234 - b[2],
            a[3] + TWO_P1234 - b[3],
            a[4] + TWO_P1234 - b[4],
        ])
        .weak_reduce()
    }

    /// One carry pass bringing limbs back under ~2^52.
    #[inline]
    fn weak_reduce(mut self) -> Fe {
        let h = &mut self.0;
        let c0 = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += c0;
        let c1 = h[1] >> 51;
        h[1] &= MASK51;
        h[2] += c1;
        let c2 = h[2] >> 51;
        h[2] &= MASK51;
        h[3] += c2;
        let c3 = h[3] >> 51;
        h[3] &= MASK51;
        h[4] += c3;
        let c4 = h[4] >> 51;
        h[4] &= MASK51;
        h[0] += c4 * 19;
        self
    }

    #[inline]
    fn mul(&self, other: &Fe) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = other.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        // Limbs above index 4 fold back with a ×19 factor (2^255 ≡ 19).
        let b1_19 = b1 * 19;
        let b2_19 = b2 * 19;
        let b3_19 = b3 * 19;
        let b4_19 = b4 * 19;

        Fe::carry_wide([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    /// self², in 15 products: the full square's cross terms pair up, so each
    /// is taken once with one factor doubled, and the ×19 fold of the high
    /// columns goes into a factor too. Limbs up to 2^54 keep every column
    /// within `u128` and the final ×19 carry within `u64`, as in `mul`.
    #[inline]
    fn square(&self) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let m = |x: u64, y: u64| -> u128 { (x as u128) * (y as u128) };
        let a0_2 = a0 * 2;
        let a1_2 = a1 * 2;
        let a1_38 = a1 * 38;
        let a2_38 = a2 * 38;
        let a3_38 = a3 * 38;
        let a3_19 = a3 * 19;
        let a4_19 = a4 * 19;
        Fe::carry_wide([
            m(a0, a0) + m(a1_38, a4) + m(a2_38, a3),
            m(a0_2, a1) + m(a2_38, a4) + m(a3_19, a3),
            m(a0_2, a2) + m(a1, a1) + m(a3_38, a4),
            m(a0_2, a3) + m(a1_2, a2) + m(a4_19, a4),
            m(a0_2, a4) + m(a1_2, a3) + m(a2, a2),
        ])
    }

    /// Carries five column sums of a product into loosely reduced limbs.
    #[inline]
    fn carry_wide([t0, mut t1, mut t2, mut t3, mut t4]: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mut carry: u64;
        carry = (t0 >> 51) as u64;
        out[0] = (t0 as u64) & MASK51;
        t1 += carry as u128;
        carry = (t1 >> 51) as u64;
        out[1] = (t1 as u64) & MASK51;
        t2 += carry as u128;
        carry = (t2 >> 51) as u64;
        out[2] = (t2 as u64) & MASK51;
        t3 += carry as u128;
        carry = (t3 >> 51) as u64;
        out[3] = (t3 as u64) & MASK51;
        t4 += carry as u128;
        carry = (t4 >> 51) as u64;
        out[4] = (t4 as u64) & MASK51;
        out[0] += carry * 19;
        let c = out[0] >> 51;
        out[0] &= MASK51;
        out[1] += c;
        Fe(out)
    }

    #[inline]
    fn neg(&self) -> Fe {
        ZERO.sub(self)
    }

    /// Replaces self with `other` where `mask` is all ones; keeps it where
    /// `mask` is zero. Both are read either way.
    #[inline]
    fn cmov(&mut self, other: &Fe, mask: u64) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a ^= mask & (*a ^ b);
        }
    }

    #[inline]
    fn mul_small(&self, n: u64) -> Fe {
        let mut t = [0u128; 5];
        for (ti, limb) in t.iter_mut().zip(self.0.iter()) {
            *ti = (*limb as u128) * (n as u128);
        }
        let mut out = [0u64; 5];
        let mut carry = 0u64;
        for i in 0..5 {
            let v = t[i] + carry as u128;
            out[i] = (v as u64) & MASK51;
            carry = (v >> 51) as u64;
        }
        out[0] += carry * 19;
        Fe(out).weak_reduce()
    }

    /// Fermat inversion: a^(p-2), p = 2^255 - 19.
    fn invert(&self) -> Fe {
        // Addition chain from curve25519-donna.
        let z2 = self.square();
        let z8 = z2.square().square();
        let z9 = self.mul(&z8);
        let z11 = z2.mul(&z9);
        let z22 = z11.square();
        let z_5_0 = z9.mul(&z22); // 2^5 - 2^0
        let mut t = z_5_0;
        for _ in 0..5 {
            t = t.square();
        }
        let z_10_0 = t.mul(&z_5_0);
        t = z_10_0;
        for _ in 0..10 {
            t = t.square();
        }
        let z_20_0 = t.mul(&z_10_0);
        t = z_20_0;
        for _ in 0..20 {
            t = t.square();
        }
        let z_40_0 = t.mul(&z_20_0);
        t = z_40_0;
        for _ in 0..10 {
            t = t.square();
        }
        let z_50_0 = t.mul(&z_10_0);
        t = z_50_0;
        for _ in 0..50 {
            t = t.square();
        }
        let z_100_0 = t.mul(&z_50_0);
        t = z_100_0;
        for _ in 0..100 {
            t = t.square();
        }
        let z_200_0 = t.mul(&z_100_0);
        t = z_200_0;
        for _ in 0..50 {
            t = t.square();
        }
        let z_250_0 = t.mul(&z_50_0);
        t = z_250_0;
        for _ in 0..5 {
            t = t.square();
        }
        t.mul(&z11) // 2^255 - 21
    }
}

fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
    let mask = 0u64.wrapping_sub(swap);
    for i in 0..5 {
        let x = mask & (a.0[i] ^ b.0[i]);
        a.0[i] ^= x;
        b.0[i] ^= x;
    }
}

/// RFC 7748 §5 clamping: a multiple of 8 with bit 254 set and bit 255 clear.
fn clamp(scalar: &[u8; 32]) -> [u8; 32] {
    let mut k = *scalar;
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// Which implementation runs the ladder and the comb. Both keep inversion
/// and the byte encoding on the portable [`Fe`] code, so their outputs are
/// the same bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Backend {
    /// AVX-512 IFMA, four field elements per instruction; the token proves
    /// the CPU has it.
    #[cfg(target_arch = "x86_64")]
    Ifma(hw::IfmaToken),
    /// The 5×51-bit limbs above, one element at a time.
    Portable,
}

impl Backend {
    /// `ifma` when the CPU has it, `portable` otherwise — from the CPU and
    /// nothing else, like [`crate::sha256::Backend::detect`]. In this
    /// crate's own tests `reference::each_x25519_backend` can pin it for the
    /// calling thread.
    pub(crate) fn detect() -> Backend {
        #[cfg(test)]
        if let Some(pinned) = crate::reference::PINNED_X25519.with(std::cell::Cell::get) {
            return pinned;
        }
        Backend::ifma().unwrap_or(Backend::Portable)
    }

    /// The IFMA backend, if this CPU has it.
    pub(crate) fn ifma() -> Option<Backend> {
        #[cfg(target_arch = "x86_64")]
        return hw::IfmaToken::detect().map(Backend::Ifma);
        #[cfg(not(target_arch = "x86_64"))]
        None
    }

    /// The name [`crate::backends`] reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            Backend::Ifma(_) => "ifma",
            Backend::Portable => "portable",
        }
    }
}

/// The X25519 function: scalar multiplication on Curve25519's Montgomery
/// ladder. `scalar` is clamped per RFC 7748 §5.
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(scalar);
    let mut u_masked = *u;
    u_masked[31] &= 0x7f;
    let x1 = Fe::from_bytes(&u_masked);
    let (x2, z2) = match Backend::detect() {
        #[cfg(target_arch = "x86_64")]
        Backend::Ifma(token) => {
            let [x2, z2] = hw::x25519_ladder(token, &k, &x1.0);
            (Fe(x2), Fe(z2))
        }
        Backend::Portable => ladder(&k, x1),
    };
    x2.mul(&z2.invert()).to_bytes()
}

/// The portable ladder: (x2, z2) of k·x1, projective.
fn ladder(k: &[u8; 32], x1: Fe) -> (Fe, Fe) {
    let mut x2 = ONE;
    let mut z2 = ZERO;
    let mut x3 = x1;
    let mut z3 = ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= k_t;
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&e.mul_small(121665)));
    }
    cswap(swap, &mut x2, &mut x3);
    cswap(swap, &mut z2, &mut z3);
    (x2, z2)
}

/// The canonical base point u = 9.
pub const BASEPOINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Derives the public key for `secret` (scalar × base point) with the
/// fixed-base comb; equal to `x25519(secret, &BASEPOINT)`.
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    let digits = recode(&clamp(secret));
    let (y, z) = match Backend::detect() {
        #[cfg(target_arch = "x86_64")]
        Backend::Ifma(token) => {
            let [y, z] = hw::x25519_comb(token, &digits, ifma_table(token));
            (Fe(y), Fe(z))
        }
        Backend::Portable => {
            let h = comb(&digits);
            (h.y, h.z)
        }
    };
    // u = (1 + y) / (1 − y), y = Y/Z.
    z.add(&y).mul(&z.sub(&y).invert()).to_bytes()
}

/// The portable comb: Σ digits[i]·16^i·B on Ed25519.
fn comb(digits: &[i8; 64]) -> Point {
    let table = base_table();
    let mut h = Point::IDENTITY;
    for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
        h = h.add_affine(&select(row, pair[1]));
    }
    for _ in 0..4 {
        h = h.double();
    }
    for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
        h = h.add_affine(&select(row, pair[0]));
    }
    h
}

/// x of the Ed25519 base point (RFC 8032 §5.1), little-endian. Its y is
/// 4/5, which the birational map u = (1+y)/(1−y) sends to u = 9.
const ED25519_BASE_X: [u8; 32] = [
    0x1a, 0xd5, 0x25, 0x8f, 0x60, 0x2d, 0x56, 0xc9, 0xb2, 0xa7, 0x25, 0x95, 0x60, 0xc7, 0x2c, 0x69,
    0x5c, 0xdc, 0xd6, 0xfd, 0x31, 0xe2, 0xa4, 0xc0, 0xfe, 0x53, 0x6e, 0xcd, 0xd3, 0x36, 0x69, 0x21,
];

/// A point on Ed25519 (−x² + y² = 1 + d·x²y²) in extended coordinates:
/// x = X/Z, y = Y/Z, xy = T/Z.
#[derive(Clone, Copy)]
struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// An affine point as a comb table entry: (y+x, y−x, 2dxy).
#[derive(Clone, Copy)]
struct Affine {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Affine {
    const IDENTITY: Affine = Affine {
        y_plus_x: ONE,
        y_minus_x: ONE,
        xy2d: ZERO,
    };

    fn cmov(&mut self, other: &Affine, mask: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, mask);
        self.y_minus_x.cmov(&other.y_minus_x, mask);
        self.xy2d.cmov(&other.xy2d, mask);
    }
}

impl Point {
    const IDENTITY: Point = Point {
        x: ZERO,
        y: ONE,
        z: ONE,
        t: ZERO,
    };

    /// X = EF, Y = GH, Z = FG, T = EH: the common tail of addition and
    /// doubling (Hisil–Wong–Carter–Dawson 2008).
    fn from_efgh(e: Fe, f: Fe, g: Fe, h: Fe) -> Point {
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// self + q, the unified madd formula for a = −1. It is complete on
    /// Ed25519, so q may be the identity or equal to self.
    fn add_affine(&self, q: &Affine) -> Point {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.xy2d);
        let d = self.z.add(&self.z);
        Point::from_efgh(b.sub(&a), d.sub(&c), d.add(&c), b.add(&a))
    }

    /// 2·self for a = −1. F and H are passed negated, which negates all
    /// four coordinates: the same point. `sub` takes a subtrahend below 2p
    /// per limb, so no sum is subtracted: E drops A and B one at a time,
    /// and −F is C − G.
    fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = b.sub(&a);
        Point::from_efgh(e, c.sub(&g), g, a.add(&b))
    }

    fn to_affine(self, d2: &Fe) -> Affine {
        let z_inv = self.z.invert();
        let x = self.x.mul(&z_inv);
        let y = self.y.mul(&z_inv);
        Affine {
            y_plus_x: y.add(&x),
            y_minus_x: y.sub(&x),
            xy2d: x.mul(&y).mul(d2),
        }
    }
}

/// The comb table of the portable backend. Built on first use.
fn base_table() -> &'static [[Affine; 8]] {
    static TABLE: OnceLock<Vec<[Affine; 8]>> = OnceLock::new();
    TABLE.get_or_init(|| comb_rows().collect())
}

/// The comb's 32 rows, one at a time: row i holds j·256^i·B for j = 1..8.
fn comb_rows() -> impl Iterator<Item = [Affine; 8]> {
    let small = |n: u64| Fe([n, 0, 0, 0, 0]);
    let d = small(121665).neg().mul(&small(121666).invert());
    let d2 = d.add(&d);
    let x = Fe::from_bytes(&ED25519_BASE_X);
    let y = small(4).mul(&small(5).invert());
    let mut row_base = Point {
        x,
        y,
        z: ONE,
        t: x.mul(&y),
    };
    (0..32).map(move |_| {
        let step = row_base.to_affine(&d2);
        let mut multiple = row_base;
        let row = [(); 8].map(|()| {
            let entry = multiple.to_affine(&d2);
            multiple = multiple.add_affine(&step);
            entry
        });
        for _ in 0..8 {
            row_base = row_base.double();
        }
        row
    })
}

/// [`comb_rows`] laid out for the IFMA comb (40 KiB), fully reduced so that
/// negating an entry stays below 2^52 per limb. Built on first use, row by
/// row, without [`base_table`], which the IFMA backend never reads.
#[cfg(target_arch = "x86_64")]
fn ifma_table(token: hw::IfmaToken) -> &'static hw::CombTable {
    static TABLE: OnceLock<hw::CombTable> = OnceLock::new();
    TABLE.get_or_init(|| {
        let reduced = |fe: &Fe| Fe::from_bytes(&fe.to_bytes()).0;
        let rows = comb_rows().map(|row| {
            row.map(|e| {
                [
                    reduced(&e.y_minus_x),
                    reduced(&e.y_plus_x),
                    reduced(&e.xy2d),
                ]
            })
        });
        hw::comb_table(token, rows)
    })
}

/// The clamped scalar as 64 signed radix-16 digits in [−8, 8], least
/// significant first: k = Σ digits[i]·16^i. The top digit stays ≤ 8
/// because clamping clears bit 255.
fn recode(k: &[u8; 32]) -> [i8; 64] {
    let mut digits = [0i8; 64];
    for (pair, byte) in digits.chunks_exact_mut(2).zip(k) {
        pair[0] = (byte & 15) as i8;
        pair[1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in &mut digits[..63] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    digits[63] += carry;
    digits
}

/// digit·(row's base) for a digit in [−8, 8]. Every entry of the row is
/// read and kept or dropped by mask, and the negation (swap y+x with y−x,
/// negate 2dxy) is applied the same way, as `cswap` does.
fn select(row: &[Affine; 8], digit: i8) -> Affine {
    let negative = 0u64.wrapping_sub(u64::from(digit as u8 >> 7));
    let abs = (digit as i64 as u64 ^ negative).wrapping_sub(negative);
    let mut t = Affine::IDENTITY;
    for (j, entry) in (1u64..).zip(row) {
        let equal = ((abs ^ j).wrapping_sub(1)) >> 63;
        t.cmov(entry, 0u64.wrapping_sub(equal));
    }
    let minus = Affine {
        y_plus_x: t.y_minus_x,
        y_minus_x: t.y_plus_x,
        xy2d: t.xy2d.neg(),
    };
    t.cmov(&minus, negative);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::each_x25519_backend;
    use proptest::prelude::*;
    use qcodec::hex;

    /// RFC 7748 §5.2 test vector 1.
    #[test]
    fn rfc7748_vector1() {
        let scalar: [u8; 32] =
            hex::decode("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
                .unwrap()
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            hex::decode("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
                .unwrap()
                .try_into()
                .unwrap();
        each_x25519_backend(|backend| {
            assert_eq!(
                hex::encode(&x25519(&scalar, &u)),
                "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
                "{backend:?}"
            );
        });
    }

    /// RFC 7748 §5.2 test vector 2.
    #[test]
    fn rfc7748_vector2() {
        let scalar: [u8; 32] =
            hex::decode("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d")
                .unwrap()
                .try_into()
                .unwrap();
        let u: [u8; 32] =
            hex::decode("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493")
                .unwrap()
                .try_into()
                .unwrap();
        each_x25519_backend(|backend| {
            assert_eq!(
                hex::encode(&x25519(&scalar, &u)),
                "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
                "{backend:?}"
            );
        });
    }

    /// RFC 7748 §6.1 Diffie-Hellman: Alice and Bob derive the same secret.
    #[test]
    fn rfc7748_dh() {
        let alice_sk: [u8; 32] =
            hex::decode("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
                .unwrap()
                .try_into()
                .unwrap();
        let bob_sk: [u8; 32] =
            hex::decode("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
                .unwrap()
                .try_into()
                .unwrap();
        each_x25519_backend(|backend| {
            let alice_pk = public_key(&alice_sk);
            assert_eq!(
                hex::encode(&alice_pk),
                "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
                "{backend:?}"
            );
            let bob_pk = public_key(&bob_sk);
            assert_eq!(
                hex::encode(&bob_pk),
                "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
                "{backend:?}"
            );
            let k1 = x25519(&alice_sk, &bob_pk);
            let k2 = x25519(&bob_sk, &alice_pk);
            assert_eq!(k1, k2, "{backend:?}");
            assert_eq!(
                hex::encode(&k1),
                "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742",
                "{backend:?}"
            );
        });
    }

    /// RFC 7748 §5.2 iterated test (1 and 1000 iterations).
    #[test]
    fn rfc7748_iterated() {
        each_x25519_backend(|backend| {
            let mut k: [u8; 32] = BASEPOINT;
            let mut u: [u8; 32] = BASEPOINT;
            for _ in 0..1 {
                let out = x25519(&k, &u);
                u = k;
                k = out;
            }
            assert_eq!(
                hex::encode(&k),
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
                "{backend:?}"
            );
            for _ in 1..1000 {
                let out = x25519(&k, &u);
                u = k;
                k = out;
            }
            assert_eq!(
                hex::encode(&k),
                "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51",
                "{backend:?}"
            );
        });
    }

    /// Field round-trip at the byte level.
    #[test]
    fn fe_bytes_roundtrip() {
        let mut v = [0u8; 32];
        for (i, b) in v.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(1);
        }
        v[31] &= 0x7f;
        let fe = Fe::from_bytes(&v);
        assert_eq!(fe.to_bytes(), v);
    }

    /// The comb equals the ladder on the base point: 1,000 hashed scalars,
    /// the all-zero and all-one scalars, and scalars that set only the bits
    /// clamping overrides.
    #[test]
    fn public_key_matches_the_ladder() {
        let mut clamped_bits_only = vec![[0u8; 32]; 3];
        clamped_bits_only[0][0] = 7;
        clamped_bits_only[1][31] = 0x80;
        clamped_bits_only[2][31] = 0x40;
        let hashed = (0u32..1000).map(|i| crate::sha256::digest(&i.to_le_bytes()));
        let fixed = [[0u8; 32], [0xff; 32]].into_iter().chain(clamped_bits_only);
        let secrets: Vec<[u8; 32]> = hashed.chain(fixed).collect();
        each_x25519_backend(|backend| {
            for secret in &secrets {
                assert_eq!(
                    public_key(secret),
                    x25519(secret, &BASEPOINT),
                    "{} on {backend:?}",
                    hex::encode(secret)
                );
            }
        });
    }

    /// `square` equals `mul(self)` limb for limb, up to the 2^54 bound `add`
    /// can hand either of them.
    #[test]
    fn square_matches_mul() {
        let mut state = 0x9000_u64;
        let mut next = || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let max = (1u64 << 54) - 1;
        let mut cases = vec![Fe([max; 5]), ZERO, ONE];
        for bits in [51, 52, 53, 54] {
            cases.extend((0..1000).map(|_| Fe([(); 5].map(|_| next() >> (64 - bits)))));
        }
        for a in cases {
            assert_eq!(a.square().0, a.mul(&a).0, "{:?}", a.0);
        }
    }

    /// The u that make the output all zero for every clamped scalar: the
    /// points of order 1, 2, 4 and 8, and their non-canonical encodings
    /// p − 1, p and p + 1 (RFC 7748 §6.1's "check for the all-zero value").
    const SMALL_ORDER: [&str; 7] = [
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0100000000000000000000000000000000000000000000000000000000000000",
        "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
        "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
        "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
        "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    ];

    proptest! {
        /// Both backends give the same bytes for `x25519` and `public_key`:
        /// on random u, on u with bit 255 set (masked off), on every u ≥ p
        /// (p + r for r < 19, with and without bit 255), and on the
        /// small-order u, where both must give the all-zero output that
        /// `qtls`' `dh_shared_secret` refuses.
        #[test]
        fn backends_agree(
            scalar in proptest::array::uniform32(any::<u8>()),
            random_u in proptest::array::uniform32(any::<u8>()),
            kind in 0usize..4,
            pick in 0usize..SMALL_ORDER.len(),
            above_p in 0u8..19,
            top_bit in any::<bool>(),
        ) {
            let mut u = match kind {
                0 => random_u,
                1 => {
                    let mut u = random_u;
                    u[31] |= 0x80;
                    u
                }
                2 => {
                    let mut u = [0xff; 32];
                    u[0] = 0xed + above_p;
                    u[31] = 0x7f;
                    u
                }
                _ => hex::decode(SMALL_ORDER[pick]).unwrap().try_into().unwrap(),
            };
            if top_bit {
                u[31] |= 0x80;
            }
            let mut outputs = Vec::new();
            each_x25519_backend(|_| outputs.push((x25519(&scalar, &u), public_key(&scalar))));
            prop_assert!(outputs.windows(2).all(|w| w[0] == w[1]), "{outputs:?}");
            if kind == 3 {
                prop_assert_eq!(outputs[0].0, [0u8; 32]);
            }
        }
    }

    /// The IFMA multiplication at the edge of what `vpmadd52*` reads: every
    /// limb of both operands at 2^52 − 1 (each column at its bound), beside
    /// lanes of zero, one and mixed limbs. Each lane equals the portable
    /// product, and every limb comes back below 2^51 + 2^15, so it can be
    /// multiplied again.
    #[test]
    #[cfg(target_arch = "x86_64")]
    fn ifma_mul_at_the_operand_bound() {
        let Some(Backend::Ifma(token)) = Backend::ifma() else {
            eprintln!("note: no AVX-512 IFMA on this CPU — ifma X25519 backend not exercised");
            return;
        };
        let max = (1u64 << 52) - 1;
        let cases = [
            ([[max; 5]; 4], [[max; 5]; 4]),
            (
                [[max; 5], [0; 5], [1, 0, 0, 0, 0], [max, 0, max, 0, max]],
                [[max; 5], [max; 5], [max; 5], [0, max, 0, max, 0]],
            ),
        ];
        for (a, b) in cases {
            let product = crate::hw::mul_lanes(token, a, b);
            for ((a, b), got) in a.iter().zip(&b).zip(product) {
                assert!(
                    got.iter().all(|&limb| limb < (1 << 51) + (1 << 15)),
                    "{got:?}"
                );
                assert_eq!(
                    Fe(got).to_bytes(),
                    Fe(*a).mul(&Fe(*b)).to_bytes(),
                    "{a:?} × {b:?}"
                );
            }
        }
    }

    /// µs per `public_key` and per DH on each backend this CPU has, and the
    /// one `x25519` picks; prints, asserts nothing. Run with
    /// `cargo test --release -p qcrypto -- --ignored --nocapture x25519_speed`.
    #[test]
    #[ignore = "micro-benchmark: prints timings, meaningful in release builds only"]
    fn x25519_speed() {
        use std::hint::black_box;
        use std::time::Instant;
        let per_op_us = |op: &mut dyn FnMut()| {
            let iterations = 2_000;
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
        let secret = [0x42u8; 32];
        let peer = public_key(&[7u8; 32]);
        each_x25519_backend(|backend| {
            let keygen = per_op_us(&mut || {
                black_box(public_key(black_box(&secret)));
            });
            let dh = per_op_us(&mut || {
                black_box(x25519(black_box(&secret), &peer));
            });
            println!(
                "x25519 {}: public_key {keygen:.2} us, dh {dh:.2} us",
                backend.name()
            );
        });
        println!("x25519 picks {}", Backend::detect().name());
    }
}
