//! A keyed pseudorandom permutation over `[0, n)` via a balanced Feistel
//! network with cycle walking — the property ZMap gets from iterating a
//! multiplicative group: every address visited exactly once, in an order
//! that spreads load across target networks.
//!
//! Each round is a splitmix64 finaliser of the right half, three dependent
//! 64-bit multiplies. The sweeps and `LazyUniverse` permute at most a /10
//! (n = 2²², a walk domain of 2²⁴), so a round sees at most 2¹² distinct
//! halves: a permutation whose halves are at most `TABLE_BITS` wide
//! tabulates its four rounds when it is built, and a round is then one load
//! (in the block walk, on a value packed as `(left << 16) | right`, a rotate
//! and one load). `round_fn` stays the definition and the only path for
//! wider halves; the tests hold the tables to it at every half width.
//!
//! The cipher has two callers with opposite needs. A point lookup
//! ([`FeistelPermutation::permute`], [`FeistelPermutation::rank`]) wants one
//! answer and waits for it: four dependent rounds, repeated until the value
//! lands inside the domain (four encryptions on average at n = 2²²), behind
//! an exit branch the predictor cannot learn. A sweep wants every answer and
//! does not care in which order they are computed, so
//! [`FeistelPermutation::permute_into`] walks a block in passes: each pass
//! encrypts every value still outside the domain once, and those
//! encryptions are independent of each other, so they overlap in the
//! pipeline. Measured on the 2-core Xeon guest at n = 2²² (`feistel_speed`):
//! ≈14 ns per address for the block walk (≈19 ns before the packed rounds
//! and the double-buffered pending list) and ≈65–80 ns for `permute` and
//! `rank` with the tables; computing the rounds instead costs ≈137 ns a
//! point lookup.

/// Slots the block walk compacts over at a time: the engine's block, and a
/// slot's place in it is a `u8`, so indexing a chunk needs no bounds check.
const CHUNK: usize = 1 << u8::BITS;

/// The widest half a permutation tabulates its rounds for: four rounds of
/// 2¹³ `u16` entries are 64 KiB, of which the 12-bit halves of a /10 fill
/// 32 KiB.
const TABLE_BITS: u32 = 13;
const TABLE_WIDTH: usize = 1 << TABLE_BITS;

/// `table[k][r] = round_fn(keys[k], r) & mask` for every half `r`.
type RoundTable = [[u16; TABLE_WIDTH]; 4];

/// Permutation over the domain `[0, n)`.
#[derive(Clone)]
pub struct FeistelPermutation {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
    /// The rounds tabulated, when a half is at most `TABLE_BITS` wide.
    table: Option<Box<RoundTable>>,
}

impl std::fmt::Debug for FeistelPermutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FeistelPermutation")
            .field("n", &self.n)
            .field("half_bits", &self.half_bits)
            .field("keys", &self.keys)
            .finish()
    }
}

fn round_fn(key: u64, right: u64) -> u64 {
    let mut z = right.wrapping_add(key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Cycle-walks the first `len` values of a chunk until each is below `end`,
/// in passes: each pass encrypts every value still outside once, stores it
/// to its slot, and keeps the slot for the next pass only if it is still
/// outside. The encryptions of a pass do not depend on each other, so they
/// overlap in the pipeline, and keeping a slot is a store and an add, not a
/// branch. A pass reads one pending list and writes the other: compacting
/// the list it reads puts a store, whose address waits on the encryption
/// before it, ahead of every later load from that list, and measured at
/// n = 2²² that walk took ≈ 1.5× as long (19 against 13 ns per address).
fn walk_chunk<T: Copy + PartialOrd>(
    values: &mut [T; CHUNK],
    len: usize,
    end: T,
    encrypt: impl Fn(T) -> T,
) {
    let (mut this, mut next) = (&mut [0u8; CHUNK], &mut [0u8; CHUNK]);
    for (slot, pending) in this[..len].iter_mut().enumerate() {
        *pending = slot as u8;
    }
    let mut walking = len;
    while walking > 0 {
        let mut kept = 0;
        for &slot in &this[..walking] {
            let slot = usize::from(slot);
            let y = encrypt(values[slot]);
            values[slot] = y;
            // `kept` is at most the slot count read so far, so the mask
            // only clears zeros and stands in for the bounds check.
            next[kept & (CHUNK - 1)] = slot as u8;
            kept += usize::from(y >= end);
        }
        walking = kept;
        std::mem::swap(&mut this, &mut next);
    }
}

impl FeistelPermutation {
    /// Builds a permutation over `[0, n)` keyed by `seed`.
    ///
    /// # Panics
    /// Panics when `n == 0` or `n > 2⁶³` (the walk domain is a power of four
    /// at least twice `n`, which has to fit in 64 bits).
    pub fn new(n: u64, seed: u64) -> Self {
        assert!(n > 0, "empty domain");
        assert!(
            n <= 1 << 63,
            "domain too large: a permutation covers at most 2^63 values"
        );
        // One bit more than `n - 1` needs (a power of two is its own
        // `next_power_of_two`), rounded up to an even width below: the walk
        // domain `4^half_bits` is 2–8× `n`. The tight width
        // `64 - (n - 1).leading_zeros()` would cut the cycle-walk from four
        // encryptions per index to one at `n = 2^22`, but it is a different
        // permutation — every sweep order and golden digest moves with it.
        let bits = 64 - n.next_power_of_two().leading_zeros();
        let half_bits = bits.div_ceil(2).max(1);
        let keys = [
            round_fn(seed, 1),
            round_fn(seed, 2),
            round_fn(seed, 3),
            round_fn(seed, 4),
        ];
        let table = (half_bits <= TABLE_BITS).then(|| {
            let mask = (1u64 << half_bits) - 1;
            let mut table: Box<RoundTable> = vec![[0; TABLE_WIDTH]; 4]
                .into_boxed_slice()
                .try_into()
                // Cannot fail: the slice was built with exactly four rows.
                .expect("four rounds");
            for (row, key) in table.iter_mut().zip(keys) {
                for (right, entry) in (0..=mask).zip(row.iter_mut()) {
                    *entry = (round_fn(key, right) & mask) as u16;
                }
            }
            table
        });
        FeistelPermutation {
            n,
            half_bits,
            keys,
            table,
        }
    }

    /// Round `k`'s function of the right half, masked to a half: read from
    /// the table when there is one.
    #[inline(always)]
    fn round(&self, k: usize, right: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        match &self.table {
            Some(table) => u64::from(table[k][(right & mask) as usize & (TABLE_WIDTH - 1)]),
            None => round_fn(self.keys[k], right) & mask,
        }
    }

    /// One encryption: the four Feistel rounds.
    fn encrypt_once(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut left, mut right) = (x >> self.half_bits, x & mask);
        for k in 0..4 {
            (left, right) = (right, left ^ self.round(k, right));
        }
        (left << self.half_bits) | right
    }

    fn decrypt_once(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let (mut left, mut right) = (x >> self.half_bits, x & mask);
        for k in (0..4).rev() {
            // Invert one round: forward did `new_left = right;
            // new_right = left ^ F(right)`, so `right = new_left` and
            // `left = new_right ^ F(new_left)`.
            (left, right) = (right ^ self.round(k, left), left);
        }
        (left << self.half_bits) | right
    }

    /// Maps index `i` (must be `< n`) to its permuted value in `[0, n)`.
    /// Cycle-walks values landing outside the domain back into it.
    pub fn permute(&self, i: u64) -> u64 {
        assert!(i < self.n, "index out of domain");
        let mut x = i;
        loop {
            x = self.encrypt_once(x);
            if x < self.n {
                return x;
            }
        }
    }

    /// The block walk: fills `out[k] = permute(lo + k)` for the whole slice,
    /// `CHUNK` slots at a time (see [`walk_chunk`]). With the rounds
    /// tabulated, the walk runs on values packed as `(left << 16) | right`:
    /// a round is then a rotate and one load, with no shift or mask by
    /// `half_bits`. Rotating by 16 swaps the halves; the load is keyed by the
    /// old right half, which is below 2¹³, so the index mask only clears
    /// zeros and stands in for the bounds check; XORing the entry into the
    /// low half makes the new right half. The packing keeps order (a right
    /// half is below 2¹⁶), so the domain check compares with `n` packed the
    /// same way. Each value is packed once and unpacked once.
    ///
    /// # Panics
    /// Panics when `lo + out.len()` exceeds `n` (checked once per block).
    pub fn permute_into(&self, lo: u64, out: &mut [u64]) {
        let len = out.len();
        assert!(
            u64::try_from(len).is_ok_and(|len| len <= self.n && lo <= self.n - len),
            "index out of domain"
        );
        let chunks = out.chunks_mut(CHUNK).zip((lo..).step_by(CHUNK));
        match &self.table {
            Some(table) => {
                let half_bits = self.half_bits;
                let mask = (1u64 << half_bits) - 1;
                // Both halves are at most `TABLE_BITS` wide, so a packed
                // value fits.
                let pack = |v: u64| (((v >> half_bits) << 16) | (v & mask)) as u32;
                let encrypt = |mut x: u32| {
                    for row in table.iter() {
                        x = x.rotate_left(16) ^ u32::from(row[x as usize & (TABLE_WIDTH - 1)]);
                    }
                    x
                };
                let mut packed = [0u32; CHUNK];
                for (chunk, lo) in chunks {
                    for (x, i) in packed.iter_mut().zip(lo..lo + chunk.len() as u64) {
                        *x = pack(i);
                    }
                    walk_chunk(&mut packed, chunk.len(), pack(self.n), encrypt);
                    for (v, &x) in chunk.iter_mut().zip(&packed) {
                        *v = (u64::from(x >> 16) << half_bits) | u64::from(x & 0xffff);
                    }
                }
            }
            None => {
                let mut values = [0u64; CHUNK];
                for (chunk, lo) in chunks {
                    for (x, i) in values.iter_mut().zip(lo..lo + chunk.len() as u64) {
                        *x = i;
                    }
                    walk_chunk(&mut values, chunk.len(), self.n, |x| self.encrypt_once(x));
                    chunk.copy_from_slice(&values[..chunk.len()]);
                }
            }
        }
    }

    /// The inverse of [`FeistelPermutation::permute`]: maps a permuted value
    /// `v` (must be `< n`) back to the scan index that produced it.
    /// Cycle-walking inverts symmetrically — decryptions landing outside the
    /// domain are walked again, retracing the forward walk in reverse.
    pub fn rank(&self, v: u64) -> u64 {
        assert!(v < self.n, "value out of domain");
        let mut x = v;
        loop {
            x = self.decrypt_once(x);
            if x < self.n {
                return x;
            }
        }
    }

    /// The domain size.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Never empty (constructor asserts).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterates the full permuted sequence.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.n).map(move |i| self.permute(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn is_a_permutation() {
        for n in [1u64, 2, 7, 100, 1000, 4096, 10_007] {
            let p = FeistelPermutation::new(n, 42);
            let seen: HashSet<u64> = p.iter().collect();
            assert_eq!(seen.len() as u64, n, "n={n}");
            assert!(seen.iter().all(|&v| v < n));
        }
    }

    #[test]
    fn seed_changes_order() {
        let a: Vec<u64> = FeistelPermutation::new(1000, 1).iter().collect();
        let b: Vec<u64> = FeistelPermutation::new(1000, 2).iter().collect();
        assert_ne!(a, b);
        let a2: Vec<u64> = FeistelPermutation::new(1000, 1).iter().collect();
        assert_eq!(a, a2, "deterministic per seed");
    }

    #[test]
    fn spreads_consecutive_indices() {
        // Consecutive scan indices should not map to consecutive addresses:
        // measure how many adjacent pairs stay adjacent.
        let p = FeistelPermutation::new(1 << 16, 7);
        let adjacent = (0..1000u64)
            .filter(|&i| p.permute(i).abs_diff(p.permute(i + 1)) == 1)
            .count();
        assert!(adjacent < 5, "{adjacent} adjacent pairs");
    }
}

#[cfg(test)]
mod extra_tests {
    use super::*;

    /// The full sweep of a realistic scan-space size stays a permutation
    /// (the cycle-walking bound holds far from powers of two).
    #[test]
    fn large_odd_domain() {
        let n = 3_333_337u64;
        let p = FeistelPermutation::new(n, 0x5eed);
        let mut seen = vec![false; 4096];
        // Spot check a window; full check would be slow in debug builds.
        for i in 0..4096 {
            let v = p.permute(i);
            assert!(v < n);
            if v < 4096 {
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn domain_of_one() {
        let p = FeistelPermutation::new(1, 9);
        assert_eq!(p.permute(0), 0);
        assert_eq!(p.len(), 1);
    }

    /// `rank` inverts `permute` across domain sizes and seeds, including the
    /// cycle-walking cases far from powers of two.
    #[test]
    fn rank_inverts_permute() {
        for n in [1u64, 2, 7, 100, 1000, 4096, 10_007, 1_000_003] {
            for seed in [1u64, 42, 0x5eed] {
                let p = FeistelPermutation::new(n, seed);
                for i in (0..n).step_by((n as usize / 512).max(1)) {
                    let v = p.permute(i);
                    assert_eq!(p.rank(v), i, "n={n} seed={seed} i={i}");
                    assert_eq!(p.permute(p.rank(i)), i, "round trip via rank");
                }
            }
        }
    }

    /// The block walk is `permute` a block at a time: same values, same
    /// slots, for block lengths around one and two chunks (the engine's
    /// block is one), at the head, the middle and the very end of the domain.
    #[test]
    fn block_walk_matches_point_lookups() {
        for n in [1u64, 2, 7, 100, 1000, 4096, 10_007, 1_000_003, 1 << 22] {
            for seed in [1u64, 42, 0x5eed] {
                let p = FeistelPermutation::new(n, seed);
                for len in [0, 1, 7, 8, 9, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1] {
                    let len = len.min(n as usize);
                    let tail = n - len as u64;
                    for lo in [0, tail / 2, tail] {
                        let mut out = vec![u64::MAX; len];
                        p.permute_into(lo, &mut out);
                        for (i, &v) in (lo..).zip(&out) {
                            assert_eq!(v, p.permute(i), "n={n} seed={seed} lo={lo} len={len}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "index out of domain")]
    fn block_past_the_domain_is_rejected() {
        let p = FeistelPermutation::new(1000, 3);
        let mut out = [0u64; 16];
        p.permute_into(1000 - 15, &mut out);
    }

    /// 2^63 is the largest domain whose walk domain (2^64) fits.
    #[test]
    fn largest_domain_round_trips() {
        let p = FeistelPermutation::new(1 << 63, 0x5eed);
        let mut out = [0u64; 9];
        p.permute_into((1 << 63) - out.len() as u64, &mut out);
        for (i, &v) in ((1u64 << 63) - out.len() as u64..).zip(&out) {
            assert!(v < 1 << 63);
            assert_eq!(v, p.permute(i));
            assert_eq!(p.rank(v), i);
        }
    }

    /// The cipher built from `round_fn` alone, rounds computed, never read
    /// from a table: the definition the tabulated rounds must reproduce.
    fn reference_encrypt(p: &FeistelPermutation, x: u64) -> u64 {
        let mask = (1u64 << p.half_bits) - 1;
        let (mut left, mut right) = (x >> p.half_bits, x & mask);
        for key in p.keys {
            (left, right) = (right, left ^ (round_fn(key, right) & mask));
        }
        (left << p.half_bits) | right
    }

    fn reference_decrypt(p: &FeistelPermutation, x: u64) -> u64 {
        let mask = (1u64 << p.half_bits) - 1;
        let (mut left, mut right) = (x >> p.half_bits, x & mask);
        for key in p.keys.iter().rev() {
            (left, right) = (right ^ (round_fn(*key, left) & mask), left);
        }
        (left << p.half_bits) | right
    }

    fn reference_walk(
        p: &FeistelPermutation,
        step: fn(&FeistelPermutation, u64) -> u64,
        i: u64,
    ) -> u64 {
        let mut x = step(p, i);
        while x >= p.n {
            x = step(p, x);
        }
        x
    }

    /// `permute_into`, `permute` and `rank` equal the reference walk at
    /// every half width from 1 (the 4-value walk domain of `n = 1`) to one
    /// past the table cut-off, at the smallest, a middle and the largest
    /// domain of each width, at three odd sizes, and at the /10 every
    /// benchmark sweep walks. The packed walk's packing depends on the
    /// width, so every width is reached.
    #[test]
    fn tabulated_rounds_equal_the_definition() {
        let largest_tabulated = 1u64 << (2 * TABLE_BITS - 1);
        let mut domains = vec![7, 1000, 10_007, 1 << 22];
        for half_bits in 1..=TABLE_BITS + 1 {
            // A half width of `h` serves `2^(2h-3) < n <= 2^(2h-1)`.
            let widest = 1u64 << (2 * half_bits - 1);
            let smallest = widest / 4 + 1;
            domains.extend([smallest, ((smallest + widest) / 2) | 1, widest]);
            for n in [smallest, widest] {
                assert_eq!(FeistelPermutation::new(n, 0).half_bits, half_bits, "n={n}");
            }
        }
        for n in domains {
            for seed in [1u64, 0x5eed] {
                let p = FeistelPermutation::new(n, seed);
                assert_eq!(p.table.is_some(), n <= largest_tabulated, "n={n}");
                let step = (n / 2048).max(1);
                for i in (0..n).step_by(step as usize) {
                    assert_eq!(
                        p.permute(i),
                        reference_walk(&p, reference_encrypt, i),
                        "n={n} i={i}"
                    );
                    assert_eq!(
                        p.rank(i),
                        reference_walk(&p, reference_decrypt, i),
                        "n={n} v={i}"
                    );
                }
                let len = n.min(257);
                for lo in [0, (n - len) / 2, n - len] {
                    let mut out = vec![u64::MAX; len as usize];
                    p.permute_into(lo, &mut out);
                    for (i, &v) in (lo..).zip(&out) {
                        assert_eq!(v, reference_walk(&p, reference_encrypt, i), "n={n} lo={lo}");
                    }
                }
            }
        }
    }

    /// At one tabulated size the block walk over the whole domain is the
    /// reference permutation, a bijection, and `rank` undoes it everywhere.
    #[test]
    fn tabulated_walk_is_the_reference_bijection() {
        let n = 100_003u64;
        let p = FeistelPermutation::new(n, 0x9000);
        assert!(p.table.is_some());
        let mut out = vec![0u64; n as usize];
        p.permute_into(0, &mut out);
        let mut seen = vec![false; n as usize];
        for (i, &v) in (0..).zip(&out) {
            assert_eq!(v, reference_walk(&p, reference_encrypt, i), "i={i}");
            assert!(!std::mem::replace(&mut seen[v as usize], true), "{v} twice");
            assert_eq!(p.rank(v), i);
        }
    }

    /// ns per address of the block walk, `permute` and `rank` at the /10 the
    /// benchmark sweeps walk (n = 2²²); prints, asserts nothing. Run with
    /// `cargo test --release -p zmapq -- --ignored --nocapture feistel_speed`.
    #[test]
    #[ignore = "micro-benchmark: prints timings, meaningful in release builds only"]
    fn feistel_speed() {
        use std::hint::black_box;
        use std::time::Instant;
        let n = 1u64 << 22;
        let p = FeistelPermutation::new(n, 7);
        let per_address_ns = |addresses: u64, op: &mut dyn FnMut()| {
            (0..5)
                .map(|_| {
                    let start = Instant::now();
                    op();
                    start.elapsed().as_secs_f64() * 1e9 / addresses as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let mut block = [0u64; 256];
        let walk = per_address_ns(n, &mut || {
            for lo in (0..n).step_by(block.len()) {
                p.permute_into(lo, &mut block);
                // Every lane's stores are read, so none is dead code.
                black_box(&mut block);
            }
        });
        let points = 1u64 << 20;
        let permute = per_address_ns(points, &mut || {
            for i in 0..points {
                black_box(p.permute(black_box(i)));
            }
        });
        let rank = per_address_ns(points, &mut || {
            for v in 0..points {
                black_box(p.rank(black_box(v)));
            }
        });
        println!(
            "feistel n=2^22: permute_into {walk:.1} ns/address, permute {permute:.1} ns, rank {rank:.1} ns"
        );
    }

    /// Past 2^63 `next_power_of_two` would overflow: a panic without a
    /// message in debug builds, and in release builds a zero, hence
    /// `half_bits` 1 and a `permute` that is no bijection or never returns.
    #[test]
    #[should_panic(expected = "domain too large")]
    fn oversized_domain_is_rejected() {
        FeistelPermutation::new((1 << 63) + 1, 0);
    }
}
