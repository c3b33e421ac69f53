//! A keyed pseudorandom permutation over `[0, n)` via a balanced Feistel
//! network with cycle walking — the property ZMap gets from iterating a
//! multiplicative group: every address visited exactly once, in an order
//! that spreads load across target networks.
//!
//! The cipher has two callers with opposite needs. A point lookup
//! ([`FeistelPermutation::permute`], [`FeistelPermutation::rank`]) wants one
//! answer and waits for it: four rounds of three *dependent* 64-bit
//! multiplies, repeated until the value lands inside the domain, is one long
//! latency chain. A sweep wants every answer and does not care in which
//! order they are computed, so [`FeistelPermutation::permute_into`] keeps
//! several independent cycle-walks (`LANES`) in flight and steps them
//! together: the multiplier issues one operation per cycle, and a single
//! chain uses a third of that. Both forms instantiate the same
//! `rounds::<L>`, so there is one cipher, and the scalar form is the
//! definition the block walk is tested against.

/// Cycle-walks a block walk keeps in flight. Eight measured best on the
/// 2-core Xeon guest: ≈32 ns per address at n = 2²² against ≈95 ns for the
/// scalar walk; four lanes leave the multiplier idle (≈44 ns), ten and
/// twelve read the same as eight (33–35 ns), sixteen spill too many
/// registers (≈52 ns).
const LANES: usize = 8;

/// Permutation over the domain `[0, n)`.
#[derive(Debug, Clone)]
pub struct FeistelPermutation {
    n: u64,
    half_bits: u32,
    keys: [u64; 4],
}

fn round_fn(key: u64, right: u64) -> u64 {
    let mut z = right.wrapping_add(key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
        FeistelPermutation { n, half_bits, keys }
    }

    /// The cipher: one pass of the four Feistel rounds over `L` independent
    /// values, round by round across all of them with no branch in between.
    /// `L = 1` is the scalar definition, `L = LANES` one step of the block
    /// walk.
    #[inline(always)]
    fn rounds<const L: usize>(&self, x: [u64; L]) -> [u64; L] {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = x.map(|v| v >> self.half_bits);
        let mut right = x.map(|v| v & mask);
        for key in self.keys {
            for (left, right) in left.iter_mut().zip(&mut right) {
                let new_right = *left ^ (round_fn(key, *right) & mask);
                *left = *right;
                *right = new_right;
            }
        }
        std::array::from_fn(|l| (left[l] << self.half_bits) | right[l])
    }

    fn encrypt_once(&self, x: u64) -> u64 {
        self.rounds([x])[0]
    }

    fn decrypt_once(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = x >> self.half_bits;
        let mut right = x & mask;
        for key in self.keys.iter().rev() {
            // Invert one round: forward did `new_left = right;
            // new_right = left ^ F(right)`, so `right = new_left` and
            // `left = new_right ^ F(new_left)`.
            let prev_right = left;
            let prev_left = right ^ (round_fn(*key, prev_right) & mask);
            left = prev_left;
            right = prev_right;
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

    /// The block walk: fills `out[k] = permute(lo + k)` for the whole slice.
    ///
    /// Each of `LANES` lanes carries the cycle-walk of one index, and every
    /// step encrypts all lanes at once. A lane whose value landed in `[0, n)`
    /// is handed the next index of the block straight away, so no lane idles
    /// while another is on a long walk. Every step stores every lane's value
    /// to its slot without asking whether the walk is over — the last store
    /// to a slot is the one that landed in the domain. Once the block has no
    /// index left, a lane that lands is handed a slot past the block's end:
    /// it keeps walking, into a spare word nobody reads.
    ///
    /// # Panics
    /// Panics when `lo + out.len()` exceeds `n` (checked once per block).
    pub fn permute_into(&self, lo: u64, out: &mut [u64]) {
        let len = out.len();
        assert!(
            u64::try_from(len).is_ok_and(|len| len <= self.n && lo <= self.n - len),
            "index out of domain"
        );
        // A lane is live while its slot is inside the block; `next` counts
        // slots handed out, so `next - LANES` walks have landed.
        let mut next = LANES;
        let mut slot: [usize; LANES] = std::array::from_fn(|l| l);
        let mut x: [u64; LANES] = std::array::from_fn(|l| lo + l as u64);
        let mut spare = 0u64;
        while next < len + LANES {
            let y = self.rounds(x);
            for l in 0..LANES {
                let live = slot[l] < len;
                *out.get_mut(slot[l]).unwrap_or(&mut spare) = y[l];
                let landed = live & (y[l] < self.n);
                (x[l], slot[l]) = if landed {
                    (lo + next as u64, next)
                } else {
                    (y[l], slot[l])
                };
                next += usize::from(landed);
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
    /// slots, for block lengths around the lane count and the engine's block
    /// size, at the head, the middle and the very end of the domain.
    #[test]
    fn block_walk_matches_point_lookups() {
        for n in [1u64, 2, 7, 100, 1000, 4096, 10_007, 1_000_003, 1 << 22] {
            for seed in [1u64, 42, 0x5eed] {
                let p = FeistelPermutation::new(n, seed);
                for len in [0, 1, LANES - 1, LANES, LANES + 1, 255, 256, 257] {
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
        let mut out = [0u64; LANES + 1];
        p.permute_into((1 << 63) - out.len() as u64, &mut out);
        for (i, &v) in ((1u64 << 63) - out.len() as u64..).zip(&out) {
            assert!(v < 1 << 63);
            assert_eq!(v, p.permute(i));
            assert_eq!(p.rank(v), i);
        }
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
