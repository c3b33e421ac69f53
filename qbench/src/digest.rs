//! Output digests. Results are deterministic per seed, so a 64-bit digest of
//! an output's `{:?}` text is enough to tell "same tables" from "not".

use std::fmt::Debug;

/// FNV-1a, as `WeeklySnapshot::fingerprint` uses: stable across processes
/// and platforms, unlike `DefaultHasher`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Digest of a value's `{:?}` text. Map-valued outputs must be sorted into
/// a `Vec` or `BTreeMap` first: `HashMap` prints in a per-process order.
pub fn of_debug<T: Debug>(value: &T) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn debug_digest_tells_values_apart() {
        assert_eq!(of_debug(&vec![(1, "a")]), of_debug(&vec![(1, "a")]));
        assert_ne!(of_debug(&vec![(1, "a")]), of_debug(&vec![(1, "b")]));
    }
}
