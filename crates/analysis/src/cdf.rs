//! AS-rank CDFs (Figures 4 and 8): rank ASes by how many addresses/targets
//! they hold, then cumulate shares.

use std::hash::Hash;

use crate::stream::CountMap;

/// Computes the CDF over AS rank from per-item AS attributions.
/// Returns (rank, cumulative_share) for every rank 1..=#ASes: the items
/// folded into a [`CountMap`], whose [`CountMap::as_rank_cdf`] is the one
/// implementation the buffered and the streaming figures share.
pub fn as_rank_cdf<K: Eq + Hash>(as_of_items: impl Iterator<Item = K>) -> Vec<(usize, f64)> {
    let mut counts = CountMap::new();
    for k in as_of_items {
        counts.absorb(k);
    }
    counts.as_rank_cdf()
}

/// Samples a CDF at a rank (for summary assertions): share covered by the
/// top `rank` ASes, clamped to the final value.
pub fn share_at_rank(cdf: &[(usize, f64)], rank: usize) -> f64 {
    if cdf.is_empty() {
        return 0.0;
    }
    cdf.iter()
        .take_while(|(r, _)| *r <= rank)
        .last()
        .map(|(_, s)| *s)
        .unwrap_or(cdf[0].1.min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentrated_distribution() {
        // 70 items in AS 1, 20 in AS 2, 10 spread over 10 ASes.
        let items = std::iter::repeat_n(1u32, 70)
            .chain(std::iter::repeat_n(2, 20))
            .chain(3..13);
        let cdf = as_rank_cdf(items);
        assert_eq!(cdf.len(), 12);
        assert!((share_at_rank(&cdf, 1) - 0.70).abs() < 1e-9);
        assert!((share_at_rank(&cdf, 2) - 0.90).abs() < 1e-9);
        assert!((share_at_rank(&cdf, 12) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniform_distribution() {
        let cdf = as_rank_cdf(0..100u32);
        assert!((share_at_rank(&cdf, 50) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty() {
        let cdf = as_rank_cdf(std::iter::empty::<u32>());
        assert!(cdf.is_empty());
        assert_eq!(share_at_rank(&cdf, 5), 0.0);
    }
}
