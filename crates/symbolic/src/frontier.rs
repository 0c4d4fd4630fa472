//! Frontier-size profiling — the measurement behind the paper's Figure 3
//! and the justification for Algorithm 4's two-part split.

use crate::fill2::Traversals;
use gplu_sparse::Csr;

/// Per-row frontier counts for the whole matrix (exact profile).
pub fn frontier_profile(a: &Csr) -> Vec<u64> {
    let traversals = Traversals::new(a);
    traversals.traverse_all();
    (0..a.n_rows() as u32)
        .map(|src| traversals.row(src).frontiers)
        .collect()
}

/// Buckets a per-row profile into `iterations` chunks of consecutive rows
/// (the out-of-core iterations of Figure 3's x-axis), reporting the
/// maximum frontier count in each.
pub fn bucket_max(profile: &[u64], iterations: usize) -> Vec<u64> {
    if profile.is_empty() || iterations == 0 {
        return Vec::new();
    }
    let chunk = profile.len().div_ceil(iterations);
    profile
        .chunks(chunk)
        .map(|c| c.iter().copied().max().unwrap_or(0))
        .collect()
}

/// The paper's split criterion: the first row index whose frontier count
/// exceeds `fraction` of the profile's maximum (`n1` in Algorithm 4).
pub fn split_point(profile: &[u64], fraction: f64) -> usize {
    let max = profile.iter().copied().max().unwrap_or(0);
    let threshold = (max as f64 * fraction) as u64;
    profile
        .iter()
        .position(|&f| f > threshold)
        .unwrap_or(profile.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gplu_sparse::gen::random::banded_dominant;

    #[test]
    fn banded_profile_grows_with_row_id() {
        let a = banded_dominant(600, 5, 3);
        let p = frontier_profile(&a);
        let early: u64 = p[..100].iter().sum();
        let late: u64 = p[500..].iter().sum();
        assert!(
            late > early,
            "frontier work must grow with row id: {early} vs {late}"
        );
    }

    #[test]
    fn bucket_max_shapes() {
        let p = vec![1, 2, 3, 9, 5, 6];
        assert_eq!(bucket_max(&p, 3), vec![2, 9, 6]);
        assert_eq!(bucket_max(&p, 1), vec![9]);
        assert!(bucket_max(&[], 4).is_empty());
    }

    #[test]
    fn split_point_on_half_max() {
        let p = vec![0, 1, 2, 10, 10, 10];
        assert_eq!(split_point(&p, 0.5), 3);
        // All below threshold -> split at the end (single part).
        assert_eq!(split_point(&[1, 1, 1], 1.0), 3);
    }
}
