//! Theorem-1 error bounds from live operator state.
//!
//! The bound `|y_a − y_e| ≤ 2·Φ⁻¹(α/2)·√(φ(1−φ)) / (√(nm)·f(p_φ))`
//! needs the data density at the target quantile. The operator estimates
//! it non-parametrically from the sub-window that just completed, using
//! the symmetric finite difference
//!
//! ```text
//! f(p_φ) ≈ 2h / (q(φ+h) − q(φ−h))
//! ```
//!
//! — the probability mass `2h` between two empirical quantiles divided
//! by the value distance between them. This only has to be right to a
//! small factor: it scales a confidence interval, not the answer.
//!
//! Distributed note: the `n·m` accounting (n sub-windows of m elements)
//! survives distributed execution unchanged — a sub-window assembled by
//! merging shard summaries (`FreqStoreImpl::merge_sorted_counts` under
//! `Qlove::merge`) holds exactly the same `m = period` elements as the
//! single-instance sub-window, and the density is estimated from the
//! merged store, so the reported bound is the per-instance bound.

use qlove_freqstore::FreqStore;
use qlove_stats::error_bound::{clt_error_bound, CltBound};

/// Density estimate `f(p_φ)` from a frequency store via symmetric
/// finite differences with half-width `h = min(0.05, φ/2, (1−φ)/2)`.
///
/// Generic over the Level-1 backend ([`FreqStore`]): the sorted-run
/// store, the dense direct-indexed store and the red-black tree all
/// answer the two flanking quantiles under the same rank convention,
/// so the estimate — and the bound built on it — is backend-independent
/// bit for bit.
///
/// Returns `None` when the store is empty, the quantile is degenerate,
/// or the two flanking quantiles coincide (point mass → the CLT bound
/// does not apply; the answer there is exact anyway).
pub fn density_at_quantile<S: FreqStore>(store: &S, phi: f64) -> Option<f64> {
    if store.is_empty() || !(0.0 < phi && phi < 1.0) {
        return None;
    }
    let h = (0.05f64).min(phi / 2.0).min((1.0 - phi) / 2.0);
    if h <= 0.0 {
        return None;
    }
    let lo = store.quantile(phi - h)? as f64;
    let hi = store.quantile(phi + h)? as f64;
    if hi <= lo {
        return None;
    }
    Some(2.0 * h / (hi - lo))
}

/// Theorem-1 bound for a window of `n_subwindows × m_per_subwindow`
/// points whose freshest sub-window is summarized by `store`.
pub fn bound_from_store<S: FreqStore>(
    store: &S,
    phi: f64,
    n_subwindows: usize,
    m_per_subwindow: usize,
    alpha: f64,
) -> Option<CltBound> {
    let f = density_at_quantile(store, phi)?;
    clt_error_bound(phi, n_subwindows, m_per_subwindow, f, alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qlove_freqstore::{DenseFreqStore, FreqTree};

    fn uniform_tree(n: u64) -> FreqTree<u64> {
        let mut t = FreqTree::new();
        for v in 0..n {
            t.insert(v, 1);
        }
        t
    }

    #[test]
    fn uniform_density_is_flat_and_correct() {
        // Uniform on 0..10_000 → density 1e-4 everywhere.
        let t = uniform_tree(10_000);
        for &phi in &[0.25, 0.5, 0.9] {
            let f = density_at_quantile(&t, phi).unwrap();
            assert!((f - 1e-4).abs() < 2e-5, "phi={phi}: f={f}");
        }
    }

    #[test]
    fn skewed_tree_has_sparser_tail_density() {
        // Dense body, sparse tail: tail density must come out smaller.
        let mut t = FreqTree::new();
        for v in 0..10_000u64 {
            t.insert(500 + v % 100, 1); // dense body
        }
        for v in 0..100u64 {
            t.insert(10_000 + v * 500, 1); // sparse tail
        }
        let body = density_at_quantile(&t, 0.5).unwrap();
        let tail = density_at_quantile(&t, 0.995).unwrap();
        assert!(body > tail * 10.0, "body {body} vs tail {tail}");
    }

    #[test]
    fn degenerate_cases_yield_none() {
        let empty: FreqTree<u64> = FreqTree::new();
        assert!(density_at_quantile(&empty, 0.5).is_none());
        let t = uniform_tree(100);
        assert!(density_at_quantile(&t, 0.0).is_none());
        assert!(density_at_quantile(&t, 1.0).is_none());
        // Point mass: flanking quantiles coincide.
        let mut point = FreqTree::new();
        point.insert(7, 1000);
        assert!(density_at_quantile(&point, 0.5).is_none());
    }

    #[test]
    fn bound_shrinks_with_more_subwindows() {
        let t = uniform_tree(10_000);
        let few = bound_from_store(&t, 0.5, 2, 10_000, 0.05).unwrap();
        let many = bound_from_store(&t, 0.5, 32, 10_000, 0.05).unwrap();
        assert!(many.half_width < few.half_width);
        assert!((few.half_width / many.half_width - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bound_is_invariant_under_tree_merge() {
        // Build one sub-window two ways: a single tree over the whole
        // stream, and a merge of three disjoint shard trees. The density
        // estimate — and therefore the Theorem-1 bound — must coincide.
        let data: Vec<u64> = (0..9_000u64).map(|i| (i * 7919) % 4096).collect();
        let mut single = FreqTree::new();
        let mut shards = [FreqTree::new(), FreqTree::new(), FreqTree::new()];
        for (i, &v) in data.iter().enumerate() {
            single.insert(v, 1);
            shards[i % 3].insert(v, 1);
        }
        let mut merged = FreqTree::new();
        for shard in &shards {
            merged.merge_from(shard);
        }
        for &phi in &[0.5, 0.9, 0.99] {
            assert_eq!(
                density_at_quantile(&merged, phi),
                density_at_quantile(&single, phi),
                "phi = {phi}"
            );
            let a = bound_from_store(&merged, phi, 8, data.len(), 0.05);
            let b = bound_from_store(&single, phi, 8, data.len(), 0.05);
            assert_eq!(a.is_some(), b.is_some());
            if let (Some(a), Some(b)) = (a, b) {
                assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
            }
        }
    }

    #[test]
    fn bounds_agree_across_backends() {
        // The same quantized multiset in a tree and a dense store must
        // yield bit-identical density estimates and bounds.
        let mut tree = FreqTree::new();
        let mut dense = DenseFreqStore::new(3);
        for v in (0..12_000u64).map(|i| (i * 2654435761) % 100_000) {
            let q = dense.quantize(v);
            FreqStore::insert(&mut tree, q, 1);
            dense.insert(q, 1);
        }
        for &phi in &[0.5, 0.9, 0.99, 0.999] {
            assert_eq!(
                density_at_quantile(&tree, phi),
                density_at_quantile(&dense, phi),
                "phi = {phi}"
            );
            let a = bound_from_store(&tree, phi, 10, 12_000, 0.05);
            let b = bound_from_store(&dense, phi, 10, 12_000, 0.05);
            assert_eq!(
                a.map(|x| x.half_width.to_bits()),
                b.map(|x| x.half_width.to_bits())
            );
        }
    }

    #[test]
    fn bound_matches_manual_computation() {
        // Uniform 0..10_000, φ=0.5, f=1e-4, n=8, m=10_000:
        // eb = 2·1.96·0.5/(√80000·1e-4) ≈ 69.3.
        let t = uniform_tree(10_000);
        let b = bound_from_store(&t, 0.5, 8, 10_000, 0.05).unwrap();
        assert!(
            (b.half_width - 69.3).abs() / 69.3 < 0.15,
            "half width {}",
            b.half_width
        );
    }
}
