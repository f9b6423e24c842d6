//! Operator configuration.

/// Few-k merging parameters (§4.2–§4.3).
///
/// Budgets are expressed as *fractions of the exact tail requirement*
/// `N(1−φ)` — the caching size that would guarantee an exact answer —
/// matching how the paper parameterizes Tables 3 and 4. Per sub-window:
///
/// * `kt = ⌈topk_fraction · N(1−φ)⌉` largest values cached for top-k
///   merging (statistical inefficiency);
/// * `ks = ⌈samplek_fraction · N(1−φ)⌉` rank-interval samples of the
///   sub-window's own `N(1−φ)` largest values for sample-k merging
///   (bursty traffic), at sampling rate `α = ks / N(1−φ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FewKConfig {
    /// Top-k budget as a fraction of `N(1−φ)` per sub-window.
    pub topk_fraction: f64,
    /// Sample-k budget as a fraction of `N(1−φ)` per sub-window.
    pub samplek_fraction: f64,
    /// Statistical-inefficiency threshold `Ts`: top-k output is used for
    /// a quantile when `P(1−φ) < Ts`. Paper sets 10 (§4.3).
    pub ts: f64,
    /// Significance level of the Mann-Whitney burst detector (§4.3).
    /// The operator Bonferroni-corrects this per boundary (÷ 4·n_sub:
    /// two reference comparisons × two tests, persisting over n_sub
    /// evaluations); the detection itself runs on cached per-sub-window
    /// tail stats, so its boundary cost is linear in the sample budget
    /// `ks` — raising `samplek_fraction` no longer buys an
    /// `O(ks log ks)` re-sort per boundary.
    pub burst_alpha: f64,
    /// Few-k applies only to quantiles at or above this fraction — the
    /// paper's "high quantiles" (its examples are Q0.99 and Q0.999;
    /// central quantiles are already served well by Level 2 and their
    /// wide tails would make the caches enormous).
    pub min_phi: f64,
}

impl FewKConfig {
    /// The paper's automatic budget split (§4.2 "Deciding kt"): `kt`
    /// sized for evenly-spread tails (`kt = P(1−φ)`, i.e. a fraction
    /// `P/N` of the exact requirement — the E4 assumption; `conservative`
    /// assumes E2 and doubles it), and a half-fraction sample budget
    /// since "ks is typically larger than kt".
    pub fn auto(window: usize, period: usize, conservative: bool) -> Self {
        let base = period as f64 / window as f64;
        Self {
            topk_fraction: if conservative { 2.0 * base } else { base },
            samplek_fraction: 0.5,
            ts: 10.0,
            burst_alpha: 0.05,
            min_phi: 0.99,
        }
    }

    /// Explicit fractions (how Tables 3 and 4 sweep the budgets).
    pub fn with_fractions(topk_fraction: f64, samplek_fraction: f64) -> Self {
        Self {
            topk_fraction,
            samplek_fraction,
            ts: 10.0,
            burst_alpha: 0.05,
            min_phi: 0.99,
        }
    }

    fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.topk_fraction),
            "topk_fraction must lie in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.samplek_fraction),
            "samplek_fraction must lie in [0, 1]"
        );
        assert!(self.ts >= 0.0, "Ts must be non-negative");
        assert!(
            self.burst_alpha > 0.0 && self.burst_alpha < 1.0,
            "burst significance must lie in (0, 1)"
        );
        assert!(
            (0.5..=1.0).contains(&self.min_phi),
            "min_phi must lie in [0.5, 1]"
        );
    }
}

/// Which Level-1 frequency-store implementation backs sub-window state.
///
/// Level-1 state is a frequency multiset; two structurally different
/// stores implement it with identical semantics (answers are
/// bit-identical either way — locked by `tests/proptest_backend.rs`):
///
/// * **Tree** — the sorted-run store
///   (`qlove_freqstore::SortedRunStore`): inserts append to a log that
///   is sorted into `(key, cumulative count)` runs once per sub-window,
///   boundary queries are binary searches, memory is proportional to
///   the elements of one sub-window, and any key domain works. The
///   right choice when quantization is off. (The variant keeps its name
///   and wire code from when a red-black tree backed it.)
/// * **Dense** — the flat direct-indexed array
///   (`qlove_freqstore::DenseFreqStore`): `O(1)` inserts, prefix-scan
///   quantiles, slice-add merges, but memory proportional to the
///   *quantized domain* (≤ 130 KB at 3 significant digits) regardless
///   of occupancy. Only meaningful when quantization bounds the domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Pick automatically: dense when quantization is on with at most
    /// [`Backend::AUTO_DENSE_MAX_DIGITS`] significant digits (the
    /// paper's 3-digit default qualifies), tree otherwise.
    #[default]
    Auto,
    /// Always the sorted-run store.
    Tree,
    /// Always the flat dense store; requires quantization (validation
    /// rejects the combination with `sig_digits: None`).
    Dense,
}

impl Backend {
    /// Largest significant-digit setting for which `Auto` chooses the
    /// dense store. At 4 digits the index domain is 154 000 slots
    /// (~1.2 MB); beyond that the flat array stops being obviously
    /// cheap and the choice must be explicit.
    pub const AUTO_DENSE_MAX_DIGITS: u32 = 4;
}

/// Full QLOVE operator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QloveConfig {
    /// Quantile fractions to answer every evaluation (fixed for the
    /// query's lifetime — the monitoring assumption QLOVE leverages).
    pub phis: Vec<f64>,
    /// Window size `N` in elements.
    pub window: usize,
    /// Window period `P` in elements (also the sub-window size, §3.1).
    pub period: usize,
    /// Significant decimal digits kept by value quantization (§3.1's
    /// "three most significant digits"); `None` disables quantization.
    pub sig_digits: Option<u32>,
    /// Few-k merging setup; `None` runs the pure §3 algorithm (how §5.2
    /// evaluates before §5.3 switches few-k on).
    pub fewk: Option<FewKConfig>,
    /// Level-1 frequency-store backend selection.
    pub backend: Backend,
}

impl QloveConfig {
    /// Defaults from the paper: 3-significant-digit quantization, few-k
    /// with the automatic budget split.
    pub fn new(phis: &[f64], window: usize, period: usize) -> Self {
        Self {
            phis: phis.to_vec(),
            window,
            period,
            sig_digits: Some(3),
            fewk: Some(FewKConfig::auto(window, period, false)),
            backend: Backend::Auto,
        }
    }

    /// §3-only variant: no few-k merging (used by Table 2 and §5.2).
    pub fn without_fewk(phis: &[f64], window: usize, period: usize) -> Self {
        Self {
            fewk: None,
            ..Self::new(phis, window, period)
        }
    }

    /// Builder-style: replace the few-k configuration.
    pub fn fewk(mut self, fewk: Option<FewKConfig>) -> Self {
        self.fewk = fewk;
        self
    }

    /// Builder-style: set or disable quantization.
    pub fn quantize(mut self, sig_digits: Option<u32>) -> Self {
        self.sig_digits = sig_digits;
        self
    }

    /// Builder-style: pin the Level-1 store backend (default
    /// [`Backend::Auto`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The backend [`Backend::Auto`] resolves to under this
    /// configuration — never `Auto` itself.
    pub fn resolved_backend(&self) -> Backend {
        match (self.backend, self.sig_digits) {
            (Backend::Auto, Some(d)) if d <= Backend::AUTO_DENSE_MAX_DIGITS => Backend::Dense,
            (Backend::Auto, _) => Backend::Tree,
            (explicit, _) => explicit,
        }
    }

    /// Number of sub-windows `n = N/P`.
    pub fn subwindows(&self) -> usize {
        self.window / self.period
    }

    /// Panic on invalid parameter combinations (called by the operator
    /// constructor so every entry point validates).
    pub fn validate(&self) {
        assert!(!self.phis.is_empty(), "need at least one quantile");
        assert!(
            self.phis.iter().all(|p| (0.0..=1.0).contains(p)),
            "quantile fractions must lie in [0, 1]"
        );
        assert!(self.period > 0, "period must be positive");
        assert!(
            self.window >= self.period && self.window.is_multiple_of(self.period),
            "window must be a positive multiple of period (sub-windows \
             align with the period, §3.1)"
        );
        if let Some(d) = self.sig_digits {
            assert!(d > 0, "need at least one significant digit");
        }
        if self.backend == Backend::Dense {
            let digits = self
                .sig_digits
                .expect("dense backend requires quantization (sig_digits)");
            assert!(
                digits <= qlove_freqstore::DenseFreqStore::MAX_SIG_DIGITS,
                "dense backend supports at most {} significant digits",
                qlove_freqstore::DenseFreqStore::MAX_SIG_DIGITS
            );
        }
        if let Some(f) = &self.fewk {
            f.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = QloveConfig::new(&[0.5, 0.999], 128_000, 16_000);
        assert_eq!(c.sig_digits, Some(3));
        assert_eq!(c.subwindows(), 8);
        let f = c.fewk.unwrap();
        assert_eq!(f.ts, 10.0);
        assert_eq!(f.burst_alpha, 0.05);
        // auto kt fraction = P/N.
        assert!((f.topk_fraction - 0.125).abs() < 1e-12);
    }

    #[test]
    fn conservative_doubles_topk() {
        let a = FewKConfig::auto(100_000, 10_000, false);
        let b = FewKConfig::auto(100_000, 10_000, true);
        assert!((b.topk_fraction - 2.0 * a.topk_fraction).abs() < 1e-12);
    }

    #[test]
    fn builder_methods() {
        let c = QloveConfig::new(&[0.5], 1000, 100)
            .quantize(None)
            .fewk(Some(FewKConfig::with_fractions(0.1, 0.5)));
        assert_eq!(c.sig_digits, None);
        assert_eq!(c.fewk.unwrap().topk_fraction, 0.1);
    }

    #[test]
    fn auto_backend_follows_quantization() {
        let c = QloveConfig::new(&[0.5], 1000, 100);
        assert_eq!(c.backend, Backend::Auto);
        assert_eq!(c.resolved_backend(), Backend::Dense);
        assert_eq!(c.clone().quantize(None).resolved_backend(), Backend::Tree);
        // Auto falls back to the tree when the quantized domain is wide.
        assert_eq!(
            c.clone().quantize(Some(5)).resolved_backend(),
            Backend::Tree
        );
        assert_eq!(
            c.clone().quantize(Some(4)).resolved_backend(),
            Backend::Dense
        );
        // Explicit choices always win.
        assert_eq!(
            c.clone().backend(Backend::Tree).resolved_backend(),
            Backend::Tree
        );
        let d = c.quantize(Some(5)).backend(Backend::Dense);
        assert_eq!(d.resolved_backend(), Backend::Dense);
        d.validate();
    }

    #[test]
    #[should_panic(expected = "dense backend requires quantization")]
    fn validate_rejects_dense_without_quantization() {
        QloveConfig::new(&[0.5], 1000, 100)
            .quantize(None)
            .backend(Backend::Dense)
            .validate();
    }

    #[test]
    #[should_panic(expected = "at most 6 significant digits")]
    fn validate_rejects_dense_with_wide_domain() {
        QloveConfig::new(&[0.5], 1000, 100)
            .quantize(Some(9))
            .backend(Backend::Dense)
            .validate();
    }

    #[test]
    #[should_panic(expected = "multiple of period")]
    fn validate_rejects_misaligned_window() {
        QloveConfig::new(&[0.5], 1000, 300).validate();
    }

    #[test]
    #[should_panic(expected = "at least one quantile")]
    fn validate_rejects_empty_phis() {
        QloveConfig::new(&[], 1000, 100).validate();
    }

    #[test]
    #[should_panic(expected = "topk_fraction")]
    fn validate_rejects_bad_fraction() {
        let c =
            QloveConfig::new(&[0.5], 1000, 100).fewk(Some(FewKConfig::with_fractions(1.5, 0.0)));
        c.validate();
    }
}
