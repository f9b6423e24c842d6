//! # qlove-core — the QLOVE approximate-quantile operator
//!
//! QLOVE ("approximate Quantiles with LOw Value Error", Lim et al., ICDE
//! 2020) answers a *fixed* set of quantiles over sliding windows of
//! telemetry with low **value** error — as opposed to the low *rank*
//! error the classical sketches guarantee, which on heavy-tailed
//! latencies translates into order-of-magnitude value errors at Q0.99+
//! (§1's 40× example).
//!
//! Architecture (papers' §3–§4), all implemented here:
//!
//! * **Level 1** — each sub-window (aligned with the window period) keeps
//!   in-flight data as a frequency multiset, optionally quantized to 3
//!   significant digits, and computes its *exact* quantiles in one
//!   sorted pass at the sub-window boundary (Algorithm 1). The multiset
//!   is stored in a pluggable backend ([`config::Backend`]): the
//!   sorted-run [`qlove_freqstore::SortedRunStore`] for unbounded
//!   domains (append inserts, one sort per sub-window, binary-search
//!   quantiles, linear merges), or the flat direct-indexed
//!   [`qlove_freqstore::DenseFreqStore`] when quantization bounds the
//!   domain (the default under the paper's 3-digit setting — O(1)
//!   inserts, prefix-scan quantiles, slice-add merges). Answers are
//!   bit-identical across backends.
//! * **Level 2** — the window answer for each quantile is the *mean* of
//!   the sub-window quantiles (justified by the CLT, Theorem 1), kept
//!   incrementally as `l` running `{sum, count}` pairs with O(1)
//!   accumulate/deaccumulate.
//! * **Few-k merging** (§4) — per-sub-window caches of tail values fix
//!   the two failure modes of Level 2 at high quantiles:
//!   [`fewk`]`::merge_top_k` for *statistical inefficiency* (sub-windows
//!   too small to pin the tail) and [`fewk`]`::merge_sample_k` for
//!   *bursty traffic* (tail mass concentrated in one sub-window),
//!   selected at runtime by a Mann-Whitney burst detector ([`burst`]).
//! * **Error bounds** — each evaluation can report the Theorem-1
//!   confidence interval ([`bounds`]), estimated from the freshest
//!   sub-window's empirical density.
//! * **Mergeable summaries** (§7's distributed extension) — Level-1
//!   sub-window state snapshots as a [`QloveSummary`] multiset that
//!   shards ([`QloveShard`]) extract, ship (compact QLVS wire form),
//!   and a coordinator folds back with [`Qlove::merge`], making one
//!   logical window answerable from N ingestion shards with answers
//!   bit-identical to a single instance.
//!
//! The operator implements [`qlove_stream::QuantilePolicy`], so it plugs
//! into the same harness as every baseline in `qlove-sketches`.
//!
//! ```
//! use qlove_core::{Qlove, QloveConfig};
//! use qlove_stream::QuantilePolicy;
//!
//! let config = QloveConfig::new(&[0.5, 0.99], 8_000, 1_000);
//! let mut op = Qlove::new(config);
//! let mut answers = Vec::new();
//! for v in (0..32_000u64).map(|i| (i * 2654435761) % 10_000) {
//!     if let Some(ans) = op.push(v) {
//!         answers.push(ans);
//!     }
//! }
//! assert!(!answers.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod burst;
pub mod config;
pub mod fewk;
pub mod operator;

pub use config::{Backend, FewKConfig, QloveConfig};
pub use operator::{AnswerSource, Qlove, QloveAnswer, QloveShard, QloveSummary};
