//! Differential property tests: the [`SortedRunStore`] against the
//! red-black [`FreqTree`] as an independent oracle, on unquantized keys
//! with heavy duplicates, under random interleavings of every mutating
//! operation. Every [`FreqStore`] query is compared after each
//! operation, both on the store as it stands (pending inserts answered
//! by the unsealed paths) and on a sealed copy.

use crate::{FreqStore, FreqTree, SortedRunStore};
use proptest::prelude::*;

/// Cases per property; Miri interprets every step, so it runs a few.
const CASES: u32 = if cfg!(miri) { 3 } else { 192 };
/// Longest operation sequence per case.
const MAX_OPS: usize = if cfg!(miri) { 12 } else { 48 };

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    InsertBatch(Vec<u64>),
    /// A shipped summary: strictly ascending pairs once normalized.
    MergeSorted(Vec<(u64, u64)>),
    /// A checkpoint restored on top of pending inserts (`QloveShard`'s
    /// restore shape): one logged insert, then a sorted merge.
    RestoreOnPending(u64, Vec<(u64, u64)>),
    Remove(u64, u64),
    Seal,
    Clear,
}

/// Unquantized keys, mostly from a narrow band so they repeat, with
/// occasional values anywhere in `u64`.
fn key() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..48,
        2 => 1_000_000u64..1_000_200,
        1 => any::<u64>(),
    ]
}

fn pairs() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((key(), 1u64..6), 0..24)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key(), 1u64..5).prop_map(|(k, f)| Op::Insert(k, f)),
        4 => proptest::collection::vec(key(), 0..40).prop_map(Op::InsertBatch),
        3 => pairs().prop_map(Op::MergeSorted),
        2 => (key(), pairs()).prop_map(|(k, p)| Op::RestoreOnPending(k, p)),
        3 => (key(), 1u64..4).prop_map(|(k, f)| Op::Remove(k, f)),
        1 => Just(Op::Seal),
        1 => Just(Op::Clear),
    ]
}

/// Sort and collapse raw pairs into the strictly ascending shape of a
/// `QloveSummary`.
fn ascending(mut raw: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    raw.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(raw.len());
    for (k, f) in raw {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 += f,
            _ => out.push((k, f)),
        }
    }
    out
}

/// Compare every query of `store` with the oracle.
fn check(store: &SortedRunStore, tree: &FreqTree<u64>) -> Result<(), TestCaseError> {
    let total = FreqStore::total(tree);
    prop_assert_eq!(store.total(), total);
    prop_assert_eq!(FreqStore::is_empty(store), total == 0);
    prop_assert_eq!(store.unique_len(), tree.unique_len());
    prop_assert_eq!(store.min_key(), tree.min_key());
    prop_assert_eq!(store.max_key(), tree.max_key());

    let (mut got, mut want) = (Vec::new(), Vec::new());
    store.counts_into(&mut got);
    FreqStore::counts_into(tree, &mut want);
    prop_assert_eq!(&got, &want);
    let mut visited = Vec::new();
    store.for_each(|k, c| visited.push((k, c)));
    prop_assert_eq!(&visited, &want);

    let probes = want
        .iter()
        .flat_map(|&(k, _)| [k.saturating_sub(1), k, k.saturating_add(1)])
        .chain([0, 47, u64::MAX]);
    for k in probes {
        prop_assert_eq!(store.count_of(k), tree.count_of(k), "count_of({})", k);
        prop_assert_eq!(store.rank_of(k), tree.rank_of(k), "rank_of({})", k);
    }
    for r in (0..=total + 1).step_by(1 + total as usize / 16) {
        prop_assert_eq!(store.select(r), tree.select(r), "select({})", r);
    }
    prop_assert_eq!(store.select(total), tree.select(total));

    let phis = [0.999, 0.0, 0.5, 0.9, 0.25, 1.0, 0.99];
    for phi in phis {
        prop_assert_eq!(store.quantile(phi), tree.quantile(phi), "quantile({})", phi);
    }
    let (mut qa, mut qb) = (vec![7], vec![7]);
    prop_assert_eq!(
        store.quantiles_into(&phis, &mut qa),
        tree.quantiles_into(&phis, &mut qb)
    );
    prop_assert_eq!(&qa, &qb);
    prop_assert_eq!(store.quantiles_into(&[], &mut qa), true);
    prop_assert!(qa.is_empty());

    for k in [0, 1, 7, total as usize, total as usize + 3] {
        let (mut ta, mut tb) = (vec![9], vec![9]);
        store.top_k_into(k, &mut ta);
        tree.top_k_into(k, &mut tb);
        prop_assert_eq!(&ta, &tb, "top_k({})", k);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn sorted_runs_match_the_tree(ops in proptest::collection::vec(op(), 1..MAX_OPS)) {
        let mut store = SortedRunStore::new();
        let mut tree: FreqTree<u64> = FreqTree::new();
        for op in ops {
            match op {
                Op::Insert(k, f) => {
                    store.insert(k, f);
                    tree.insert(k, f);
                }
                Op::InsertBatch(batch) => {
                    store.insert_batch(&mut batch.clone());
                    tree.insert_batch(&mut batch.clone());
                }
                Op::MergeSorted(raw) => {
                    let summary = ascending(raw);
                    store.merge_sorted_counts(&summary);
                    tree.extend_counts(summary);
                }
                Op::RestoreOnPending(k, raw) => {
                    let checkpoint = ascending(raw);
                    store.insert(k, 1);
                    tree.insert(k, 1);
                    prop_assert!(!store.is_sealed());
                    store.merge_sorted_counts(&checkpoint);
                    tree.extend_counts(checkpoint);
                }
                Op::Remove(k, f) => {
                    prop_assert_eq!(store.remove(k, f), tree.remove(k, f));
                }
                Op::Seal => store.seal(),
                Op::Clear => {
                    store.clear();
                    tree.clear();
                }
            }
            check(&store, &tree)?;
            let mut sealed = store.clone();
            sealed.seal();
            prop_assert!(sealed.is_sealed());
            check(&sealed, &tree)?;
        }
    }

    /// Merging dealt shards (sealed or not) reconstructs the store
    /// built from the undealt stream.
    #[test]
    fn merge_from_is_a_multiset_union(
        keys in proptest::collection::vec(key(), 0..120),
        parts in 1usize..5,
        seal_shards in any::<bool>(),
    ) {
        let mut single = SortedRunStore::new();
        let mut tree: FreqTree<u64> = FreqTree::new();
        for &k in &keys {
            single.insert(k, 1);
            tree.insert(k, 1);
        }
        let mut shards: Vec<SortedRunStore> = (0..parts).map(|_| SortedRunStore::new()).collect();
        for (i, &k) in keys.iter().enumerate() {
            shards[i % parts].insert(k, 1);
        }
        let mut merged = SortedRunStore::new();
        for shard in &mut shards {
            if seal_shards {
                shard.seal();
            }
            merged.merge_from(shard);
        }
        check(&merged, &tree)?;
        check(&single, &tree)?;
    }
}
