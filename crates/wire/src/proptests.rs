//! Round-trip properties of the packed primitives and the QLVS v2
//! summary codec: every input decodes back exactly, consumes exactly
//! the bytes written, and takes the width the layout promises. Lengths
//! straddle the block size (0, 1, 127, 128, 129) and reach a full
//! `EventBatch` (4,096); values reach both ends of `u64`.

use crate::*;
use proptest::prelude::*;

/// Cases per property; Miri interprets every step, so it runs a few.
const CASES: u32 = if cfg!(miri) { 3 } else { 64 };
/// Longest input any property builds: one full `EventBatch`.
const LONGEST: usize = 4_096;

/// A length around the block edges, or anywhere up to three blocks.
fn length() -> impl Strategy<Value = usize> {
    prop_oneof![
        1 => Just(0usize),
        1 => Just(1usize),
        1 => Just(127usize),
        1 => Just(128usize),
        1 => Just(129usize),
        1 => Just(LONGEST),
        4 => 0usize..400,
    ]
}

/// Search-like values, tiny ones, and both ends of `u64`.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 218u64..200_000,
        2 => 0u64..4,
        1 => Just(0u64),
        1 => Just(u64::MAX),
        1 => (u64::MAX - 3)..=u64::MAX,
        1 => any::<u64>(),
    ]
}

fn values() -> impl Strategy<Value = Vec<u64>> {
    (
        length(),
        proptest::collection::vec(value(), LONGEST..LONGEST + 1),
    )
        .prop_map(|(len, mut pool)| {
            pool.truncate(len);
            pool
        })
}

/// Pack `values`, check the bytes decode back exactly and are all
/// consumed, and return the block widths in order.
fn roundtrip(values: &[u64]) -> Result<Vec<u8>, TestCaseError> {
    let mut buf = Vec::new();
    write_packed(&mut buf, values);
    let mut data = buf.as_slice();
    let mut out = vec![0u64; values.len()];
    prop_assert_eq!(read_packed(&mut data, &mut out), Some(()));
    prop_assert_eq!(&out, &values.to_vec());
    prop_assert!(data.is_empty(), "{} bytes left over", data.len());
    // Walk the block headers to recover each block's width.
    let mut widths = Vec::new();
    let mut data = buf.as_slice();
    for block in values.chunks(PACK_BLOCK) {
        let min = read_uvarint(&mut data).unwrap();
        prop_assert_eq!(min, *block.iter().min().unwrap());
        let width = data[0];
        let len = (block.len() * width as usize).div_ceil(8);
        data = &data[1 + len..];
        widths.push(width);
    }
    prop_assert!(data.is_empty());
    Ok(widths)
}

/// Strictly ascending keys from a first key and positive gaps, cut
/// short where the next key would overflow; frequencies small enough
/// that their sum fits `u64`.
fn summary() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let first = prop_oneof![1 => Just(0u64), 2 => 0u64..1_000, 1 => any::<u64>()];
    let gap = prop_oneof![
        4 => 1u64..300,
        2 => Just(1u64),
        1 => 1u64..=u64::MAX / LONGEST as u64,
    ];
    let freq = prop_oneof![
        3 => Just(1u64),
        3 => 1u64..1_000,
        1 => 1u64..=u64::MAX / (2 * LONGEST as u64),
    ];
    (
        length(),
        first,
        proptest::collection::vec(gap, LONGEST..LONGEST + 1),
        proptest::collection::vec(freq, LONGEST..LONGEST + 1),
    )
        .prop_map(|(len, first, gaps, freqs)| {
            let mut counts = Vec::with_capacity(len);
            let mut key = Some(first);
            for (&gap, &freq) in gaps.iter().zip(&freqs).take(len) {
                let Some(k) = key else { break };
                counts.push((k, freq));
                key = k.checked_add(gap);
            }
            counts
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn packed_roundtrips_any_values(values in values()) {
        let widths = roundtrip(&values)?;
        prop_assert_eq!(widths.len(), values.len().div_ceil(PACK_BLOCK));
    }

    #[test]
    fn all_equal_blocks_take_width_zero(len in length(), v in value()) {
        let values = vec![v; len];
        let widths = roundtrip(&values)?;
        prop_assert!(widths.iter().all(|&w| w == 0), "widths {:?}", widths);
        let mut head = Vec::new();
        write_uvarint(&mut head, v);
        let mut buf = Vec::new();
        write_packed(&mut buf, &values);
        prop_assert_eq!(buf.len(), widths.len() * (head.len() + 1));
    }

    #[test]
    fn one_outlier_widens_only_its_block(
        base in 0u64..1_000,
        at in 0usize..PACK_BLOCK,
        outlier in any::<u64>(),
    ) {
        // Three blocks; the outlier sits in the middle one.
        let mut values: Vec<u64> = (0..3 * PACK_BLOCK as u64).map(|i| base + i % 4).collect();
        values[PACK_BLOCK + at] = outlier;
        let widths = roundtrip(&values)?;
        prop_assert_eq!(widths[0], 2);
        prop_assert_eq!(widths[2], 2);
        let spread = values[PACK_BLOCK..2 * PACK_BLOCK].iter().max().unwrap()
            - values[PACK_BLOCK..2 * PACK_BLOCK].iter().min().unwrap();
        prop_assert_eq!(u32::from(widths[1]), u64::BITS - spread.leading_zeros());
    }

    #[test]
    fn width_64_keeps_a_nonzero_minimum(
        min in 1u64..1_000,
        len in 2usize..300,
        middle in any::<u64>(),
    ) {
        // Every block opens with `min, u64::MAX`; a one-value tail
        // block could not hold both, so the length skips that case.
        let len = if len % PACK_BLOCK == 1 { len + 1 } else { len };
        let values: Vec<u64> = (0..len)
            .map(|i| match i % PACK_BLOCK {
                0 => min,
                1 => u64::MAX,
                _ => middle.max(min),
            })
            .collect();
        let widths = roundtrip(&values)?;
        prop_assert!(widths.iter().all(|&w| w == 64), "widths {:?}", widths);
    }

    #[test]
    fn summary_v2_roundtrips_with_its_total(counts in summary()) {
        let bytes = summary_to_bytes(&counts);
        let (decoded, total) = decode_summary_with_total(&bytes)
            .map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&decoded, &counts);
        prop_assert_eq!(total, counts.iter().map(|&(_, f)| f).sum::<u64>());
        prop_assert_eq!(decode_summary(&bytes).ok(), Some(counts));
    }
}
