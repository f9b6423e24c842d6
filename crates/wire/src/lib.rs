//! # qlove-wire — varint and bit-packed primitives and the QLVS summary codec
//!
//! The lowest layer of QLOVE's wire formats, shared by everything that
//! ships bytes: the checkpoint/shipping form of sub-window summaries
//! (`qlove_core::QloveSummary::to_bytes`) and the framed socket
//! transport (`qlove_transport::proto`). Std-only, no dependencies —
//! this crate sits below both `core` and `transport` so neither has to
//! depend on the other to share the codec.
//!
//! Two integer encodings live here:
//!
//! * **LEB128 varints** ([`write_uvarint`]/[`read_uvarint`]) for
//!   headers, ids and counters: one value at a time, 1–10 bytes.
//! * **Frame-of-reference bit-packed blocks**
//!   ([`write_packed`]/[`read_packed`]) for the two hot payloads, event
//!   values and summary pairs. A block of up to [`PACK_BLOCK`] values
//!   stores its minimum once and every value as a fixed-width offset
//!   from it, so neither loop has a data-dependent branch per value
//!   (a varint's length branch is a coin flip on values that straddle
//!   a byte-length boundary).
//!
//! The summary codec ([`encode_summary`]/[`decode_summary`]) is the
//! QLVS frame: a shard's partial sub-window state is a sorted
//! `(value, frequency)` multiset, which packed key deltas and packed
//! frequencies shrink to one or two bytes per unique value.
//!
//! Decode contract (fuzz-tested here and relied on by the transport):
//! malformed input of any shape — truncation, bad magic, corrupt
//! counts, overflowing varints, impossible block widths, nonzero
//! padding bits — surfaces as an `InvalidData` error, never a panic and
//! never an attacker-sized allocation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::io;

/// Summary-frame magic: "QLVS" + a one-byte format version.
pub const SUMMARY_MAGIC: &[u8; 4] = b"QLVS";
/// Current QLVS format version byte. v1 stored every key delta and
/// frequency as a varint; v2 stores them as bit-packed blocks.
pub const SUMMARY_VERSION: u8 = 2;
/// Most values one packed block holds.
pub const PACK_BLOCK: usize = 128;
/// Fewest bytes a packed block can take: a one-byte minimum and the
/// width byte (a width-0 block has no payload).
pub const MIN_BLOCK_BYTES: usize = 2;
/// Most pairs a QLVS frame may declare: a 16 MiB frame at two bytes
/// per pair, the worst case of the v1 layout. A width-0 block stands
/// for 128 values in two bytes, so the bytes present no longer bound
/// the count by themselves.
pub const MAX_SUMMARY_PAIRS: usize = 1 << 23;

// ---- varint primitives ----------------------------------------------------

/// Append `value` to `buf` as an unsigned LEB128 varint (7 payload bits
/// per byte, high bit = continuation): 1 byte for values < 128, at most
/// 10 bytes for `u64::MAX`.
pub fn write_uvarint(buf: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read one LEB128 varint from the front of `data`, advancing the
/// slice. Returns `None` on truncation or a value overflowing `u64`.
pub fn read_uvarint(data: &mut &[u8]) -> Option<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = data.split_first()?;
        *data = rest;
        let payload = (byte & 0x7f) as u64;
        // The 10th byte carries bit 63 only; anything above overflows.
        if shift == 63 && payload > 1 {
            return None;
        }
        out |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(out);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

// ---- frame-of-reference bit packing ---------------------------------------

/// Widths up to this unpack with one 8-byte load per value: up to
/// seven bits of misalignment plus the value still fit in 64. Wider
/// values take a 16-byte load.
const NARROW_WIDTH: usize = 56;
/// Slack past a block's payload for the packers' whole-word stores and
/// the unpackers' whole-word loads.
const SLACK: usize = 16;

/// One monomorphized copy of `$f` per width 0–64, as a table indexed by
/// the width: eight `W`-bit values fill exactly `W` bytes, so inside a
/// group of eight every shift and offset is a constant.
macro_rules! per_width {
    ($f:ident) => {
        per_width!(@ $f [
            0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30
            31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58
            59 60 61 62 63 64
        ])
    };
    (@ $f:ident [$($w:literal)*]) => {
        [$($f::<$w>),*]
    };
}

type PackFn = fn(&mut [u8], &[u64], u64);
type UnpackFn = fn(&[u8], &mut [u64], u64) -> Option<bool>;
static PACK: [PackFn; 65] = per_width!(pack);
static UNPACK: [UnpackFn; 65] = per_width!(unpack);

/// Append `values` as frame-of-reference bit-packed blocks of at most
/// [`PACK_BLOCK`] values each; an empty slice writes nothing.
///
/// Block layout: a varint minimum, one width byte `w` (0–64, the bit
/// length of the largest `value − minimum`), then `ceil(n·w/8)` bytes
/// holding each `value − minimum` in `w` bits, least significant bit
/// first, the padding bits after the last value zero. A block whose
/// values are all equal is therefore just its minimum and a 0.
///
/// The block length is not stored: the reader must know how many
/// values follow ([`read_packed`] fills a slice of that length).
pub fn write_packed(buf: &mut Vec<u8>, values: &[u64]) {
    for block in values.chunks(PACK_BLOCK) {
        let (min, max) = block
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let width = u64::BITS - (max - min).leading_zeros();
        write_uvarint(buf, min);
        buf.push(width as u8);
        let len = (block.len() * width as usize).div_ceil(8);
        let start = buf.len();
        buf.resize(start + len + SLACK, 0);
        PACK[width as usize](&mut buf[start..], block, min);
        // The stores only ever set bits inside the payload, so the
        // slack is still zero and the padding bits with it.
        buf.truncate(start + len);
    }
}

/// Pack `block` at width `W` into `out` (zeroed, with [`SLACK`] past
/// the payload): whole groups of eight through registers, the rest
/// through [`pack_tail`].
fn pack<const W: usize>(out: &mut [u8], block: &[u64], min: u64) {
    if W == 0 {
        return;
    }
    let (groups, tail) = block.as_chunks::<8>();
    for (group, dst) in groups.iter().zip(out.chunks_exact_mut(W)) {
        let mut words = [0u64; 9];
        for (i, &v) in group.iter().enumerate() {
            let (bit, x) = (i * W, v - min);
            words[bit / 64] |= x << (bit % 64);
            if bit % 64 + W > 64 {
                words[bit / 64 + 1] |= x >> (64 - bit % 64);
            }
        }
        let mut bytes = [0u8; 72];
        for (chunk, word) in bytes.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        dst[..W].copy_from_slice(&bytes[..W]);
    }
    pack_tail(&mut out[groups.len() * W..], tail, min, W as u32);
}

/// Bit writer for the fewer than eight values after the last whole
/// group: OR the offset above the carried bits, store the whole word,
/// advance by the completed bytes.
fn pack_tail(out: &mut [u8], tail: &[u64], min: u64, width: u32) {
    let mut acc = 0u128;
    let mut bits = 0u32;
    let mut pos = 0usize;
    for &v in tail {
        acc |= u128::from(v - min) << bits;
        bits += width;
        out[pos..pos + 16].copy_from_slice(&acc.to_le_bytes());
        let bytes = bits >> 3;
        pos += bytes as usize;
        acc >>= bytes * 8;
        bits &= 7;
    }
}

/// Read `out.len()` values written by [`write_packed`] from the front
/// of `data` into `out`, advancing the slice.
///
/// Returns `None` — with `data` and `out` in an unspecified state — on
/// truncation, a width above 64, nonzero padding bits, or a value
/// whose `minimum + offset` overflows `u64`.
pub fn read_packed(data: &mut &[u8], out: &mut [u64]) -> Option<()> {
    for block in out.chunks_mut(PACK_BLOCK) {
        let min = read_uvarint(data)?;
        let (&width, rest) = data.split_first()?;
        let unpack = UNPACK.get(usize::from(width))?;
        let bits = block.len() * usize::from(width);
        let len = bits.div_ceil(8);
        if rest.len() < len {
            return None;
        }
        let (payload, tail) = rest.split_at(len);
        if bits % 8 != 0 && payload[len - 1] >> (bits % 8) != 0 {
            return None;
        }
        // Whole-word loads read past the payload; the masks drop those
        // bits. Only a frame's last block needs a padded copy.
        let padded;
        let src = if rest.len() >= len + SLACK {
            rest
        } else {
            padded = pad(payload);
            &padded[..]
        };
        if unpack(src, block, min)? {
            return None;
        }
        *data = tail;
    }
    Some(())
}

/// A block payload copied into a zeroed buffer with [`SLACK`] to spare.
fn pad(payload: &[u8]) -> [u8; PACK_BLOCK * 8 + SLACK] {
    let mut buf = [0u8; PACK_BLOCK * 8 + SLACK];
    buf[..payload.len()].copy_from_slice(payload);
    buf
}

/// Unpack `block.len()` width-`W` offsets from `src` (the payload with
/// [`SLACK`] to spare) and add `min`; returns whether any sum
/// overflowed. Whole groups of eight take one constant-offset load
/// per value; `None` only if `src` lacks its slack, which the caller
/// rules out.
fn unpack<const W: usize>(src: &[u8], block: &mut [u64], min: u64) -> Option<bool> {
    let mask = if W == 0 { 0 } else { u64::MAX >> (64 - W) };
    let mut overflow = false;
    let (groups, tail) = block.as_chunks_mut::<8>();
    for (g, group) in groups.iter_mut().enumerate() {
        let window = src.get(g * W..g * W + W + SLACK)?;
        for (i, slot) in group.iter_mut().enumerate() {
            let bit = i * W;
            let offset = if W <= NARROW_WIDTH {
                let word = u64::from_le_bytes(*window[bit / 8..].first_chunk::<8>()?);
                (word >> (bit % 8)) & mask
            } else {
                let word = u128::from_le_bytes(*window[bit / 8..].first_chunk::<16>()?);
                (word >> (bit % 8)) as u64 & mask
            };
            let (value, carry) = min.overflowing_add(offset);
            overflow |= carry;
            *slot = value;
        }
    }
    let src = src.get(groups.len() * W..)?;
    for (i, slot) in tail.iter_mut().enumerate() {
        let bit = i * W;
        let word = u128::from_le_bytes(*src.get(bit / 8..)?.first_chunk::<16>()?);
        let (value, carry) = min.overflowing_add((word >> (bit % 8)) as u64 & mask);
        overflow |= carry;
        *slot = value;
    }
    Some(overflow)
}

// ---- summary codec --------------------------------------------------------

/// Encode a sorted `(value, frequency)` summary into `buf` (appended,
/// not cleared).
///
/// Layout (QLVS v2): `"QLVS"`, the version byte 2, a varint pair count,
/// and — unless the count is 0 — a varint first key. Then, per block of
/// up to [`PACK_BLOCK`] pairs, the block's key deltas and then its
/// frequencies, each as one [`write_packed`] block. A delta is
/// `key − previous_key`, taking the first key as the previous key of
/// the first pair, so the first delta is 0 and every later one is ≥ 1.
/// Frequencies are ≥ 1. On Search-calibrated sub-windows this costs
/// about 1.3 bytes per pair against v1's 2.2 varint bytes.
///
/// # Panics
/// Debug-asserts that keys are strictly ascending and frequencies are
/// nonzero — the invariants every in-order store walk provides.
pub fn encode_summary(counts: &[(u64, u64)], buf: &mut Vec<u8>) {
    buf.extend_from_slice(SUMMARY_MAGIC);
    buf.push(SUMMARY_VERSION);
    write_uvarint(buf, counts.len() as u64);
    let Some(&(first, _)) = counts.first() else {
        return;
    };
    debug_assert!(
        counts.windows(2).all(|w| w[0].0 < w[1].0),
        "summary keys must be ascending"
    );
    debug_assert!(
        counts.iter().all(|&(_, f)| f > 0),
        "summary frequencies must be nonzero"
    );
    write_uvarint(buf, first);
    let mut prev = first;
    let mut deltas = [0u64; PACK_BLOCK];
    let mut freqs = [0u64; PACK_BLOCK];
    for block in counts.chunks(PACK_BLOCK) {
        for ((&(key, freq), delta), slot) in block.iter().zip(&mut deltas).zip(&mut freqs) {
            *delta = key - prev;
            *slot = freq;
            prev = key;
        }
        write_packed(buf, &deltas[..block.len()]);
        write_packed(buf, &freqs[..block.len()]);
    }
}

/// [`encode_summary`] into a fresh buffer.
pub fn summary_to_bytes(counts: &[(u64, u64)]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + counts.len() * 3);
    encode_summary(counts, &mut buf);
    buf
}

/// Decode a summary frame produced by [`encode_summary`] back into
/// strictly-ascending `(value, frequency)` pairs.
///
/// Never panics on malformed input: truncation, a wrong magic/version,
/// a corrupt packed block, a nonzero first delta, a zero later delta
/// (out-of-order keys), a zero frequency, key or total overflow, or
/// trailing bytes all surface as `InvalidData` errors. The declared
/// pair count is capped at [`MAX_SUMMARY_PAIRS`] and checked against
/// the fewest bytes its blocks could take before anything is
/// allocated; the output is then pre-sized from the bytes present, not
/// from the count.
pub fn decode_summary(data: &[u8]) -> io::Result<Vec<(u64, u64)>> {
    decode_summary_with_total(data).map(|(counts, _)| counts)
}

/// [`decode_summary`], also returning the sum of the frequencies, which
/// the decoder accumulates (and checks for overflow) in the same pass.
pub fn decode_summary_with_total(mut data: &[u8]) -> io::Result<(Vec<(u64, u64)>, u64)> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let Some((magic, rest)) = data.split_first_chunk::<4>() else {
        return Err(bad("truncated summary header"));
    };
    data = rest;
    if magic != SUMMARY_MAGIC {
        return Err(bad("not a QLVS summary frame"));
    }
    let Some((&version, rest)) = data.split_first() else {
        return Err(bad("truncated summary header"));
    };
    data = rest;
    if version != SUMMARY_VERSION {
        return Err(bad("unsupported QLVS version"));
    }
    let count = read_uvarint(&mut data).ok_or_else(|| bad("truncated pair count"))?;
    if count > MAX_SUMMARY_PAIRS as u64 {
        return Err(bad("pair count exceeds cap"));
    }
    let count = count as usize;
    if count == 0 {
        if !data.is_empty() {
            return Err(bad("trailing bytes after summary payload"));
        }
        return Ok((Vec::new(), 0));
    }
    let first = read_uvarint(&mut data).ok_or_else(|| bad("truncated first key"))?;
    // Each block of pairs is two packed blocks.
    if count.div_ceil(PACK_BLOCK) > data.len() / (2 * MIN_BLOCK_BYTES) {
        return Err(bad("pair count exceeds payload"));
    }
    let mut counts = Vec::with_capacity(count.min(data.len()));
    let mut deltas = [0u64; PACK_BLOCK];
    let mut freqs = [0u64; PACK_BLOCK];
    let (mut prev, mut total) = (first, 0u64);
    let (mut unordered, mut zero_freq, mut overflow) = (false, false, false);
    for start in (0..count).step_by(PACK_BLOCK) {
        let n = PACK_BLOCK.min(count - start);
        read_packed(&mut data, &mut deltas[..n]).ok_or_else(|| bad("corrupt key block"))?;
        read_packed(&mut data, &mut freqs[..n]).ok_or_else(|| bad("corrupt frequency block"))?;
        let mut skip = 0;
        if start == 0 {
            // The first key is stored whole: its delta must be 0.
            unordered |= deltas[0] != 0;
            zero_freq |= freqs[0] == 0;
            total = freqs[0];
            counts.push((first, freqs[0]));
            skip = 1;
        }
        let pairs = deltas[skip..n].iter().zip(&freqs[skip..n]);
        counts.extend(pairs.map(|(&delta, &freq)| {
            let (key, key_carry) = prev.overflowing_add(delta);
            let (sum, total_carry) = total.overflowing_add(freq);
            unordered |= delta == 0;
            zero_freq |= freq == 0;
            overflow |= key_carry | total_carry;
            (prev, total) = (key, sum);
            (key, freq)
        }));
        if unordered {
            return Err(bad("summary keys out of order"));
        }
        if zero_freq {
            return Err(bad("zero frequency in summary"));
        }
        if overflow {
            return Err(bad("summary key or total overflows u64"));
        }
    }
    if !data.is_empty() {
        return Err(bad("trailing bytes after summary payload"));
    }
    Ok((counts, total))
}

#[cfg(test)]
mod proptests;

#[cfg(test)]
mod tests {
    use super::*;

    // ---- varint ----------------------------------------------------------

    #[test]
    fn uvarint_roundtrip_across_magnitudes() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_uvarint(&mut buf, v);
            assert!(buf.len() <= 10);
            let mut slice = buf.as_slice();
            assert_eq!(read_uvarint(&mut slice), Some(v), "value {v}");
            assert!(slice.is_empty(), "value {v} left bytes behind");
        }
    }

    #[test]
    fn uvarint_rejects_truncation_and_overflow() {
        let mut empty: &[u8] = &[];
        assert_eq!(read_uvarint(&mut empty), None);
        // Dangling continuation bit.
        let mut dangling: &[u8] = &[0x80];
        assert_eq!(read_uvarint(&mut dangling), None);
        // 10 continuation bytes followed by a large 11th: > 64 bits.
        let mut too_long: &[u8] = &[0x80; 11];
        assert_eq!(read_uvarint(&mut too_long), None);
        // Bit 64 set in the 10th byte.
        let mut overflow: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(read_uvarint(&mut overflow), None);
    }

    // ---- summary codec ---------------------------------------------------

    #[test]
    fn summary_roundtrip() {
        let counts = vec![
            (0u64, 1u64),
            (3, 2),
            (798, 1000),
            (74_265, 1),
            (u64::MAX, 7),
        ];
        let bytes = summary_to_bytes(&counts);
        assert_eq!(decode_summary(&bytes).unwrap(), counts);
    }

    #[test]
    fn summary_roundtrip_empty() {
        let bytes = summary_to_bytes(&[]);
        assert_eq!(decode_summary(&bytes).unwrap(), Vec::<(u64, u64)>::new());
    }

    #[test]
    fn summary_is_compact_on_quantized_domains() {
        // Quantized telemetry: dense small keys with fat frequencies.
        let counts: Vec<(u64, u64)> = (0..500u64).map(|i| (700 + i * 3, 20 + i % 9)).collect();
        let bytes = summary_to_bytes(&counts);
        // Raw encoding would cost 16 bytes per pair; packed deltas and
        // frequencies should land in low single digits.
        assert!(
            bytes.len() < counts.len() * 4,
            "{} bytes for {} pairs",
            bytes.len(),
            counts.len()
        );
    }

    /// The reason a malformed summary is rejected, so each fixture
    /// below fails for the rule it names rather than an earlier one.
    fn rejection(bytes: &[u8]) -> String {
        let err = decode_summary(bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        err.to_string()
    }

    /// A QLVS v2 header (magic, version 2, pair count, first key) for
    /// hand-built fixtures; the caller appends the packed blocks.
    fn v2_header(count: u64, first: u64) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"QLVS");
        buf.push(2);
        write_uvarint(&mut buf, count);
        write_uvarint(&mut buf, first);
        buf
    }

    /// A v2 summary frame from raw key deltas and frequencies, which
    /// need not satisfy the decoder's rules.
    fn v2_frame(first: u64, deltas: &[u64], freqs: &[u64]) -> Vec<u8> {
        let mut buf = v2_header(deltas.len() as u64, first);
        for (d, f) in deltas.chunks(PACK_BLOCK).zip(freqs.chunks(PACK_BLOCK)) {
            write_packed(&mut buf, d);
            write_packed(&mut buf, f);
        }
        buf
    }

    #[test]
    fn summary_rejects_bad_magic_and_version() {
        let bytes = summary_to_bytes(&[(1, 1)]);
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(rejection(&wrong_magic).contains("not a QLVS"));
        // A well-formed v1 frame (varint delta and frequency per pair)
        // is refused on its version byte alone.
        let mut v1 = Vec::new();
        v1.extend_from_slice(b"QLVS");
        v1.push(1);
        write_uvarint(&mut v1, 1);
        write_uvarint(&mut v1, 1); // key
        write_uvarint(&mut v1, 1); // frequency
        assert!(rejection(&v1).contains("version"));
        let mut unknown = bytes;
        unknown[4] = 99;
        assert!(rejection(&unknown).contains("version"));
        assert!(decode_summary(b"QLV").is_err());
    }

    #[test]
    fn summary_rejects_truncation_everywhere() {
        let counts: Vec<(u64, u64)> = (0..40u64).map(|i| (i * 1000, i + 1)).collect();
        let bytes = summary_to_bytes(&counts);
        for cut in 0..bytes.len() {
            assert!(
                decode_summary(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn summary_rejects_truncation_of_a_multi_block_frame() {
        // Three blocks of pairs, one of them width 0 for frequencies.
        let counts: Vec<(u64, u64)> = (0..300u64)
            .map(|i| (218 + i * 677, if i < 128 { 1 } else { 1 + i % 5 }))
            .collect();
        let bytes = summary_to_bytes(&counts);
        assert_eq!(decode_summary(&bytes).unwrap(), counts);
        for cut in 0..bytes.len() {
            assert!(
                decode_summary(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn summary_rejects_semantic_corruption() {
        // The fixture builder itself produces a valid frame.
        assert_eq!(
            decode_summary(&v2_frame(5, &[0, 2], &[1, 3])).unwrap(),
            vec![(5, 1), (7, 3)]
        );
        // Zero frequency.
        assert!(rejection(&v2_frame(5, &[0], &[0])).contains("zero frequency"));
        // Zero delta on a non-first pair (duplicate / out-of-order key),
        // in the first block and in a later one.
        assert!(rejection(&v2_frame(5, &[0, 0], &[1, 1])).contains("out of order"));
        let mut deltas = vec![1u64; 200];
        deltas[0] = 0;
        deltas[150] = 0;
        assert!(rejection(&v2_frame(5, &deltas, &[1; 200])).contains("out of order"));
        // The first key is stored whole: a nonzero first delta is not
        // canonical.
        assert!(rejection(&v2_frame(5, &[3], &[1])).contains("out of order"));
        // Key overflow: first key u64::MAX then any positive delta.
        assert!(rejection(&v2_frame(u64::MAX, &[0, 1], &[1, 1])).contains("overflows"));
        // Total overflow: frequencies that sum past u64::MAX.
        assert!(rejection(&v2_frame(1, &[0, 1], &[u64::MAX, 1])).contains("overflows"));

        // Trailing garbage, after pairs and after an empty summary.
        let mut bytes = summary_to_bytes(&[(1, 1)]);
        bytes.push(0);
        assert!(rejection(&bytes).contains("trailing"));
        let mut bytes = summary_to_bytes(&[]);
        bytes.push(0);
        assert!(rejection(&bytes).contains("trailing"));

        // Absurd pair counts with a tiny payload must fail fast, not
        // allocate: past the cap, and within it but past what the bytes
        // present could hold even at width 0.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"QLVS");
        buf.push(2);
        write_uvarint(&mut buf, u64::MAX);
        assert!(rejection(&buf).contains("exceeds cap"));
        let mut buf = v2_header(MAX_SUMMARY_PAIRS as u64, 0);
        write_packed(&mut buf, &[0; PACK_BLOCK]);
        write_packed(&mut buf, &[1; PACK_BLOCK]);
        assert!(rejection(&buf).contains("exceeds payload"));
    }

    // ---- packed blocks ---------------------------------------------------

    #[test]
    fn packed_layout_is_min_width_then_bits() {
        let mut buf = Vec::new();
        write_packed(&mut buf, &[300, 301, 303]);
        // min 300 (varint 0xAC 0x02), width 2, offsets 0,1,3 in 6 bits.
        assert_eq!(buf, [0xAC, 0x02, 2, 0b11_01_00]);
        let mut out = [0u64; 3];
        let mut data = buf.as_slice();
        assert_eq!(read_packed(&mut data, &mut out), Some(()));
        assert_eq!(out, [300, 301, 303]);
        let mut buf = Vec::new();
        write_packed(&mut buf, &[]);
        assert!(buf.is_empty());
    }

    #[test]
    fn packed_rejects_width_above_64() {
        let mut bytes = Vec::new();
        write_packed(&mut bytes, &[0, u64::MAX]);
        assert_eq!(bytes[1], 64);
        bytes[1] = 65;
        bytes.extend_from_slice(&[0; 32]);
        assert_eq!(read_packed(&mut bytes.as_slice(), &mut [0; 2]), None);
    }

    #[test]
    fn packed_rejects_nonzero_padding_bits() {
        // Three 1-bit offsets leave five padding bits in the byte.
        let mut bytes = Vec::new();
        write_packed(&mut bytes, &[1, 0, 1]);
        assert_eq!(bytes, [0, 1, 0b101]);
        let mut out = [0u64; 3];
        assert_eq!(read_packed(&mut bytes.as_slice(), &mut out), Some(()));
        for bit in 3..8 {
            let mut dirty = bytes.clone();
            dirty[2] |= 1 << bit;
            assert_eq!(
                read_packed(&mut dirty.as_slice(), &mut out),
                None,
                "bit {bit}"
            );
        }
    }

    #[test]
    fn packed_rejects_min_plus_offset_overflow() {
        // min u64::MAX with a 1-bit offset of 1 in the second value.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, u64::MAX);
        bytes.push(1);
        bytes.push(0b10);
        assert_eq!(read_packed(&mut bytes.as_slice(), &mut [0; 2]), None);
        // The same offsets from min u64::MAX − 1 are fine, and so is a
        // width-64 block reaching exactly u64::MAX.
        let mut bytes = Vec::new();
        write_uvarint(&mut bytes, u64::MAX - 1);
        bytes.push(1);
        bytes.push(0b10);
        let mut out = [0u64; 2];
        assert_eq!(read_packed(&mut bytes.as_slice(), &mut out), Some(()));
        assert_eq!(out, [u64::MAX - 1, u64::MAX]);
        let mut bytes = Vec::new();
        write_packed(&mut bytes, &[1, u64::MAX]);
        assert_eq!(bytes[1], 64);
        bytes[0] = 2; // min 2 + offset u64::MAX − 1 overflows
        assert_eq!(read_packed(&mut bytes.as_slice(), &mut out), None);
    }

    #[test]
    fn packed_rejects_truncation_at_every_cut() {
        let values: Vec<u64> = (0..300u64).map(|i| 218 + (i * 7919) % 200_000).collect();
        let mut bytes = Vec::new();
        write_packed(&mut bytes, &values);
        let mut out = vec![0u64; values.len()];
        assert_eq!(read_packed(&mut bytes.as_slice(), &mut out), Some(()));
        assert_eq!(out, values);
        for cut in 0..bytes.len() {
            assert_eq!(
                read_packed(&mut &bytes[..cut], &mut out),
                None,
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn summary_decode_never_panics_on_noise() {
        // Deterministic pseudo-random byte soup, with and without a
        // valid-looking header.
        let mut state = 0x9E3779B97F4A7C15u64;
        for len in 0..64usize {
            let mut noise = Vec::with_capacity(len + 5);
            noise.extend_from_slice(b"QLVS\x02");
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                noise.push((state >> 56) as u8);
            }
            let _ = decode_summary(&noise); // must return, not panic
            let _ = decode_summary(&noise[5..]);
        }
    }
}
