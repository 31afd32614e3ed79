//! Property tests for the two codecs that guard the archive's integrity:
//! the LZW byte codec ([`twpp::lzw`]) and the `l:h:s` timestamp-set wire
//! format ([`twpp::tsset`]).
//!
//! These complement the conformance battery (`twpp selftest`): the
//! battery drives the codecs with its own generators; this suite pins
//! the adversarial corners directly — empty input, single-symbol runs,
//! the dictionary-reset boundary, max-code overflow, and series entries
//! straddling the `i32::MAX` sign-bit framing boundary.
//!
//! The LZW codec is also pinned against [`reference`], the straightforward
//! hash-map, bit-at-a-time codec it replaced: compressed bytes and decode
//! results must match it exactly, so archives never change.

use proptest::prelude::*;

use twpp::bitcodec::{decode_delta_delta, encode_delta_delta, BitReader};
use twpp::lzw::{self, LzwError};
use twpp::tsset::{TsSet, TsSetError};

// ---------------------------------------------------------------------------
// LZW
// ---------------------------------------------------------------------------

#[test]
fn lzw_empty_input_round_trips_to_empty() {
    let c = lzw::compress(&[]);
    assert_eq!(lzw::decompress(&c).unwrap(), Vec::<u8>::new());
    assert_eq!(lzw::compressed_size(&[]), c.len());
    assert_eq!(lzw::decompress_bounded(&c, 0).unwrap(), Vec::<u8>::new());
}

#[test]
fn lzw_round_trips_across_the_dictionary_reset_boundary() {
    // A fixed LCG byte stream has enough digram entropy that the 16-bit
    // dictionary fills somewhere inside this length range; round-trip at
    // several prefix lengths so at least one sits before the clear code,
    // one near it, and one well past it.
    let mut data = Vec::with_capacity(700_000);
    let mut x: u32 = 987_654_321;
    for _ in 0..700_000 {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        data.push((x >> 16) as u8);
    }
    for cut in [65_536, 250_000, 500_000, 620_000, 700_000] {
        let slice = &data[..cut];
        let c = lzw::compress(slice);
        assert_eq!(lzw::decompress(&c).unwrap(), slice, "cut={cut}");
        assert_eq!(lzw::compressed_size(slice), c.len(), "cut={cut}");
    }
}

#[test]
fn lzw_max_code_overflow_resets_cleanly_on_low_entropy_input() {
    // Two-symbol streams grow the dictionary one entry per emitted code:
    // long enough to overflow the max code and force a mid-stream reset
    // even at minimal alphabet size.
    let mut data = Vec::with_capacity(900_000);
    let mut x: u32 = 42;
    for _ in 0..900_000 {
        x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        data.push((x >> 31) as u8);
    }
    let c = lzw::compress(&data);
    assert_eq!(lzw::decompress(&c).unwrap(), data);
}

/// The reference LZW codec: a `HashMap` dictionary and one bit at a time,
/// written for clarity rather than speed. [`twpp::lzw`] must agree with it
/// byte for byte when compressing and result for result when decoding.
mod reference {
    use std::collections::HashMap;

    use twpp::lzw::{LzwError, MAX_CODE_BITS};

    const CLEAR_CODE: u32 = 256;
    const FIRST_CODE: u32 = 257;

    struct BitWriter {
        bytes: Vec<u8>,
        bit_pos: u64,
    }

    impl BitWriter {
        fn write(&mut self, value: u32, bits: u32) {
            for i in 0..bits {
                let bit = (value >> i) & 1;
                let byte_idx = (self.bit_pos / 8) as usize;
                if byte_idx == self.bytes.len() {
                    self.bytes.push(0);
                }
                if bit != 0 {
                    self.bytes[byte_idx] |= 1 << (self.bit_pos % 8);
                }
                self.bit_pos += 1;
            }
        }
    }

    struct BitReader<'a> {
        bytes: &'a [u8],
        bit_pos: usize,
    }

    impl BitReader<'_> {
        fn read(&mut self, bits: u32) -> Option<u32> {
            if self.bit_pos + bits as usize > self.bytes.len() * 8 {
                return None;
            }
            let mut value = 0u32;
            for i in 0..bits {
                let byte = self.bytes[self.bit_pos / 8];
                let bit = (byte >> (self.bit_pos % 8)) & 1;
                value |= u32::from(bit) << i;
                self.bit_pos += 1;
            }
            Some(value)
        }

        fn remaining_bits(&self) -> usize {
            self.bytes.len() * 8 - self.bit_pos
        }
    }

    pub fn compress(input: &[u8]) -> Vec<u8> {
        let mut writer = BitWriter {
            bytes: Vec::new(),
            bit_pos: 0,
        };
        if input.is_empty() {
            return writer.bytes;
        }
        let mut dict: HashMap<(u32, u8), u32> = HashMap::new();
        let mut next_code = FIRST_CODE;
        let mut code_bits = 9u32;
        let mut current = u32::from(input[0]);
        for &byte in &input[1..] {
            match dict.get(&(current, byte)) {
                Some(&code) => current = code,
                None => {
                    writer.write(current, code_bits);
                    dict.insert((current, byte), next_code);
                    next_code += 1;
                    if next_code > (1 << code_bits) && code_bits < MAX_CODE_BITS {
                        code_bits += 1;
                    }
                    if next_code == (1 << MAX_CODE_BITS) {
                        writer.write(CLEAR_CODE, code_bits);
                        dict.clear();
                        next_code = FIRST_CODE;
                        code_bits = 9;
                    }
                    current = u32::from(byte);
                }
            }
        }
        writer.write(current, code_bits);
        writer.bytes
    }

    pub fn decompress_bounded(input: &[u8], max_output: usize) -> Result<Vec<u8>, LzwError> {
        let mut reader = BitReader {
            bytes: input,
            bit_pos: 0,
        };
        let mut output = Vec::new();
        if input.is_empty() {
            return Ok(output);
        }
        const NONE: u32 = u32::MAX;
        let mut dict: Vec<(u32, u8)> = Vec::new();
        let mut code_bits = 9u32;
        let mut prev: Option<u32> = None;

        let first_byte_of = |dict: &[(u32, u8)], mut code: u32| -> Result<u8, LzwError> {
            loop {
                if code < 256 {
                    return Ok(code as u8);
                }
                let idx = (code - FIRST_CODE) as usize;
                let &(prefix, _) = dict.get(idx).ok_or(LzwError::BadCode(code))?;
                if prefix == NONE {
                    return Err(LzwError::BadCode(code));
                }
                code = prefix;
            }
        };
        let expand =
            |dict: &[(u32, u8)], mut code: u32, out: &mut Vec<u8>| -> Result<(), LzwError> {
                let start = out.len();
                loop {
                    if code < 256 {
                        out.push(code as u8);
                        break;
                    }
                    let idx = (code - FIRST_CODE) as usize;
                    let &(prefix, byte) = dict.get(idx).ok_or(LzwError::BadCode(code))?;
                    out.push(byte);
                    if prefix == NONE {
                        return Err(LzwError::BadCode(code));
                    }
                    code = prefix;
                }
                out[start..].reverse();
                Ok(())
            };

        loop {
            if reader.remaining_bits() < code_bits as usize {
                return Ok(output);
            }
            let code = reader.read(code_bits).ok_or(LzwError::Truncated)?;
            if code == CLEAR_CODE {
                dict.clear();
                code_bits = 9;
                prev = None;
                continue;
            }
            let next_code = FIRST_CODE + dict.len() as u32;
            match prev {
                None => {
                    if code >= 256 {
                        return Err(LzwError::BadCode(code));
                    }
                    output.push(code as u8);
                }
                Some(p) => {
                    if code < next_code {
                        let first = first_byte_of(&dict, code)?;
                        expand(&dict, code, &mut output)?;
                        dict.push((p, first));
                    } else if code == next_code {
                        let first = first_byte_of(&dict, p)?;
                        dict.push((p, first));
                        expand(&dict, code, &mut output)?;
                    } else {
                        return Err(LzwError::BadCode(code));
                    }
                    let defined = FIRST_CODE + dict.len() as u32;
                    if defined + 1 > (1 << code_bits) && code_bits < MAX_CODE_BITS {
                        code_bits += 1;
                    }
                }
            }
            if output.len() > max_output {
                return Err(LzwError::OutputLimit(max_output));
            }
            prev = Some(code);
        }
    }
}

/// A seeded LCG byte stream keeping the top `bits` bits of each step:
/// 8 gives near-random bytes, which fill the dictionary after ~10^5
/// bytes; fewer bits give lower-entropy streams that fill it later.
fn lcg_bytes(seed: u32, len: usize, bits: u32) -> Vec<u8> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (x >> (32 - bits)) as u8
        })
        .collect()
}

/// Asserts that both decoders give the same result for `stream` under
/// each of a few caps around `hint` (for a valid stream, its decoded
/// length).
fn assert_decodes_like_reference(stream: &[u8], hint: usize) {
    for cap in [0, hint.saturating_sub(1), hint, lzw::DEFAULT_MAX_OUTPUT] {
        assert_eq!(
            lzw::decompress_bounded(stream, cap),
            reference::decompress_bounded(stream, cap),
            "stream of {} bytes, cap {cap}",
            stream.len()
        );
    }
}

#[test]
fn lzw_matches_the_reference_across_dictionary_resets() {
    // Four resets of near-random bytes, one of a two-symbol stream and
    // two of a four-symbol stream.
    for (seed, len, bits) in [(1, 400_000, 8), (2, 1_200_000, 1), (3, 1_000_000, 2)] {
        let data = lcg_bytes(seed, len, bits);
        let c = lzw::compress(&data);
        assert_eq!(c, reference::compress(&data), "seed={seed} bits={bits}");
        assert_decodes_like_reference(&c, data.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn lzw_round_trips_arbitrary_bytes(data in prop::collection::vec(any::<u8>(), 0..4096)) {
        let c = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress(&c).unwrap(), data.clone());
        prop_assert_eq!(lzw::compressed_size(&data), c.len());
    }

    #[test]
    fn lzw_round_trips_single_symbol_runs(sym in any::<u8>(), len in 0usize..20_000) {
        // KwKwK territory: every code refers to the just-defined entry.
        let data = vec![sym; len];
        let c = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lzw_round_trips_tiny_alphabets(
        data in prop::collection::vec(0u8..3, 0..8192),
    ) {
        // Low-entropy streams churn the dictionary fastest per input byte.
        let c = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lzw_truncation_never_panics_and_yields_a_prefix(
        data in prop::collection::vec(any::<u8>(), 1..2048),
        cut_permille in 0u32..1000,
    ) {
        let c = lzw::compress(&data);
        let cut = (c.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        if let Ok(d) = lzw::decompress(&c[..cut]) {
            prop_assert!(data.starts_with(&d));
        }
    }

    #[test]
    fn lzw_bounded_decode_enforces_its_cap(
        data in prop::collection::vec(any::<u8>(), 1..2048),
    ) {
        let c = lzw::compress(&data);
        prop_assert_eq!(lzw::decompress_bounded(&c, data.len()).unwrap(), data.clone());
        prop_assert_eq!(
            lzw::decompress_bounded(&c, data.len() - 1),
            Err(LzwError::OutputLimit(data.len() - 1))
        );
    }

    #[test]
    fn lzw_compress_matches_the_reference(
        data in prop::collection::vec(any::<u8>(), 0..4096),
        alphabet in prop::collection::vec(0u8..4, 0..8192),
    ) {
        prop_assert_eq!(lzw::compress(&data), reference::compress(&data));
        prop_assert_eq!(lzw::compress(&alphabet), reference::compress(&alphabet));
    }

    #[test]
    fn lzw_decode_matches_the_reference_on_garbage(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
        cap in 0usize..4096,
    ) {
        assert_decodes_like_reference(&garbage, cap);
    }

    #[test]
    fn lzw_decompress_of_garbage_never_panics(
        garbage in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        // Any outcome is fine; crashing or unbounded growth is not.
        let _ = lzw::decompress_bounded(&garbage, 1 << 16);
    }
}

proptest! {
    // Each case compresses or decodes many times over with the
    // bit-at-a-time reference, so fewer cases.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lzw_long_inputs_match_the_reference(
        seed in any::<u32>(),
        len in 150_000usize..250_000,
        bits in 6u32..9,
    ) {
        // At 64 symbols or more, streams this long cross the 16-bit
        // dictionary reset at least once.
        let data = lcg_bytes(seed, len, bits);
        prop_assert_eq!(lzw::compress(&data), reference::compress(&data));
    }

    #[test]
    fn lzw_decode_matches_the_reference_on_every_truncation(
        data in prop::collection::vec(0u8..8, 1..512),
    ) {
        let c = lzw::compress(&data);
        for cut in 0..=c.len() {
            assert_decodes_like_reference(&c[..cut], data.len());
        }
    }
}

// ---------------------------------------------------------------------------
// Delta-of-delta bit codec (adaptive archive codec, DESIGN.md §16)
// ---------------------------------------------------------------------------

#[test]
fn dd_degenerate_shapes_round_trip_exactly() {
    // Single element, constant step (dod == 0 everywhere), step jumps,
    // and the minimal value 1: the shapes the adaptive selector feeds
    // the codec most often.
    let cases: &[&[u32]] = &[
        &[1],
        &[7],
        &[i32::MAX as u32],
        &[1, 2],
        &[1, 2, 3, 4, 5, 6, 7, 8],
        &[10, 20, 30, 40, 50],
        &[1, 100, 101, 102, 5_000, 5_001],
        &[1, 2, 4, 8, 16, 32, 64, 128],
    ];
    for values in cases {
        let words = encode_delta_delta(values);
        let cap = *values.last().unwrap();
        assert_eq!(
            decode_delta_delta(&words, cap).unwrap(),
            *values,
            "values={values:?}"
        );
    }
    // Empty decode: a zero count with no payload is the empty vector.
    assert_eq!(decode_delta_delta(&encode_delta_delta(&[]), 1).unwrap(), []);
}

// ---------------------------------------------------------------------------
// TsSet `l:h:s` wire format
// ---------------------------------------------------------------------------

/// A strictly increasing timestamp vector whose runs straddle `around`:
/// the generated values cross from below the pivot to above it, so wire
/// encodings exercise both sides of any framing boundary at the pivot.
fn straddling_values(around: u32, below: u32, spec: &[(u32, u32)]) -> Vec<u32> {
    // `spec` is (len, step) pairs; runs are laid out back to back
    // starting `below` under the pivot.
    let mut out = Vec::new();
    let mut cursor = u64::from(around.saturating_sub(below));
    for &(len, step) in spec {
        for _ in 0..len {
            if cursor > u64::from(u32::MAX) {
                return out;
            }
            out.push(cursor as u32);
            cursor += u64::from(step.max(1));
        }
        cursor += 1;
    }
    out
}

#[test]
fn tsset_series_straddling_the_sign_bit_boundary_encode_iff_in_range() {
    let pivot = i32::MAX as u32;
    // Entirely below the boundary (last element == i32::MAX): encodable.
    let v = straddling_values(pivot, 8, &[(3, 4)]); // 2147483639, 43, 47
    assert_eq!(*v.last().unwrap(), pivot);
    let set = TsSet::from_sorted(&v);
    assert_eq!(set.to_vec(), v);
    let wire = set.to_wire().expect("values ≤ i32::MAX encode");
    assert_eq!(TsSet::from_wire(&wire).unwrap(), set);

    // Crossing the boundary: membership is fine, wire encoding must
    // refuse with TimestampOverflow naming the first bad value.
    let v = straddling_values(pivot, 8, &[(6, 4)]); // crosses i32::MAX
    assert!(v.iter().any(|&x| x > pivot) && v.iter().any(|&x| x <= pivot));
    let set = TsSet::from_sorted(&v);
    assert_eq!(set.to_vec(), v);
    match set.to_wire() {
        Err(TsSetError::TimestampOverflow { value }) => {
            assert!(
                value > u64::from(pivot),
                "reported value {value} not past the boundary"
            )
        }
        other => panic!("expected TimestampOverflow, got {other:?}"),
    }

    // One past the boundary as a lone singleton: same refusal.
    let set = TsSet::from_sorted(&[pivot + 1]);
    assert!(matches!(
        set.to_wire(),
        Err(TsSetError::TimestampOverflow { .. })
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn tsset_wire_round_trips_near_the_boundary(
        below in 1u32..2048,
        runs in prop::collection::vec((1u32..12, 1u32..8), 1..6),
    ) {
        let pivot = i32::MAX as u32;
        let values = straddling_values(pivot, below, &runs);
        if values.is_empty() {
            return; // degenerate spec: nothing to encode
        }
        let set = TsSet::from_sorted(&values);
        prop_assert_eq!(set.to_vec(), values.clone());
        let overflows = values.iter().any(|&v| v > pivot);
        match set.to_wire() {
            Ok(wire) => {
                prop_assert!(!overflows, "encoded a value past i32::MAX");
                // Sign-delimited framing: every entry boundary is marked
                // by exactly one negative word.
                let negatives = wire.iter().filter(|&&w| w < 0).count();
                prop_assert_eq!(negatives, set.entries().len());
                prop_assert_eq!(TsSet::from_wire(&wire).unwrap(), set);
            }
            Err(TsSetError::TimestampOverflow { value }) => {
                prop_assert!(overflows, "spurious overflow for {value}");
            }
            Err(other) => prop_assert!(false, "unexpected encode error: {other}"),
        }
    }

    #[test]
    fn tsset_from_wire_rejects_garbage_without_panicking(
        words in prop::collection::vec(any::<i32>(), 0..64),
    ) {
        if let Ok(set) = TsSet::from_wire(&words) {
            // Entry-level round trip: cheap no matter how many members
            // the entries claim, since equality compares entries.
            let wire = set.to_wire().unwrap();
            prop_assert_eq!(TsSet::from_wire(&wire).unwrap(), set);
        }
        // Membership-level invariant through the capped decoder, so a
        // two-word range claiming 2^31 members cannot stall the suite
        // by materialising on `to_vec`.
        if let Ok(set) = TsSet::from_wire_capped(&words, 1 << 16) {
            let v = set.to_vec();
            prop_assert!(v.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn dd_round_trips_sorted_timestamp_vectors(
        start in 1u32..100_000,
        gaps in prop::collection::vec(1u32..5_000, 0..128),
    ) {
        // Arbitrary strictly increasing vectors, including a lone
        // singleton when `gaps` is empty.
        let mut values = vec![start];
        for g in gaps {
            let next = u64::from(*values.last().unwrap()) + u64::from(g);
            if next > u64::from(i32::MAX as u32) {
                break;
            }
            values.push(next as u32);
        }
        let words = encode_delta_delta(&values);
        let cap = *values.last().unwrap();
        prop_assert_eq!(decode_delta_delta(&words, cap).unwrap(), values.clone());
        // A cap one below the max must be rejected, not clamped.
        if cap > 1 {
            prop_assert!(decode_delta_delta(&words, cap - 1).is_err());
        }
    }

    #[test]
    fn dd_truncation_at_every_bit_offset_never_panics(
        start in 1u32..10_000,
        gaps in prop::collection::vec(1u32..3_000, 1..48),
    ) {
        let mut values = vec![start];
        for g in gaps {
            values.push(values.last().unwrap() + g);
        }
        let words = encode_delta_delta(&values);
        let cap = *values.last().unwrap();
        // Word-level truncation through the full decoder: every prefix
        // must fail cleanly (the count header promises more values).
        for cut in 0..words.len() {
            prop_assert!(decode_delta_delta(&words[..cut], cap).is_err(), "cut={cut}");
        }
        // Bit-level truncation through the reader itself: from every
        // offset, draining the stream and asking for one more bit is a
        // typed error, never a panic — and the failed read must not
        // advance the cursor.
        let total_bits = words.len() * 32;
        for bits in 0..total_bits.min(256) {
            let mut r = BitReader::new(&words);
            let mut left = bits;
            while left > 0 {
                let take = left.min(24) as u32;
                r.read_bits(take).unwrap();
                left -= take as usize;
            }
            let remaining = total_bits - bits;
            if remaining < 64 {
                prop_assert!(r.read_bits(remaining as u32 + 1).is_err());
                prop_assert_eq!(r.remaining_bits(), remaining, "failed read moved the cursor");
            }
            let mut left = remaining;
            while left > 0 {
                let take = left.min(32) as u32;
                r.read_bits(take).unwrap();
                left -= take as usize;
            }
            prop_assert!(r.read_bits(1).is_err());
        }
    }

    #[test]
    fn dd_decode_of_garbage_never_panics(
        words in prop::collection::vec(any::<u32>(), 0..64),
        cap in 1u32..1_000_000,
    ) {
        // Any verdict is fine; a panic or unbounded allocation is not.
        if let Ok(values) = decode_delta_delta(&words, cap) {
            prop_assert!(values.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(values.first().is_none_or(|&v| v >= 1));
            prop_assert!(values.last().is_none_or(|&v| v <= cap));
        }
    }

    #[test]
    fn tsset_from_wire_capped_bounds_hostile_ranges(
        first in 1u32..1000, extra in 1u32..100_000, cap in 1u32..50_000,
    ) {
        // A two-word range entry can claim millions of members; the
        // capped decoder must reject anything whose max exceeds the cap
        // before materialisation.
        let last = first.saturating_add(extra);
        // `f, -l` is the two-word step-1 range encoding.
        let words = vec![first as i32, -(i64::from(last)) as i32];
        match TsSet::from_wire_capped(&words, cap) {
            Ok(set) => prop_assert!(set.last().unwrap_or(0) <= cap),
            Err(TsSetError::ExceedsCap { value, cap: c }) => {
                prop_assert!(value > c);
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
    }
}
