//! LZW compression (Welch's variation of the Ziv–Lempel adaptive dictionary
//! scheme), used by the paper to compress the dynamic call graph.
//!
//! Variable-width codes from 9 up to [`MAX_CODE_BITS`] bits, packed least
//! significant bit first with the last byte zero-padded; when the
//! dictionary fills, a clear code resets it, so arbitrarily long inputs
//! stay adaptive. The format is self-contained: the decoder rebuilds the
//! dictionary from the code stream alone.
//!
//! The encoder keeps its dictionary in a fixed-capacity open-addressing
//! table: one flat `u64` array whose slots pack the `prefix << 8 | byte`
//! key above the 16-bit code, found by a multiplicative hash and linear
//! probing. A dictionary cycle defines fewer than 2^16 entries, so the
//! largest table (2^17 slots, 1 MiB) stays at most half full; shorter
//! inputs get a table sized to them. The clear code zeroes it. Both
//! directions move bits through a 64-bit accumulator: the writer spills
//! whole 32-bit words and the reader refills bytes only when it runs low,
//! so a code costs a shift and a mask rather than a loop over its bits.

#![deny(clippy::unwrap_used)]

use std::error::Error;
use std::fmt;

/// Maximum code width in bits.
pub const MAX_CODE_BITS: u32 = 16;

/// Default decompressed-output cap for [`decompress`] (1 GiB).
///
/// LZW output can grow quadratically in the input size for adversarial
/// streams (each code may expand to a dictionary entry tens of kilobytes
/// long), so every decode path is bounded. Callers that know a tighter
/// bound should use [`decompress_bounded`].
pub const DEFAULT_MAX_OUTPUT: usize = 1 << 30;

const CLEAR_CODE: u32 = 256;
const FIRST_CODE: u32 = 257;

/// Errors produced while decompressing.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum LzwError {
    /// A code referenced a dictionary entry that does not exist yet.
    BadCode(u32),
    /// The bit stream ended inside a code.
    Truncated,
    /// Decompression exceeded the caller's output cap — the stream is
    /// either hostile or destined for a larger budget.
    OutputLimit(usize),
}

impl fmt::Display for LzwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LzwError::BadCode(c) => write!(f, "invalid LZW code {c}"),
            LzwError::Truncated => f.write_str("truncated LZW stream"),
            LzwError::OutputLimit(cap) => {
                write!(f, "LZW output exceeds the {cap}-byte cap")
            }
        }
    }
}

impl Error for LzwError {}

/// Slots in the largest encoder dictionary table: twice the most entries
/// one dictionary cycle can define, so the table is never more than half
/// full and a probe ends after a few slots.
const MAX_SLOTS: usize = 2 << MAX_CODE_BITS;

/// Slots in the smallest encoder dictionary table.
const MIN_SLOTS: usize = 64;

/// The encoder's dictionary: `(prefix code, next byte) -> code` in a
/// fixed-capacity open-addressing table with linear probing. A slot packs
/// the `prefix << 8 | byte` key above the 16-bit code; 0 marks an empty
/// slot (no entry has code 0, entries start at [`FIRST_CODE`]).
struct Dictionary {
    slots: Vec<u64>,
    /// `32 - log2(slots.len())`: the multiplicative hash keeps its top bits.
    shift: u32,
}

impl Dictionary {
    /// A table sized for `input_len` bytes: an input defines at most one
    /// entry per byte, so short inputs get a short table.
    fn for_input(input_len: usize) -> Dictionary {
        let slots = (2 * input_len)
            .next_power_of_two()
            .clamp(MIN_SLOTS, MAX_SLOTS);
        Dictionary {
            slots: vec![0; slots],
            shift: 32 - slots.trailing_zeros(),
        }
    }

    /// The code of `(prefix, byte)`, or `None` after defining it as `code`.
    #[inline]
    fn find_or_insert(&mut self, prefix: u32, byte: u8, code: u32) -> Option<u32> {
        let key = (prefix << 8) | u32::from(byte);
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B1) >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                self.slots[i] = (u64::from(key) << 16) | u64::from(code);
                return None;
            }
            if (slot >> 16) as u32 == key {
                return Some((slot & 0xFFFF) as u32);
            }
            i = (i + 1) & mask;
        }
    }

    fn clear(&mut self) {
        self.slots.fill(0);
    }
}

/// Packs codes least-significant bit first through a 64-bit accumulator,
/// spilling whole 32-bit words to the output.
struct BitWriter {
    bytes: Vec<u8>,
    acc: u64,
    /// Bits pending in `acc` (always < 32 between writes).
    pending: u32,
}

impl BitWriter {
    fn new() -> BitWriter {
        BitWriter {
            bytes: Vec::new(),
            acc: 0,
            pending: 0,
        }
    }

    #[inline]
    fn write(&mut self, value: u32, bits: u32) {
        debug_assert!(value < 1 << bits);
        self.acc |= u64::from(value) << self.pending;
        self.pending += bits;
        if self.pending >= 32 {
            self.bytes.extend_from_slice(&(self.acc as u32).to_le_bytes());
            self.acc >>= 32;
            self.pending -= 32;
        }
    }

    /// Flushes the pending bits, zero-padding the last byte.
    fn finish(mut self) -> Vec<u8> {
        let tail = self.pending.div_ceil(8) as usize;
        self.bytes.extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.bytes
    }
}

/// Reads codes least-significant bit first, refilling a 64-bit
/// accumulator a byte at a time only when it runs low.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into `acc`.
    pos: usize,
    acc: u64,
    /// Bits loaded in `acc` and not yet read.
    loaded: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader {
            bytes,
            pos: 0,
            acc: 0,
            loaded: 0,
        }
    }

    /// The next `bits` bits, or `None` (consuming nothing) if fewer remain.
    #[inline]
    fn read(&mut self, bits: u32) -> Option<u32> {
        if self.loaded < bits {
            while self.loaded <= 56 {
                let Some(&b) = self.bytes.get(self.pos) else {
                    break;
                };
                self.acc |= u64::from(b) << self.loaded;
                self.loaded += 8;
                self.pos += 1;
            }
            if self.loaded < bits {
                return None;
            }
        }
        let value = (self.acc & ((1 << bits) - 1)) as u32;
        self.acc >>= bits;
        self.loaded -= bits;
        Some(value)
    }

    /// Remaining bits, all of which must be padding zeroes at end of stream.
    fn remaining_bits(&self) -> usize {
        (self.bytes.len() - self.pos) * 8 + self.loaded as usize
    }
}

/// Compresses `input` with LZW.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let Some((&first, rest)) = input.split_first() else {
        return Vec::new();
    };
    let mut writer = BitWriter::new();
    let mut dict = Dictionary::for_input(input.len());
    let mut next_code = FIRST_CODE;
    let mut code_bits = 9u32;
    let mut current = u32::from(first);
    for &byte in rest {
        if let Some(code) = dict.find_or_insert(current, byte, next_code) {
            current = code;
            continue;
        }
        writer.write(current, code_bits);
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
    writer.write(current, code_bits);
    writer.finish()
}

/// Decompresses an LZW stream produced by [`compress`], capping the output
/// at [`DEFAULT_MAX_OUTPUT`] bytes.
///
/// # Errors
///
/// Returns an [`LzwError`] if the stream is truncated, references
/// impossible codes, or expands past the cap.
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, LzwError> {
    decompress_bounded(input, DEFAULT_MAX_OUTPUT)
}

/// One decoder dictionary entry: the code's string is the prefix code's
/// string followed by `byte`, and starts with `first`.
#[derive(Copy, Clone)]
struct Entry {
    prefix: u32,
    byte: u8,
    first: u8,
}

/// Decompresses an LZW stream with a caller-supplied output cap — the
/// bounded-decoding entry point for untrusted input.
///
/// # Errors
///
/// Returns [`LzwError::OutputLimit`] as soon as the decoded output would
/// exceed `max_output` bytes (the partial output is discarded), or any
/// other [`LzwError`] for malformed streams.
pub fn decompress_bounded(input: &[u8], max_output: usize) -> Result<Vec<u8>, LzwError> {
    let mut reader = BitReader::new(input);
    let mut output = Vec::new();
    // Entry `code - FIRST_CODE` defines `code`; codes below 256 are
    // implicit single bytes.
    let mut dict: Vec<Entry> = Vec::new();
    let mut code_bits = 9u32;
    let mut prev: Option<u32> = None;

    let entry = |dict: &[Entry], code: u32| -> Result<Entry, LzwError> {
        dict.get(code.wrapping_sub(FIRST_CODE) as usize)
            .copied()
            .ok_or(LzwError::BadCode(code))
    };
    let first_byte_of = |dict: &[Entry], code: u32| -> Result<u8, LzwError> {
        if code < 256 {
            Ok(code as u8)
        } else {
            Ok(entry(dict, code)?.first)
        }
    };
    let expand = |dict: &[Entry], mut code: u32, out: &mut Vec<u8>| -> Result<(), LzwError> {
        let start = out.len();
        while code >= FIRST_CODE {
            let e = entry(dict, code)?;
            out.push(e.byte);
            code = e.prefix;
        }
        out.push(code as u8);
        out[start..].reverse();
        Ok(())
    };

    loop {
        if reader.remaining_bits() < code_bits as usize {
            // Any leftover bits must be zero padding.
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
                let first = if code < next_code {
                    // Known code: emit it, then record p + first(code).
                    let first = first_byte_of(&dict, code)?;
                    expand(&dict, code, &mut output)?;
                    first
                } else if code == next_code {
                    // The classic KwKwK case: the new entry is p + first(p).
                    first_byte_of(&dict, p)?
                } else {
                    return Err(LzwError::BadCode(code));
                };
                dict.push(Entry {
                    prefix: p,
                    byte: first,
                    first: first_byte_of(&dict, p)?,
                });
                if code == next_code {
                    expand(&dict, code, &mut output)?;
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

/// Convenience: compressed size of `input` in bytes.
pub fn compressed_size(input: &[u8]) -> usize {
    compress(input).len()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c).unwrap();
        assert_eq!(d, data, "round trip failed for {} bytes", data.len());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"aaa");
    }

    #[test]
    fn repetitive_input_compresses() {
        let data: Vec<u8> = b"abcabcabcabc".iter().copied().cycle().take(10_000).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4, "{} vs {}", c.len(), data.len());
        assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn kwkwk_case() {
        // "abababab..." exercises the code == next_code path.
        let data: Vec<u8> = std::iter::repeat_n([b'a', b'b'], 500)
            .flatten()
            .collect();
        round_trip(&data);
    }

    #[test]
    fn all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(5_000).collect();
        round_trip(&data);
    }

    #[test]
    fn long_input_with_dictionary_reset() {
        // Enough distinct digrams to overflow the 16-bit dictionary.
        let mut data = Vec::new();
        let mut x: u32 = 12345;
        for _ in 0..600_000 {
            x = x.wrapping_mul(1103515245).wrapping_add(12345);
            data.push((x >> 16) as u8);
        }
        round_trip(&data);
    }

    #[test]
    fn truncated_stream_is_rejected_or_prefix() {
        let data: Vec<u8> = b"the quick brown fox jumps over the lazy dog"
            .iter()
            .copied()
            .cycle()
            .take(2_000)
            .collect();
        let c = compress(&data);
        // Cutting the stream must never panic; it either errors or yields a
        // prefix of the original.
        for cut in 0..c.len() {
            if let Ok(d) = decompress(&c[..cut]) { assert!(data.starts_with(&d)) }
        }
    }

    #[test]
    fn output_cap_is_enforced() {
        let data: Vec<u8> = b"abcabcabc".iter().copied().cycle().take(10_000).collect();
        let c = compress(&data);
        // Exact size passes; one byte less trips the cap.
        assert_eq!(decompress_bounded(&c, data.len()).unwrap(), data);
        assert_eq!(
            decompress_bounded(&c, data.len() - 1),
            Err(LzwError::OutputLimit(data.len() - 1))
        );
    }

    #[test]
    fn structured_words_compress_like_a_dcg() {
        // A DCG serialization is a u32 stream with heavy repetition; check
        // LZW gets a real factor on that shape.
        let mut words: Vec<u32> = Vec::new();
        for i in 0..20_000u32 {
            words.extend_from_slice(&[i % 7, i % 3, 2, 0]);
        }
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let c = compress(&bytes);
        assert!(c.len() * 5 < bytes.len());
        assert_eq!(decompress(&c).unwrap(), bytes);
    }
}
