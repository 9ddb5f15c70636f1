//! Canonical, length-limited Huffman codes.
//!
//! Code lengths are computed with the package-merge algorithm (optimal
//! under a maximum-length constraint), then assigned canonically so only
//! the lengths need to be transmitted. Codes are stored bit-reversed so
//! the LSB-first bitstream can be decoded with a flat peek table.

use super::bitstream::{BitReader, BitWriter, OutOfBits};

/// Maximum code length (fits the 4-bit length fields in block headers).
pub(super) const MAX_CODE_LEN: u8 = 15;

/// Computes optimal length-limited code lengths for `freqs` via
/// package-merge. Symbols with zero frequency get length 0. A lone active
/// symbol gets length 1.
pub(super) fn build_code_lengths(freqs: &[u64], max_len: u8) -> Vec<u8> {
    let n = freqs.len();
    let mut lengths = vec![0u8; n];
    let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match active.len() {
        0 => return lengths,
        1 => {
            lengths[active[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    assert!(
        (1usize << max_len) >= active.len(),
        "alphabet of {} cannot fit in {}-bit codes",
        active.len(),
        max_len
    );

    // Items are (weight, contributing leaf symbols).
    #[derive(Clone)]
    struct Item {
        weight: u64,
        leaves: Vec<usize>,
    }

    let mut leaves: Vec<Item> = active
        .iter()
        .map(|&i| Item {
            weight: freqs[i],
            leaves: vec![i],
        })
        .collect();
    // Sort by weight, breaking ties by symbol for determinism.
    leaves.sort_by_key(|it| (it.weight, it.leaves[0]));

    let mut prev: Vec<Item> = Vec::new();
    for _ in 0..max_len {
        // Merge leaves with packages of the previous level.
        let mut packages: Vec<Item> = Vec::with_capacity(prev.len() / 2);
        let mut iter = prev.chunks_exact(2);
        for pair in &mut iter {
            let mut leaves_union = pair[0].leaves.clone();
            leaves_union.extend_from_slice(&pair[1].leaves);
            packages.push(Item {
                weight: pair[0].weight + pair[1].weight,
                leaves: leaves_union,
            });
        }
        let mut merged = Vec::with_capacity(leaves.len() + packages.len());
        let (mut i, mut j) = (0, 0);
        while i < leaves.len() && j < packages.len() {
            if leaves[i].weight <= packages[j].weight {
                merged.push(leaves[i].clone());
                i += 1;
            } else {
                merged.push(packages[j].clone());
                j += 1;
            }
        }
        merged.extend_from_slice(&leaves[i..]);
        merged.extend(packages.into_iter().skip(j));
        prev = merged;
    }

    // The first 2n-2 items of the final list define the lengths.
    let take = 2 * active.len() - 2;
    for item in prev.iter().take(take) {
        for &sym in &item.leaves {
            lengths[sym] += 1;
        }
    }
    debug_assert!(lengths.iter().all(|&l| l <= max_len));
    debug_assert!(
        kraft_exact(&lengths),
        "package-merge produced a non-complete code"
    );
    lengths
}

/// Checks the Kraft equality Σ 2^-len == 1 (complete prefix code).
fn kraft_exact(lengths: &[u8]) -> bool {
    let mut sum: u64 = 0;
    let unit: u64 = 1 << MAX_CODE_LEN;
    for &l in lengths {
        if l > 0 {
            sum += unit >> l;
        }
    }
    sum == unit || lengths.iter().all(|&l| l == 0)
}

/// A canonical encoder table: bit-reversed code + length per symbol.
pub(super) struct Encoder {
    codes: Vec<u32>,
    lengths: Vec<u8>,
}

impl Encoder {
    /// Builds the canonical code from lengths.
    pub(super) fn from_lengths(lengths: &[u8]) -> Self {
        let mut bl_count = [0u32; MAX_CODE_LEN as usize + 1];
        for &l in lengths {
            bl_count[l as usize] += 1;
        }
        bl_count[0] = 0;
        let mut next_code = [0u32; MAX_CODE_LEN as usize + 2];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN as usize {
            code = (code + bl_count[len - 1]) << 1;
            next_code[len] = code;
        }
        let mut codes = vec![0u32; lengths.len()];
        for (sym, &len) in lengths.iter().enumerate() {
            if len > 0 {
                let c = next_code[len as usize];
                next_code[len as usize] += 1;
                codes[sym] = reverse_bits(c, len);
            }
        }
        Encoder {
            codes,
            lengths: lengths.to_vec(),
        }
    }

    /// Emits `sym`'s code.
    pub(super) fn write(&self, w: &mut BitWriter, sym: u16) {
        let len = self.lengths[sym as usize];
        debug_assert!(len > 0, "writing symbol {sym} with no code");
        w.write_bits(self.codes[sym as usize], len as u32);
    }
}

fn reverse_bits(code: u32, len: u8) -> u32 {
    let mut out = 0u32;
    for i in 0..len as u32 {
        out |= ((code >> i) & 1) << (len as u32 - 1 - i);
    }
    out
}

/// A flat peek-table decoder for a canonical code.
pub(super) struct Decoder {
    /// Indexed by `peek_bits(max_len)`: packed `(symbol << 4) | len`.
    table: Vec<u32>,
    max_len: u32,
}

impl Decoder {
    /// Builds the decode table from code lengths.
    pub(super) fn from_lengths(lengths: &[u8]) -> Self {
        let max_len = lengths.iter().copied().max().unwrap_or(0).max(1) as u32;
        let enc = Encoder::from_lengths(lengths);
        let mut table = vec![u32::MAX; 1usize << max_len];
        for (sym, &len) in lengths.iter().enumerate() {
            if len == 0 {
                continue;
            }
            let code = enc.codes[sym]; // already bit-reversed
            let step = 1usize << len;
            let mut idx = code as usize;
            while idx < table.len() {
                table[idx] = ((sym as u32) << 4) | len as u32;
                idx += step;
            }
        }
        Decoder { table, max_len }
    }

    /// Decodes one symbol.
    pub(super) fn read(&self, r: &mut BitReader<'_>) -> Result<u16, DecodeSymbolError> {
        let peek = r.peek_bits(self.max_len);
        let entry = self.table[peek as usize];
        if entry == u32::MAX {
            return Err(DecodeSymbolError::BadCode);
        }
        let len = entry & 0xF;
        r.consume(len).map_err(|_| DecodeSymbolError::OutOfBits)?;
        Ok((entry >> 4) as u16)
    }
}

/// Errors from symbol decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodeSymbolError {
    /// Bit pattern not assigned to any symbol.
    BadCode,
    /// Input exhausted mid-symbol.
    OutOfBits,
}

impl From<OutOfBits> for DecodeSymbolError {
    fn from(_: OutOfBits) -> Self {
        DecodeSymbolError::OutOfBits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths_satisfy_kraft() {
        let freqs = vec![5u64, 9, 12, 13, 16, 45];
        let lengths = build_code_lengths(&freqs, 15);
        assert!(kraft_exact(&lengths));
        // Most frequent symbol gets the shortest code.
        let min = lengths.iter().filter(|&&l| l > 0).min().unwrap();
        assert_eq!(lengths[5], *min);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let mut freqs = vec![0u64; 10];
        freqs[3] = 100;
        let lengths = build_code_lengths(&freqs, 15);
        assert_eq!(lengths[3], 1);
        assert_eq!(lengths.iter().map(|&l| l as u32).sum::<u32>(), 1);
    }

    #[test]
    fn length_limit_is_respected() {
        // Fibonacci-ish frequencies force deep trees without a limit.
        let mut freqs = vec![0u64; 20];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        for limit in [5u8, 6, 8, 15] {
            let lengths = build_code_lengths(&freqs, limit);
            assert!(
                lengths.iter().all(|&l| l <= limit),
                "limit {limit}: {lengths:?}"
            );
            assert!(kraft_exact(&lengths));
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let freqs = vec![50u64, 30, 10, 5, 3, 1, 1, 0, 7, 19];
        let lengths = build_code_lengths(&freqs, 15);
        let enc = Encoder::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths);
        let symbols: Vec<u16> = (0..10_000u32)
            .map(|i| {
                let s = (i * 7 + i / 13) % 10;
                if s == 7 {
                    0
                } else {
                    s as u16
                } // symbol 7 has no code
            })
            .collect();
        let mut w = BitWriter::new();
        for &s in &symbols {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &s in &symbols {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn decoder_rejects_unassigned_pattern() {
        // A lone 1-bit code leaves the other pattern unassigned.
        let lengths = vec![1u8, 0];
        let dec = Decoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        w.write_bits(1, 1); // the unused pattern
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(dec.read(&mut r), Err(DecodeSymbolError::BadCode));
    }

    #[test]
    fn decoder_detects_truncated_stream() {
        let lengths = build_code_lengths(&[3, 3, 2, 1], 15);
        let enc = Encoder::from_lengths(&lengths);
        let dec = Decoder::from_lengths(&lengths);
        let mut w = BitWriter::new();
        for s in [0u16, 1, 2, 3, 0, 1] {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        // Clip to fewer bits than the stream needs; decoding must end in
        // BadCode/OutOfBits rather than looping or panicking.
        let mut r = BitReader::new(&bytes[..1]);
        let mut decoded = 0;
        while decoded < 6 {
            match dec.read(&mut r) {
                Ok(_) => decoded += 1,
                Err(_) => break,
            }
        }
        assert!(decoded < 6, "truncated stream cannot decode fully");
    }

    #[test]
    fn uniform_two_symbols() {
        let lengths = build_code_lengths(&[1, 1], 15);
        assert_eq!(lengths, vec![1, 1]);
    }
}
