//! Content-defined chunking deduplication — the function of the
//! BlueField-2 dedup engine (paper §3).
//!
//! Uses a gear rolling hash to place chunk boundaries at content-defined
//! cut points (so inserts/deletes only disturb neighbouring chunks), then
//! identifies duplicate chunks by SHA-256.

use std::collections::HashMap;

use crate::sha256::sha256;

/// Smallest chunk emitted.
const MIN_SIZE: usize = 2 * 1024;
/// Average target chunk size: a power of two, so a cut is a hash mask.
const AVG_SIZE: usize = 8 * 1024;
/// Largest chunk emitted (forced cut).
const MAX_SIZE: usize = 64 * 1024;
const _: () = assert!(AVG_SIZE.is_power_of_two() && MIN_SIZE <= AVG_SIZE && AVG_SIZE <= MAX_SIZE);

/// A content-defined chunk of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Byte offset in the input.
    pub offset: usize,
    /// Chunk length.
    pub len: usize,
    /// SHA-256 of the chunk contents.
    pub(crate) digest: [u8; 32],
}

/// Deterministic gear table derived from a splitmix64 stream.
fn gear_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for entry in table.iter_mut() {
        // splitmix64 step.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *entry = z ^ (z >> 31);
    }
    table
}

/// Splits `data` into content-defined chunks.
pub fn chunk(data: &[u8]) -> Vec<Chunk> {
    let table = gear_table();
    let mask = (AVG_SIZE - 1) as u64;
    let mut chunks = Vec::new();
    let mut start = 0usize;
    let mut hash = 0u64;
    let mut i = 0usize;
    while i < data.len() {
        hash = (hash << 1).wrapping_add(table[data[i] as usize]);
        let len = i - start + 1;
        let cut = (len >= MIN_SIZE && (hash & mask) == 0) || len >= MAX_SIZE;
        if cut {
            chunks.push(Chunk {
                offset: start,
                len,
                digest: sha256(&data[start..=i]),
            });
            start = i + 1;
            hash = 0;
        }
        i += 1;
    }
    if start < data.len() {
        chunks.push(Chunk {
            offset: start,
            len: data.len() - start,
            digest: sha256(&data[start..]),
        });
    }
    chunks
}

/// Result of a dedup pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DedupStats {
    /// Total input bytes.
    pub(crate) input_bytes: usize,
    /// Bytes after removing duplicate chunks.
    pub(crate) unique_bytes: usize,
    /// Chunks in the input.
    pub(crate) total_chunks: usize,
    /// Distinct chunks.
    pub(crate) unique_chunks: usize,
}

/// Chunks `data` and measures duplicate content.
pub fn dedup_stats(data: &[u8]) -> DedupStats {
    let chunks = chunk(data);
    let mut seen: HashMap<[u8; 32], usize> = HashMap::with_capacity(chunks.len());
    let mut unique_bytes = 0usize;
    for c in &chunks {
        seen.entry(c.digest).or_insert_with(|| {
            unique_bytes += c.len;
            c.len
        });
    }
    DedupStats {
        input_bytes: data.len(),
        unique_bytes,
        total_chunks: chunks.len(),
        unique_chunks: seen.len(),
    }
}

#[cfg(test)]
impl DedupStats {
    /// input / unique ratio (1.0 = nothing saved).
    fn ratio(&self) -> f64 {
        if self.unique_bytes == 0 {
            return 1.0;
        }
        self.input_bytes as f64 / self.unique_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(data_len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..data_len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    #[test]
    fn chunks_cover_input_exactly() {
        let data = pseudo(200_000, 42);
        let chunks = chunk(&data);
        let mut pos = 0;
        for c in &chunks {
            assert_eq!(c.offset, pos);
            pos += c.len;
        }
        assert_eq!(pos, data.len());
    }

    #[test]
    fn chunk_sizes_respect_bounds() {
        let data = pseudo(500_000, 7);
        let chunks = chunk(&data);
        for c in &chunks[..chunks.len() - 1] {
            assert!(c.len >= MIN_SIZE, "chunk below min: {}", c.len);
            assert!(c.len <= MAX_SIZE, "chunk above max: {}", c.len);
        }
    }

    #[test]
    fn duplicate_regions_dedup() {
        // Same 64 KB block repeated 8 times.
        let block = pseudo(64 * 1024, 99);
        let mut data = Vec::new();
        for _ in 0..8 {
            data.extend_from_slice(&block);
        }
        let stats = dedup_stats(&data);
        assert!(stats.ratio() > 4.0, "ratio={}", stats.ratio());
        assert!(stats.unique_chunks < stats.total_chunks);
    }

    #[test]
    fn random_data_does_not_dedup() {
        let data = pseudo(300_000, 1234);
        let stats = dedup_stats(&data);
        assert!(stats.ratio() < 1.05, "ratio={}", stats.ratio());
    }

    #[test]
    fn insert_shifts_only_local_chunks() {
        // Content-defined chunking: inserting bytes early should leave
        // most later chunk digests identical.
        let base = pseudo(400_000, 5);
        let mut edited = base.clone();
        edited.splice(1000..1000, b"INSERTED".iter().copied());
        let a = chunk(&base);
        let b = chunk(&edited);
        let digests_a: std::collections::HashSet<_> = a.iter().map(|c| c.digest).collect();
        let shared = b.iter().filter(|c| digests_a.contains(&c.digest)).count();
        assert!(
            shared * 10 >= b.len() * 8,
            "expected >=80% shared chunks, got {}/{}",
            shared,
            b.len()
        );
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        assert!(chunk(&[]).is_empty());
        let stats = dedup_stats(&[]);
        assert_eq!(stats.total_chunks, 0);
        assert_eq!(stats.ratio(), 1.0);
    }
}
