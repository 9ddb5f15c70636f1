//! LZ77 tokenization with hash-chain match finding over a 32 KB window.

use super::{MAX_MATCH, MIN_MATCH, WINDOW_SIZE};

/// One LZ77 token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Token {
    /// A raw byte.
    Literal(u8),
    /// A back-reference: copy `len` bytes from `dist` bytes back.
    Match {
        /// Copy length, `MIN_MATCH..=MAX_MATCH`.
        len: u16,
        /// Back distance, `1..=WINDOW_SIZE`.
        dist: u16,
    },
}

impl Token {
    /// Bytes of input this token covers.
    pub(super) fn input_len(&self) -> usize {
        match *self {
            Token::Literal(_) => 1,
            Token::Match { len, .. } => len as usize,
        }
    }
}

const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// How many chain entries to examine per position (compression level knob).
const MAX_CHAIN: usize = 48;
/// Stop searching once a match at least this long is found.
const GOOD_ENOUGH: usize = 96;

#[inline]
fn hash3(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], 0]);
    (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// Greedy LZ77 tokenization of `data` (whole-input; the encoder splits the
/// token stream into blocks afterwards).
pub(super) fn tokenize(data: &[u8]) -> Vec<Token> {
    let n = data.len();
    let mut tokens = Vec::with_capacity(n / 3 + 16);
    if n < MIN_MATCH + 1 {
        tokens.extend(data.iter().map(|&b| Token::Literal(b)));
        return tokens;
    }

    // head[h] = most recent position with hash h (+1; 0 = none).
    let mut head = vec![0u32; HASH_SIZE];
    // prev[i % WINDOW] = previous position with the same hash (+1).
    let mut prev = vec![0u32; WINDOW_SIZE];

    let mut i = 0usize;
    while i < n {
        if i + MIN_MATCH > n {
            tokens.push(Token::Literal(data[i]));
            i += 1;
            continue;
        }
        let h = hash3(data, i);
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        let mut cand = head[h] as usize;
        let min_pos = i.saturating_sub(WINDOW_SIZE);
        let mut chain = 0;
        while cand > 0 && chain < MAX_CHAIN {
            let pos = cand - 1;
            if pos < min_pos || pos >= i {
                break;
            }
            let limit = (n - i).min(MAX_MATCH);
            // Quick reject on the byte past the current best.
            if best_len == 0 || (i + best_len < n && data[pos + best_len] == data[i + best_len]) {
                let mut l = 0usize;
                while l < limit && data[pos + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - pos;
                    if l >= GOOD_ENOUGH || l == limit {
                        break;
                    }
                }
            }
            cand = prev[pos % WINDOW_SIZE] as usize;
            chain += 1;
        }

        if best_len >= MIN_MATCH {
            tokens.push(Token::Match {
                len: best_len as u16,
                dist: best_dist as u16,
            });
            // Insert hash entries for every covered position so later
            // matches can reference inside this one.
            let end = i + best_len;
            let insert_end = end.min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < insert_end {
                let hj = hash3(data, j);
                prev[j % WINDOW_SIZE] = head[hj];
                head[hj] = (j + 1) as u32;
                j += 1;
            }
            i = end;
        } else {
            prev[i % WINDOW_SIZE] = head[h];
            head[h] = (i + 1) as u32;
            tokens.push(Token::Literal(data[i]));
            i += 1;
        }
    }
    tokens
}

/// Reconstructs bytes from tokens — validates the tokenizer independently
/// of entropy coding (test harness; the shipping decoder has its own copy
/// loop fused with Huffman decoding).
#[allow(dead_code)]
pub(super) fn reconstruct(tokens: &[Token]) -> Result<Vec<u8>, BadReference> {
    let mut out = Vec::new();
    for t in tokens {
        match *t {
            Token::Literal(b) => out.push(b),
            Token::Match { len, dist } => {
                let dist = dist as usize;
                let len = len as usize;
                if dist == 0 || dist > out.len() {
                    return Err(BadReference {
                        dist,
                        have: out.len(),
                    });
                }
                let start = out.len() - dist;
                // Overlapping copies are legal (dist < len repeats).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
    }
    Ok(out)
}

/// Error: a back-reference points before the start of output.
#[allow(dead_code)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct BadReference {
    /// Requested distance.
    pub(crate) dist: usize,
    /// Bytes available.
    pub(crate) have: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let tokens = tokenize(data);
        let back = reconstruct(&tokens).unwrap();
        assert_eq!(back, data, "tokenize/reconstruct mismatch");
    }

    #[test]
    fn empty_and_tiny_inputs() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"abc");
    }

    #[test]
    fn repetitive_input_uses_matches() {
        let data = b"abcabcabcabcabcabcabcabc".to_vec();
        let tokens = tokenize(&data);
        assert!(
            tokens.iter().any(|t| matches!(t, Token::Match { .. })),
            "expected matches in {tokens:?}"
        );
        round_trip(&data);
    }

    #[test]
    fn overlapping_match_rle() {
        // "aaaa..." compresses to a literal + one overlapping match.
        let data = vec![b'a'; 1000];
        let tokens = tokenize(&data);
        assert!(
            tokens.len() < 20,
            "RLE should collapse: {} tokens",
            tokens.len()
        );
        round_trip(&data);
    }

    #[test]
    fn incompressible_input_is_literals() {
        // A linear congruential byte stream has no 3-byte repeats nearby.
        let mut x = 1u32;
        let data: Vec<u8> = (0..500)
            .map(|_| {
                x = x.wrapping_mul(1103515245).wrapping_add(12345);
                (x >> 16) as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_runs_split_at_max_match() {
        let data = vec![b'z'; MAX_MATCH * 3 + 17];
        let tokens = tokenize(&data);
        for t in &tokens {
            if let Token::Match { len, .. } = t {
                assert!(*len as usize <= MAX_MATCH);
            }
        }
        round_trip(&data);
    }

    #[test]
    fn matches_beyond_window_not_used() {
        // Two identical blocks separated by > WINDOW_SIZE of noise.
        let mut data = b"unique-prefix-string".to_vec();
        let mut x = 7u32;
        for _ in 0..WINDOW_SIZE + 100 {
            x = x.wrapping_mul(48271);
            data.push((x >> 13) as u8);
        }
        data.extend_from_slice(b"unique-prefix-string");
        let tokens = tokenize(&data);
        let back = reconstruct(&tokens).unwrap();
        assert_eq!(back, data);
        for t in &tokens {
            if let Token::Match { dist, .. } = t {
                assert!((*dist as usize) <= WINDOW_SIZE);
            }
        }
    }

    #[test]
    fn reconstruct_rejects_bad_distance() {
        let tokens = vec![Token::Literal(b'x'), Token::Match { len: 3, dist: 5 }];
        assert!(reconstruct(&tokens).is_err());
    }
}
