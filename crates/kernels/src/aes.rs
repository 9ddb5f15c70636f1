//! AES-128 in CTR mode — the on-path encryption task the paper's Compute
//! Engine offloads to the DPU crypto ASIC (§1, §5).
//!
//! Straightforward table-free implementation of FIPS-197 (S-box lookups,
//! `xtimes` for MixColumns) validated against the standard's test vectors.
//! CTR mode makes encryption and decryption the same operation and lets
//! blocks be processed independently — the property hardware engines
//! exploit for pipelining.

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

/// An expanded AES-128 key schedule.
#[derive(Clone)]
pub(crate) struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

#[inline]
fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

impl Aes128 {
    /// Expands a 128-bit key.
    pub(crate) fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for (r, rk) in round_keys.iter_mut().enumerate() {
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
            }
        }
        Aes128 { round_keys }
    }

    /// Encrypts one 16-byte block in place.
    pub(crate) fn encrypt_block(&self, block: &mut [u8; 16]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }
}

#[inline]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[inline]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

/// State is column-major: byte index = 4*col + row.
#[inline]
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[4 * col + row] = s[4 * ((col + row) % 4) + row];
        }
    }
}

#[inline]
fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let c = &mut state[4 * col..4 * col + 4];
        let (a0, a1, a2, a3) = (c[0], c[1], c[2], c[3]);
        c[0] = xtime(a0) ^ (xtime(a1) ^ a1) ^ a2 ^ a3;
        c[1] = a0 ^ xtime(a1) ^ (xtime(a2) ^ a2) ^ a3;
        c[2] = a0 ^ a1 ^ xtime(a2) ^ (xtime(a3) ^ a3);
        c[3] = (xtime(a0) ^ a0) ^ a1 ^ a2 ^ xtime(a3);
    }
}

/// Encrypts or decrypts `data` with AES-128-CTR (the operation is its own
/// inverse). The 128-bit counter block is `nonce (12 bytes) || counter
/// (4 bytes, big-endian)` starting at 0.
pub fn ctr_xor(key: &[u8; 16], nonce: &[u8; 12], data: &mut [u8]) {
    let cipher = Aes128::new(key);
    let mut counter_block = [0u8; 16];
    counter_block[..12].copy_from_slice(nonce);
    for (i, chunk) in data.chunks_mut(16).enumerate() {
        counter_block[12..].copy_from_slice(&(i as u32).to_be_bytes());
        let mut keystream = counter_block;
        cipher.encrypt_block(&mut keystream);
        for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
            *b ^= k;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix B example.
    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let mut block: [u8; 16] = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        let expected: [u8; 16] = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(block, expected);
    }

    /// FIPS-197 Appendix C.1 (AES-128).
    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let mut block: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        Aes128::new(&key).encrypt_block(&mut block);
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(block, expected);
    }

    #[test]
    fn ctr_round_trips() {
        let key = [7u8; 16];
        let nonce = [3u8; 12];
        let plain: Vec<u8> = (0..1000u32).map(|i| (i * 31) as u8).collect();
        let mut data = plain.clone();
        ctr_xor(&key, &nonce, &mut data);
        assert_ne!(data, plain, "ciphertext must differ");
        ctr_xor(&key, &nonce, &mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn ctr_partial_final_block() {
        let key = [1u8; 16];
        let nonce = [2u8; 12];
        let plain = b"seventeen bytes!!".to_vec();
        assert_eq!(plain.len(), 17);
        let mut data = plain.clone();
        ctr_xor(&key, &nonce, &mut data);
        ctr_xor(&key, &nonce, &mut data);
        assert_eq!(data, plain);
    }

    #[test]
    fn different_nonce_different_ciphertext() {
        let key = [9u8; 16];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ctr_xor(&key, &[0u8; 12], &mut a);
        ctr_xor(&key, &[1u8; 12], &mut b);
        assert_ne!(a, b);
    }
}
