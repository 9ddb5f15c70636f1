//! CRC-32 (IEEE 802.3 polynomial, as used by gzip/zlib) — page and frame
//! checksums on the storage and network paths.

/// Generates the byte-wise lookup table for the reflected polynomial.
const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = make_table();

/// Incremental CRC-32.
#[derive(Clone, Copy)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh CRC.
    pub(crate) fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Absorbs bytes.
    pub(crate) fn update(&mut self, data: &[u8]) {
        let mut crc = self.state;
        for &b in data {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// Final checksum.
    pub(crate) fn finalize(self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot CRC-32.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        let mut c = Crc32::new();
        c.update(&data[..1000]);
        c.update(&data[1000..]);
        assert_eq!(c.finalize(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 512];
        let base = crc32(&data);
        data[100] ^= 0x08;
        assert_ne!(crc32(&data), base);
    }
}
