//! LSB-first bit I/O (DEFLATE bit order).

/// Writes bits LSB-first into a byte vector.
pub(super) struct BitWriter {
    out: Vec<u8>,
    acc: u64,
    nbits: u32,
}

impl BitWriter {
    #[allow(dead_code)]
    pub(super) fn new() -> Self {
        BitWriter {
            out: Vec::new(),
            acc: 0,
            nbits: 0,
        }
    }

    pub(super) fn with_capacity(cap: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(cap),
            acc: 0,
            nbits: 0,
        }
    }

    /// Writes the low `n` bits of `value` (n <= 32).
    pub(super) fn write_bits(&mut self, value: u32, n: u32) {
        debug_assert!(n <= 32);
        debug_assert!(
            n == 32 || value < (1u32 << n),
            "value {value} too wide for {n} bits"
        );
        self.acc |= (value as u64) << self.nbits;
        self.nbits += n;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xFF) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Flushes any partial byte (zero-padded) and returns the buffer.
    pub(super) fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xFF) as u8);
        }
        self.out
    }

    /// Bits written so far (excluding padding).
    #[allow(dead_code)]
    pub(super) fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }
}

/// Reads bits LSB-first from a byte slice.
pub(super) struct BitReader<'a> {
    data: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

/// Error: ran off the end of the input bitstream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutOfBits;

impl<'a> BitReader<'a> {
    pub(super) fn new(data: &'a [u8]) -> Self {
        BitReader {
            data,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.data.len() {
            self.acc |= (self.data[self.pos] as u64) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `n` bits (n <= 32).
    pub(super) fn read_bits(&mut self, n: u32) -> Result<u32, OutOfBits> {
        debug_assert!(n <= 32);
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(OutOfBits);
            }
        }
        let mask = if n == 32 {
            u64::MAX >> 32
        } else {
            (1u64 << n) - 1
        };
        let v = (self.acc & mask) as u32;
        self.acc >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Peeks up to `n` bits without consuming; missing bits read as zero
    /// (valid at end of stream for Huffman peek-decode).
    pub(super) fn peek_bits(&mut self, n: u32) -> u32 {
        debug_assert!(n <= 32);
        self.refill();
        let mask = if n >= 32 {
            u64::MAX >> 32
        } else {
            (1u64 << n) - 1
        };
        (self.acc & mask) as u32
    }

    /// Consumes `n` already-peeked bits.
    pub(super) fn consume(&mut self, n: u32) -> Result<(), OutOfBits> {
        if self.nbits < n {
            self.refill();
            if self.nbits < n {
                return Err(OutOfBits);
            }
        }
        self.acc >>= n;
        self.nbits -= n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.write_bits(0xFFFF, 16);
        w.write_bits(0, 1);
        w.write_bits(0b1100_1010, 8);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(3).unwrap(), 0b101);
        assert_eq!(r.read_bits(16).unwrap(), 0xFFFF);
        assert_eq!(r.read_bits(1).unwrap(), 0);
        assert_eq!(r.read_bits(8).unwrap(), 0b1100_1010);
    }

    #[test]
    fn read_past_end_errors() {
        let mut w = BitWriter::new();
        w.write_bits(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(8).unwrap(), 0b11); // padded byte readable
        assert_eq!(r.read_bits(8), Err(OutOfBits));
    }

    #[test]
    fn peek_then_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0xABCD, 16);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0xD);
        r.consume(4).unwrap();
        assert_eq!(r.peek_bits(4), 0xC);
        r.consume(4).unwrap();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn peek_at_end_zero_pads() {
        let bytes = [0x01u8];
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(16), 0x0001);
    }

    #[test]
    fn bit_len_counts_exactly() {
        let mut w = BitWriter::new();
        w.write_bits(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0x7F, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0x3, 2);
        assert_eq!(w.bit_len(), 10);
    }
}
