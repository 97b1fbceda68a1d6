//! CRC-32 (IEEE 802.3) checksums for pages and WAL frames.
//!
//! Every physical page carries a CRC over its data area in a 4-byte
//! footer (see [`crate::page::PAGE_DATA_SIZE`]), and every WAL frame
//! carries a CRC over its payload. Both detect torn writes and random
//! bit corruption; neither defends against an adversary. The polynomial
//! is the reflected IEEE one (`0xEDB88320`), matching zlib/`crc32fast`,
//! so externally produced checksums of the same bytes agree.

const POLY: u32 = 0xEDB8_8320;

const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finalize()
}

/// Incremental CRC-32 for data arriving in pieces (WAL frame bodies).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds more bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = TABLE[((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub(crate) fn finalize(self) -> u32 {
        !self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_vectors() {
        // Standard IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..=255).cycle().take(10_000).collect();
        let mut inc = Crc32::new();
        for chunk in data.chunks(7) {
            inc.update(chunk);
        }
        assert_eq!(inc.finalize(), crc32(&data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0x5au8; 4096];
        let base = crc32(&data);
        for pos in [0usize, 100, 4095] {
            for bit in 0..8 {
                data[pos] ^= 1 << bit;
                assert_ne!(
                    crc32(&data),
                    base,
                    "flip at byte {pos} bit {bit} undetected"
                );
                data[pos] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&data), base);
    }
}
