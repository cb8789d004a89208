//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the per-section
//! checksum of the `pm-store/1` artifact format, and of every WAL frame and
//! checkpoint.
//!
//! std-only, slicing-by-8: eight 256-entry tables computed at compile time
//! let each step fold eight input bytes with eight lookups; the last
//! `len % 8` bytes take one lookup each.

/// The reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE: initial value and final XOR are `0xFFFF_FFFF`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")) ^ u64::from(crc);
        // Byte k of the step is followed by 7 - k more bytes of it.
        crc = (0..8).fold(0, |acc, k| {
            acc ^ TABLES[7 - k][(word >> (8 * k)) as usize & 0xFF]
        });
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-at-a-time loop [`crc32`] replaced.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value for "123456789".
        for crc in [crc32, reference_crc32] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xE8B7_BE43);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_matches_the_bytewise_reference(
            seed in 0u64..u64::MAX,
            offset in 0usize..8,
            len in 0usize..4097,
        ) {
            let mut state = seed | 1;
            let buf: Vec<u8> = (0..offset + len)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    (state >> 24) as u8
                })
                .collect();
            // Slices starting at every offset mod 8, so the 8-byte steps
            // run unaligned too.
            let bytes = &buf[offset..];
            prop_assert_eq!(crc32(bytes), reference_crc32(bytes));
        }
    }

    #[test]
    fn single_bit_flip_changes_the_checksum() {
        let data = vec![0x5Au8; 1024];
        let base = crc32(&data);
        for byte in [0usize, 511, 1023] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }
}
