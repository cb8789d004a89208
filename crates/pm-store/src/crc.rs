//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the per-section
//! checksum of the `pm-store/1` artifact format, and of every WAL frame and
//! checkpoint.
//!
//! Two kernels compute the same checksum:
//!
//! - On x86-64 CPUs that report `pclmulqdq` and `sse4.1` at run time, an
//!   input of 64 bytes or more folds four 16-byte lanes forward by one
//!   64-byte block per step with carry-less multiplication, merges the
//!   lanes, and Barrett-reduces the last 128 bits to the 32-bit state: the
//!   method of Gopal et al., "Fast CRC Computation for Generic Polynomials
//!   Using PCLMULQDQ Instruction" (Intel, 2009), with the reflected-IEEE
//!   constants zlib and crc32fast use. The last `len % 16` bytes go to the
//!   table kernel.
//! - Everywhere else, and for short inputs, slicing-by-8: eight 256-entry
//!   tables computed at compile time let each step fold eight input bytes
//!   with eight lookups; the last `len % 8` bytes take one lookup each.

/// The reflected IEEE CRC-32 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = {
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
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= clmul::MIN_LEN && clmul::available() {
        // SAFETY: `available` reported both target features `fold` enables.
        let (crc, tail) = unsafe { clmul::fold(0xFFFF_FFFF, bytes) };
        return slicing_by_8(crc, tail) ^ 0xFFFF_FFFF;
    }
    slicing_by_8(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// Advances the (pre-inverted) CRC state `crc` over `bytes`.
fn slicing_by_8(mut crc: u32, bytes: &[u8]) -> u32 {
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
    crc
}

/// The PCLMULQDQ kernel. Each constant is `x^n mod P(x)` (or, for `MU`,
/// `x^64 div P(x)`) bit-reflected over 33 bits, `P(x)` being the IEEE
/// polynomial with its `x^32` term.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the kernel takes: the four lanes' first blocks.
    pub(super) const MIN_LEN: usize = 64;

    /// `x^(4·128+32)` and `x^(4·128−32)`: fold a lane forward 64 bytes.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// `x^(128+32)` and `x^(128−32)`: fold forward 16 bytes.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// `x^64`: reduce 96 bits to 64.
    const K5: i64 = 0x1_63CD_6124;
    /// `P(x)` and `MU = x^64 div P(x)`: the Barrett reduction to 32 bits.
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU can run [`fold`].
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Advances the (pre-inverted) CRC state `crc` over every whole 16-byte
    /// block of `bytes` and returns the new state with the bytes left over
    /// (fewer than 16).
    ///
    /// # Panics
    ///
    /// When `bytes` is shorter than [`MIN_LEN`].
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq` and `sse4.1` ([`available`]).
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn fold(crc: u32, bytes: &[u8]) -> (u32, &[u8]) {
        assert!(bytes.len() >= MIN_LEN, "the CLMUL kernel needs 64 bytes");
        let mut blocks = bytes.chunks_exact(16);
        let tail = blocks.remainder();
        let mut next = || {
            let block = blocks.next().expect("a whole 16-byte block");
            // SAFETY: `block` holds 16 readable bytes; the load is unaligned.
            unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
        };
        let mut lanes = [next(), next(), next(), next()];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(crc as i32));

        let k1k2 = _mm_set_epi64x(K2, K1);
        for _ in 0..(bytes.len() / 16 - 4) / 4 {
            for lane in lanes.iter_mut() {
                *lane = fold_16(*lane, next(), k1k2);
            }
        }
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_16(lanes[0], lanes[1], k3k4);
        x = fold_16(x, lanes[2], k3k4);
        x = fold_16(x, lanes[3], k3k4);
        for _ in 0..(bytes.len() / 16 - 4) % 4 {
            x = fold_16(x, next(), k3k4);
        }

        // 128 bits to 96, then to 64.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: T1 = (x mod x^32)·MU, T2 = (T1 mod x^32)·P; the state
        // is the upper half of the 64-bit x ⊕ T2 (reflected domain).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        (crc, tail)
    }

    /// Folds `a` forward onto `b`: `b ⊕ a.lo·k.lo ⊕ a.hi·k.hi`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold_16(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00)),
            _mm_clmulepi64_si128(a, k, 0x11),
        )
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// IEEE `P(x)` with its `x^32` term, unreflected.
        const P_NORMAL: u64 = 0x1_04C1_1DB7;

        /// `v`'s low 33 bits in reverse order.
        fn reflect33(v: u64) -> i64 {
            (v.reverse_bits() >> 31) as i64
        }

        /// `x^n mod P(x)`, unreflected.
        fn x_pow_mod(n: u32) -> u64 {
            (0..n).fold(1u64, |r, _| {
                let r = r << 1;
                if r & (1 << 32) != 0 {
                    r ^ P_NORMAL
                } else {
                    r
                }
            })
        }

        #[test]
        fn constants_are_the_stated_powers_of_x() {
            assert_eq!(K1, reflect33(x_pow_mod(4 * 128 + 32)));
            assert_eq!(K2, reflect33(x_pow_mod(4 * 128 - 32)));
            assert_eq!(K3, reflect33(x_pow_mod(128 + 32)));
            assert_eq!(K4, reflect33(x_pow_mod(128 - 32)));
            assert_eq!(K5, reflect33(x_pow_mod(64)));
            assert_eq!(P_X, reflect33(P_NORMAL));
            // x^64 div P(x), by long division over GF(2).
            let (mut rem, mut quot) = (1u128 << 64, 0u128);
            for shift in (0..=32).rev() {
                if rem & (1 << (32 + shift)) != 0 {
                    rem ^= u128::from(P_NORMAL) << shift;
                    quot |= 1 << shift;
                }
            }
            assert_eq!(MU, reflect33(quot as u64));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-at-a-time loop the table kernel replaced.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    fn slicing_crc32(bytes: &[u8]) -> u32 {
        slicing_by_8(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
    }

    /// The CLMUL kernel on its own (with the table kernel on the tail),
    /// when this CPU has it.
    #[cfg(target_arch = "x86_64")]
    fn clmul_crc32(bytes: &[u8]) -> Option<u32> {
        if bytes.len() < clmul::MIN_LEN || !clmul::available() {
            return None;
        }
        // SAFETY: `available` reported both target features `fold` enables.
        let (crc, tail) = unsafe { clmul::fold(0xFFFF_FFFF, bytes) };
        assert!(tail.len() < 16);
        Some(slicing_by_8(crc, tail) ^ 0xFFFF_FFFF)
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn clmul_crc32(_: &[u8]) -> Option<u32> {
        None
    }

    /// xorshift bytes, so every seed replays the same buffer.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect()
    }

    /// Every kernel agrees with the bytewise reference on `bytes`.
    fn assert_kernels_agree(bytes: &[u8]) {
        assert_kernels_match(bytes, reference_crc32(bytes));
    }

    fn assert_kernels_match(bytes: &[u8], want: u32) {
        assert_eq!(crc32(bytes), want, "crc32, len {}", bytes.len());
        assert_eq!(slicing_crc32(bytes), want, "slicing, len {}", bytes.len());
        if let Some(got) = clmul_crc32(bytes) {
            assert_eq!(got, want, "clmul, len {}", bytes.len());
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check value for "123456789".
        for crc in [crc32, reference_crc32, slicing_crc32] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xE8B7_BE43);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn every_length_and_offset_matches_the_bytewise_reference() {
        // Lengths 0–4,096 at every start offset mod 16, so the 8-byte
        // steps and the 16-byte blocks both run unaligned.
        // The reference runs once per offset, its state after each byte
        // being the prefix's checksum.
        let buf = noise(0x5EED, 4_096 + 15);
        for offset in 0..16 {
            let mut state = 0xFFFF_FFFFu32;
            for len in 0..=4_096 {
                let bytes = &buf[offset..offset + len];
                assert_kernels_match(bytes, state ^ 0xFFFF_FFFF);
                if let Some(&b) = buf.get(offset + len) {
                    state = (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize];
                }
            }
        }
    }

    #[test]
    fn fold_boundaries_match_the_bytewise_reference() {
        // Around the kernel's minimum, each fold-by-4 step, and the
        // fold-by-1 tail, with all-zero and all-one bytes as well as noise.
        let buf = noise(0xB0B, 1_024);
        for base in [64usize, 128, 192, 256, 512, 1_024] {
            for len in base.saturating_sub(17)..=base.min(1_024) {
                for bytes in [&buf[..len], &vec![0u8; len][..], &vec![0xFF; len][..]] {
                    assert_kernels_agree(bytes);
                }
            }
        }
    }

    #[test]
    fn a_large_buffer_matches_the_bytewise_reference() {
        let buf = noise(0xFEED, (4 << 20) + 13);
        assert_kernels_agree(&buf);
        assert_kernels_agree(&buf[7..]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn slicing_by_8_matches_the_bytewise_reference(
            seed in 0u64..u64::MAX,
            offset in 0usize..16,
            len in 0usize..20_000,
        ) {
            let buf = noise(seed, offset + len);
            let bytes = &buf[offset..];
            prop_assert_eq!(crc32(bytes), reference_crc32(bytes));
            prop_assert_eq!(slicing_crc32(bytes), reference_crc32(bytes));
            if let Some(got) = clmul_crc32(bytes) {
                prop_assert_eq!(got, reference_crc32(bytes));
            }
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
