//! CRC32 (IEEE 802.3) for file integrity checks.
//!
//! Slicing-by-8: eight const-built tables let the hot loop fold eight
//! bytes per step instead of one bit at a time. Segment-store opens CRC
//! every byte of a document's history twice (frame trailer + bundle
//! trailer), so this sits directly on the cached-load fast path.

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]` maps a
/// byte to its CRC contribution from `k` positions earlier in the
/// 8-byte block.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut j = 0;
        while j < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            j += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Computes the CRC32 of `data` (IEEE polynomial, as used by gzip/zip).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = c else {
            break; // chunks_exact(8) only yields 8-byte slices
        };
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][b4 as usize]
            ^ TABLES[2][b5 as usize]
            ^ TABLES[1][b6 as usize]
            ^ TABLES[0][b7 as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// Splits a frame into its body and the trailing little-endian CRC32,
/// or `None` when `bytes` is too short to hold the 4-byte trailer.
///
/// Every trailing-checksum codec (bundles, digests, event-graph files)
/// shares this split so their decode paths stay free of raw slicing.
pub(crate) fn split_crc(bytes: &[u8]) -> Option<(&[u8], u32)> {
    let split = bytes.len().checked_sub(4)?;
    let body = bytes.get(..split)?;
    let tail: [u8; 4] = bytes.get(split..)?.try_into().ok()?;
    Some((body, u32::from_le_bytes(tail)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn detects_change() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worlc");
        assert_ne!(a, b);
    }

    #[test]
    fn matches_bitwise_reference() {
        // The sliced loop must agree with the definitional bit-at-a-time
        // version at every length, covering all remainder paths.
        fn reference(data: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &byte in data {
                crc ^= byte as u32;
                for _ in 0..8 {
                    let mask = (crc & 1).wrapping_neg();
                    crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
                }
            }
            !crc
        }
        let data: Vec<u8> = (0..257u32)
            .map(|i| (i.wrapping_mul(37) >> 2) as u8)
            .collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), reference(&data[..len]), "len {len}");
        }
    }
}
