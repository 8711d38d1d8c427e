//! CRC-32 (IEEE 802.3) — the checksum framing every durable byte.
//!
//! The page-file header, each page frame, and each WAL record carry a CRC-32
//! over their payload (see `docs/STORAGE.md`). The workspace builds with no
//! external crates, so the tables are generated at first use from the
//! reflected polynomial `0xEDB88320`.
//!
//! The checksum is computed **slicing-by-8**: eight 256-entry tables, where
//! `T[k][b]` is the CRC register after byte `b` followed by `k` zero bytes,
//! fold eight input bytes per step with eight independent lookups instead
//! of eight dependent ones. The result is bit-for-bit the bytewise CRC; a
//! tail shorter than eight bytes runs bytewise through `T[0]`.

use std::sync::OnceLock;

type Tables = [[u32; 256]; 8];

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, e) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        // One more zero byte through the register: T[k][b] = T[k-1][b]
        // shifted by a byte and reduced through T[0].
        for k in 1..8 {
            for b in 0..256 {
                let prev = t[k - 1][b];
                t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// CRC-32 of `bytes` (IEEE: init `!0`, reflected, final xor `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = tables();
    let mut c = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bitwise CRC-32, one bit per step: the oracle the sliced
    /// tables are checked against. It shares no table with `crc32`.
    fn reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= b as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sensitive_to_every_byte() {
        let base = crc32(b"hello world");
        for i in 0..11 {
            let mut flipped = b"hello world".to_vec();
            flipped[i] ^= 0x01;
            assert_ne!(crc32(&flipped), base, "flip at {i} must change crc");
        }
    }

    /// Every length 0..=64 at every start offset within 8 bytes (so each
    /// split between the eight-byte steps and the bytewise tail, at every
    /// alignment), then random buffers up to a few KiB.
    #[test]
    fn sliced_crc_equals_the_bitwise_reference() {
        let mut rng = dataspread_testkit::Rng::new(0xC3C3);
        let buf: Vec<u8> = (0..80).map(|_| rng.below(256) as u8).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), reference(s), "start {start} len {len}");
            }
        }
        for case in 0..200 {
            let len = rng.below(4096) as usize;
            let s: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
            assert_eq!(crc32(&s), reference(&s), "case {case} len {len}");
        }
    }
}
