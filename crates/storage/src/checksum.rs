//! CRC-32 (IEEE 802.3 polynomial) implemented in-crate so the log format has
//! no external dependencies.
//!
//! The WAL frames every record with a CRC over its header and payload; a
//! mismatch at the log tail marks the torn write left by a crash, which is
//! where recovery stops replaying (see [`crate::wal`]).
//!
//! Every logged byte passes through here, so the update loop is slice-by-8:
//! eight table lookups fold eight input bytes per step instead of one. The
//! values are those of the bytewise table algorithm, which the tests keep as
//! the oracle.

/// The reflected IEEE polynomial used by zip, Ethernet, etc.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic bytewise table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which is what lets eight bytes be
/// folded in one step.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC-32 state.
///
/// ```
/// use rrq_storage::checksum::Crc32;
/// let mut c = Crc32::new();
/// c.update(b"123456789");
/// assert_eq!(c.finish(), 0xCBF4_3926); // the standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Create a fresh CRC accumulator.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut s = self.state;
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            let v = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]) ^ s as u64;
            s = TABLES[7][v as u8 as usize]
                ^ TABLES[6][(v >> 8) as u8 as usize]
                ^ TABLES[5][(v >> 16) as u8 as usize]
                ^ TABLES[4][(v >> 24) as u8 as usize]
                ^ TABLES[3][(v >> 32) as u8 as usize]
                ^ TABLES[2][(v >> 40) as u8 as usize]
                ^ TABLES[1][(v >> 48) as u8 as usize]
                ^ TABLES[0][(v >> 56) as usize];
        }
        for &b in chunks.remainder() {
            s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        self.state = s;
    }

    /// Finalize and return the checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

/// One-shot convenience over [`Crc32`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table algorithm this module used to ship: the
    /// oracle the slice-by-8 loop must agree with. Takes and returns the raw
    /// (un-finalized) state so streaming splits can be checked too.
    fn bytewise(mut s: u32, data: &[u8]) -> u32 {
        for &b in data {
            s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
        }
        s
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        bytewise(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// Deterministic filler (xorshift64*), so failures reproduce.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn bytewise_table_is_the_ieee_table() {
        // Spot values of the standard table, so the oracle itself is pinned
        // independently of `build_tables`' slice-by-8 extension.
        assert_eq!(TABLES[0][0], 0);
        assert_eq!(TABLES[0][1], 0x7707_3096);
        assert_eq!(TABLES[0][128], 0xEDB8_8320);
        assert_eq!(TABLES[0][255], 0x2D02_EF8D);
    }

    #[test]
    fn every_short_length_matches_the_bytewise_oracle() {
        let data = Rng(0x51CB).bytes(64 + 8);
        for len in 0..=64 {
            for start in 0..8 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
            }
        }
    }

    #[test]
    fn random_lengths_at_unaligned_offsets_match_the_oracle() {
        let mut rng = Rng(7);
        let data = rng.bytes(64 * 1024 + 16);
        for _ in 0..200 {
            let start = rng.below(16);
            let len = rng.below(64 * 1024 + 1);
            let s = &data[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "len {len} at offset {start}");
        }
    }

    #[test]
    fn streaming_splits_match_the_oracle() {
        let mut rng = Rng(99);
        let data = rng.bytes(4096 + 64);
        for _ in 0..200 {
            let len = rng.below(data.len() + 1);
            let s = &data[..len];
            // Up to four arbitrary cut points, including empty pieces.
            let mut cuts: Vec<usize> = (0..rng.below(5)).map(|_| rng.below(len + 1)).collect();
            cuts.sort_unstable();
            let mut c = Crc32::new();
            let mut oracle = 0xFFFF_FFFF;
            let mut from = 0;
            for cut in cuts.into_iter().chain([len]) {
                c.update(&s[from..cut]);
                oracle = bytewise(oracle, &s[from..cut]);
                assert_eq!(c.state, oracle, "state after piece {from}..{cut} of {len}");
                from = cut;
            }
            assert_eq!(c.finish(), crc32_bytewise(s));
        }
    }

    #[test]
    fn sensitive_to_single_bit_flip() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }
}
