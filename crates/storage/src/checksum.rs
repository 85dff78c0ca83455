//! CRC-32 (IEEE 802.3 polynomial) implemented in-crate so the log format has
//! no external dependencies.
//!
//! The WAL frames every record with a CRC over its header and payload; a
//! mismatch at the log tail marks the torn write left by a crash, which is
//! where recovery stops replaying (see [`crate::wal`]).
//!
//! Every logged byte passes through here, so [`Crc32::update`] has two
//! paths. On x86-64 CPUs with PCLMULQDQ and SSE4.1, an input of 64 bytes or
//! more is folded 64 bytes per step by carry-less multiplication: about
//! 24 GB/s at 4 KiB against the table loop's 1.5 (EXPERIMENTS.md E30). The
//! fold needs four whole 16-byte lanes to start and already wins by 3× at
//! that length, so 64 is the dispatch length. Everything else takes the
//! slice-by-8 table loop, eight lookups per eight bytes: inputs under 64
//! bytes (a small record's whole frame), the fold's last 0–15 bytes, other
//! targets and CPUs without the instruction. Both give the values of the
//! bytewise table algorithm, which the tests keep as the oracle.

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
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::detected() {
            // SAFETY: the fold's only precondition is its target features,
            // and `detected` has just found both on this CPU.
            self.state = unsafe { clmul::update(self.state, data) };
            return;
        }
        self.state = slice_by_8(self.state, data);
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

/// The table path: raw state `s` advanced over `data`, eight bytes a step.
fn slice_by_8(mut s: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let v = u64::from_le_bytes(*w) ^ s as u64;
        s = TABLES[7][v as u8 as usize]
            ^ TABLES[6][(v >> 8) as u8 as usize]
            ^ TABLES[5][(v >> 16) as u8 as usize]
            ^ TABLES[4][(v >> 24) as u8 as usize]
            ^ TABLES[3][(v >> 32) as u8 as usize]
            ^ TABLES[2][(v >> 40) as u8 as usize]
            ^ TABLES[1][(v >> 48) as u8 as usize]
            ^ TABLES[0][(v >> 56) as usize];
    }
    for &b in tail {
        s = TABLES[0][((s ^ b as u32) & 0xFF) as usize] ^ (s >> 8);
    }
    s
}

/// The carry-less-multiply path, after Gopal et al., "Fast CRC Computation
/// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in
/// its bit-reflected form: fold four 128-bit lanes 64 bytes at a time, fold
/// them into one, fold the remaining whole 16-byte blocks into that, reduce
/// 128 bits to 64, then Barrett-reduce to the 32-bit state.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// Shortest input the fold takes: four whole lanes. It is also the
    /// crossover, since the fold already runs three times the table loop's
    /// speed at this length (EXPERIMENTS.md E30).
    pub(super) const MIN_LEN: usize = 64;

    // x^n mod P(x), bit-reflected and shifted left one bit, for the fold
    // distances: a lane moves 512 bits on (K1, K2) or 128 bits on (K3, K4);
    // K5 takes the last 96 bits to 64.
    const K1: i64 = 0x1_5444_2BD4; // n = 512 + 32
    const K2: i64 = 0x1_C6E4_1596; // n = 512 - 32
    const K3: i64 = 0x1_7519_97D0; // n = 128 + 32
    const K4: i64 = 0x0_CCAA_009E; // n = 128 - 32
    const K5: i64 = 0x1_63CD_6124; // n = 64
    /// The Barrett pair, bit-reflected: P(x) itself and floor(x^64 / P(x)).
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// Whether this CPU has what [`update`] is compiled for. The standard
    /// library caches the answer.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// Raw state `s` advanced over `data`, any length.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(s: u32, data: &[u8]) -> u32 {
        if data.len() < MIN_LEN {
            return super::slice_by_8(s, data);
        }
        let (blocks, tail) = data.as_chunks::<16>();
        let (quads, singles) = blocks.as_chunks::<4>();
        let [a, b, c, d] = &quads[0];
        let mut lanes = [load(a), load(b), load(c), load(d)];
        lanes[0] = _mm_xor_si128(lanes[0], _mm_cvtsi32_si128(s as i32));
        let by_four = _mm_set_epi64x(K2, K1);
        for quad in &quads[1..] {
            for (lane, block) in lanes.iter_mut().zip(quad) {
                *lane = fold(*lane, load(block), by_four);
            }
        }
        let by_one = _mm_set_epi64x(K4, K3);
        let mut x = lanes[0];
        for &lane in &lanes[1..] {
            x = fold(x, lane, by_one);
        }
        for block in singles {
            x = fold(x, load(block), by_one);
        }

        // 128 bits to 96: the low half times K4, plus the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, by_one, 0x10), _mm_srli_si128(x, 8));
        // 96 bits to 64: the low word times K5, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett: t1 = (x mod x^32) * mu, t2 = (t1 mod x^32) * P; the
        // reflected remainder is the second word of x + t2.
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let s = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::slice_by_8(s, tail)
    }

    /// `acc` carried 128 bits further (or 512, with the four-lane keys) by
    /// carry-less multiplication, plus `next`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// Sixteen input bytes as one lane, little-endian like the CPU's own load.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8; 16]) -> __m128i {
        let v = u128::from_le_bytes(*block);
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time table algorithm this module used to ship: the
    /// oracle both update paths must agree with. Takes and returns the raw
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

    type Path = fn(u32, &[u8]) -> u32;

    /// Each way to advance the raw state: `update`'s dispatch, and each path
    /// called directly whatever the input's length — the table loop always,
    /// the fold where this CPU has it.
    fn paths() -> Vec<(&'static str, Path)> {
        let mut paths: Vec<(&'static str, Path)> = vec![
            ("update", |s, data| {
                let mut c = Crc32 { state: s };
                c.update(data);
                c.state
            }),
            ("slice-by-8", slice_by_8),
        ];
        #[cfg(target_arch = "x86_64")]
        if clmul::detected() {
            // SAFETY: both target features were detected just above.
            paths.push(("clmul", |s, data| unsafe { clmul::update(s, data) }));
        }
        paths
    }

    /// Lengths either side of a 16-byte block and of the dispatch length.
    fn boundary_lengths() -> Vec<usize> {
        let mut lens = vec![1, 15, 16, 17, 31, 32, 33];
        #[cfg(target_arch = "x86_64")]
        {
            let m = clmul::MIN_LEN;
            lens.extend([m - 1, m, m + 1, m + 15, m + 16, m + 17]);
        }
        lens
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

    /// Every path's checksum of `s` against the oracle's.
    fn assert_paths_agree(s: &[u8], at: &str) {
        let want = crc32_bytewise(s);
        for (name, path) in paths() {
            assert_eq!(path(0xFFFF_FFFF, s) ^ 0xFFFF_FFFF, want, "{name}, {at}");
        }
    }

    #[test]
    fn every_short_length_matches_the_bytewise_oracle() {
        let data = Rng(0x51CB).bytes(1024 + 16);
        for len in 0..=1024 {
            for start in 0..16 {
                let s = &data[start..start + len];
                assert_paths_agree(s, &format!("len {len} at offset {start}"));
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
            assert_paths_agree(s, &format!("len {len} at offset {start}"));
        }
    }

    #[test]
    fn streaming_splits_match_the_oracle() {
        let mut rng = Rng(99);
        let data = rng.bytes(4096 + 64);
        let boundaries = boundary_lengths();
        for _ in 0..200 {
            let len = rng.below(data.len() + 1);
            let s = &data[..len];
            // Up to four arbitrary cut points, including empty pieces, and
            // as many pieces again whose lengths sit either side of a block
            // or the dispatch length.
            let mut cuts: Vec<usize> = (0..rng.below(5)).map(|_| rng.below(len + 1)).collect();
            for _ in 0..rng.below(5) {
                let from = rng.below(len + 1);
                cuts.push(len.min(from + boundaries[rng.below(boundaries.len())]));
            }
            cuts.sort_unstable();
            for (name, path) in paths() {
                let (mut state, mut oracle, mut from) = (0xFFFF_FFFF, 0xFFFF_FFFF, 0);
                for &cut in cuts.iter().chain([&len]) {
                    state = path(state, &s[from..cut]);
                    oracle = bytewise(oracle, &s[from..cut]);
                    assert_eq!(state, oracle, "{name}: piece {from}..{cut} of {len}");
                    from = cut;
                }
            }
        }
    }

    #[test]
    fn sensitive_to_single_bit_flip() {
        // 64 bytes are the fold's four lanes and nothing else; 128 and 4 096
        // also fold them forward.
        for len in [64, 128, 4096] {
            let mut data = vec![0u8; len];
            let base = crc32(&data);
            for byte in 0..len {
                for bit in 0..8 {
                    data[byte] ^= 1 << bit;
                    assert_ne!(
                        crc32(&data),
                        base,
                        "flip at {byte}:{bit} of {len} undetected"
                    );
                    data[byte] ^= 1 << bit;
                }
            }
        }
    }
}
