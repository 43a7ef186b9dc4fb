//! SHA-256, double SHA-256, and the 32-byte [`Hash256`] digest type.
//!
//! A from-scratch, constant-table SHA-256 (FIPS 180-4) keeps the substrate
//! dependency-free while producing real, collision-resistant transaction and
//! block identifiers — the audit pipeline keys every data structure on them.

use std::cmp::Ordering;
use std::fmt;

/// A 32-byte digest, displayed in Bitcoin's reversed-hex convention and
/// ordered byte-lexicographically, like its `[u8; 32]`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Hash256(pub [u8; 32]);

impl Hash256 {
    /// The all-zero hash (used e.g. for the coinbase prevout and genesis prev-hash).
    pub const ZERO: Hash256 = Hash256([0u8; 32]);

    /// Returns the raw bytes.
    #[inline]
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Interprets the first 8 bytes as a little-endian integer.
    ///
    /// Handy for deterministic, hash-derived pseudo-random decisions
    /// (e.g. sampling transactions by txid).
    #[inline]
    pub fn to_u64(&self) -> u64 {
        u64::from_le_bytes(self.0[..8].try_into().expect("32 >= 8"))
    }

    /// Parses a 64-character hex string in Bitcoin's reversed display order.
    pub fn from_hex(s: &str) -> Option<Hash256> {
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            // Display order is byte-reversed relative to memory order.
            out[31 - i] = ((hi << 4) | lo) as u8;
        }
        Some(Hash256(out))
    }
}

impl Ord for Hash256 {
    /// Compares four big-endian `u64` words, most significant first. The
    /// first unequal word holds the first unequal byte, and big-endian
    /// makes that byte decide the word compare, so the order is the bytes'
    /// order. Sorted txid rows, the fleet merge and every digest-keyed tree
    /// compare with it.
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.chunks_exact(8).zip(other.0.chunks_exact(8)) {
            let a = u64::from_be_bytes(a.try_into().expect("8-byte chunk"));
            let b = u64::from_be_bytes(b.try_into().expect("8-byte chunk"));
            if a != b {
                return a.cmp(&b);
            }
        }
        Ordering::Equal
    }
}

impl PartialOrd for Hash256 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl From<[u8; 32]> for Hash256 {
    fn from(b: [u8; 32]) -> Self {
        Hash256(b)
    }
}

impl fmt::Display for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Bitcoin convention: print bytes in reverse order.
        for b in self.0.iter().rev() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for Hash256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher (FIPS 180-4).
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state.
    pub fn new() -> Self {
        Sha256 { state: H0, buf: [0u8; 64], buf_len: 0, total_len: 0 }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= 64 {
            let block: [u8; 64] = data[..64].try_into().expect("len checked");
            self.compress(&block);
            data = &data[64..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Hash256 {
        let bit_len = self.total_len.wrapping_mul(8);
        // Pad in place: 0x80, zeros to the next 56-byte boundary, then the
        // big-endian bit length — one or two compressions, no per-byte
        // update calls.
        let len = self.buf_len;
        self.buf[len] = 0x80;
        if len < 56 {
            self.buf[len + 1..56].fill(0);
        } else {
            self.buf[len + 1..].fill(0);
            let block = self.buf;
            self.compress(&block);
            self.buf[..56].fill(0);
        }
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Hash256(out)
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // SAFETY-adjacent note: `available()` has verified the sha,
            // sse2, ssse3 and sse4.1 CPUID bits that the accelerated
            // routine's `#[target_feature]` contract requires.
            shani::compress(&mut self.state, block);
            return;
        }
        compress_scalar(&mut self.state, block);
    }
}

/// Portable SHA-256 block compression — the reference implementation the
/// hardware path is equivalence-tested against, and the only path on
/// non-x86 targets.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    // One round with the working variables in fixed registers; callers
    // rotate the variable *roles* instead of shuffling eight registers
    // per round (the textbook h=g; g=f; ... chain), which is the main
    // scalar-SHA-256 speedup available without unsafe intrinsics.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident,
             $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h.wrapping_add(s1).wrapping_add(ch).wrapping_add($kw);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        }};
    }

    let mut w = [0u32; 64];
    for (i, word) in w.iter_mut().take(16).enumerate() {
        *word = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("4 bytes"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    let mut i = 0;
    while i < 64 {
        round!(a, b, c, d, e, f, g, h, K[i].wrapping_add(w[i]));
        round!(h, a, b, c, d, e, f, g, K[i + 1].wrapping_add(w[i + 1]));
        round!(g, h, a, b, c, d, e, f, K[i + 2].wrapping_add(w[i + 2]));
        round!(f, g, h, a, b, c, d, e, K[i + 3].wrapping_add(w[i + 3]));
        round!(e, f, g, h, a, b, c, d, K[i + 4].wrapping_add(w[i + 4]));
        round!(d, e, f, g, h, a, b, c, K[i + 5].wrapping_add(w[i + 5]));
        round!(c, d, e, f, g, h, a, b, K[i + 6].wrapping_add(w[i + 6]));
        round!(b, c, d, e, f, g, h, a, K[i + 7].wrapping_add(w[i + 7]));
        i += 8;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Hardware SHA-256 block compression via the x86 SHA extensions.
///
/// Transaction building is the simulator's hottest leaf: every filler byte,
/// txid, and block hash funnels through [`Sha256::compress`], and the
/// scalar rounds cap the whole experiment suite. This module is the one
/// place the workspace uses `unsafe` — a handful of `core::arch`
/// intrinsics behind a cached CPUID check, equivalence-tested against
/// [`compress_scalar`] (which remains the specification) on every build.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod shani {
    use super::K;
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32,
        _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::atomic::{AtomicU8, Ordering};

    /// Cached CPUID probe: 0 = unknown, 1 = supported, 2 = unsupported.
    static SUPPORT: AtomicU8 = AtomicU8::new(0);

    /// True when the CPU advertises every feature [`compress`] relies on.
    #[inline]
    pub fn available() -> bool {
        match SUPPORT.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let yes = std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("sse2")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1");
                SUPPORT.store(if yes { 1 } else { 2 }, Ordering::Relaxed);
                yes
            }
        }
    }

    /// One SHA-256 compression over `block`, updating `state` in place.
    ///
    /// Follows Intel's reference sequence: the state lives in two
    /// registers as (ABEF, CDGH); message quads rotate through four
    /// registers with `sha256msg1`/`sha256msg2` extending the schedule.
    /// `m[q % 4]` holds quad `q`'s final W words until quad `q + 4`
    /// overwrites the slot (by then it holds the `msg1`-folded value the
    /// extension consumes).
    pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        debug_assert!(available());
        // SAFETY: the dispatcher only calls this after `available()`
        // confirmed the sha/sse2/ssse3/sse4.1 target features this
        // function is compiled with; loads and stores go through
        // unaligned intrinsics on slices of statically known length.
        unsafe { compress_impl(state, block) }
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_impl(state: &mut [u32; 8], block: &[u8; 64]) {
        // Byte shuffle turning each 32-bit lane big-endian on load.
        let be_mask = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

        // Repack [a,b,c,d] / [e,f,g,h] into the (ABEF, CDGH) register pair
        // the sha256rnds2 instruction operates on.
        let abcd = _mm_loadu_si128(state.as_ptr().cast());
        let efgh = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let tmp = _mm_shuffle_epi32::<0xB1>(abcd);
        let efgh = _mm_shuffle_epi32::<0x1B>(efgh);
        let mut abef = _mm_alignr_epi8::<8>(tmp, efgh);
        let mut cdgh = _mm_blend_epi16::<0xF0>(efgh, tmp);
        let (save_abef, save_cdgh) = (abef, cdgh);

        let mut m = [_mm_setzero_si128(); 4];
        for q in 0..16 {
            if q < 4 {
                m[q] =
                    _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * q).cast()), be_mask);
            }
            let k = _mm_loadu_si128(K.as_ptr().add(4 * q).cast());
            let wk = _mm_add_epi32(m[q % 4], k);
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0E>(wk));
            if (3..=14).contains(&q) {
                // Extend the schedule one quad ahead: W quad q+1 from the
                // msg1-folded quad q-3 (sitting in the slot about to be
                // overwritten) plus the alignr-carried W[t-7] words.
                let carry = _mm_alignr_epi8::<4>(m[q % 4], m[(q + 3) % 4]);
                let folded = _mm_add_epi32(m[(q + 1) % 4], carry);
                m[(q + 1) % 4] = _mm_sha256msg2_epu32(folded, m[q % 4]);
            }
            if (1..=12).contains(&q) {
                // Fold sigma0 of quad q into quad q-1; consumed when the
                // extension above reaches quad q+3.
                m[(q + 3) % 4] = _mm_sha256msg1_epu32(m[(q + 3) % 4], m[q % 4]);
            }
        }

        abef = _mm_add_epi32(abef, save_abef);
        cdgh = _mm_add_epi32(cdgh, save_cdgh);
        let tmp = _mm_shuffle_epi32::<0x1B>(abef);
        let cdgh = _mm_shuffle_epi32::<0xB1>(cdgh);
        let abcd = _mm_blend_epi16::<0xF0>(tmp, cdgh);
        let efgh: __m128i = _mm_alignr_epi8::<8>(cdgh, tmp);
        _mm_storeu_si128(state.as_mut_ptr().cast(), abcd);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), efgh);
    }
}

/// Single SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Hash256 {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Bitcoin's double SHA-256: `SHA256(SHA256(data))`.
pub fn sha256d(data: &[u8]) -> Hash256 {
    sha256(sha256(data).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_fwd(h: &Hash256) -> String {
        // Forward (memory-order) hex, matching FIPS test vectors.
        h.0.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex_fwd(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex_fwd(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex_fwd(&sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex_fwd(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for chunk in [1usize, 3, 63, 64, 65, 1000] {
            let mut h = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
            }
            assert_eq!(h.finalize(), sha256(&data), "chunk size {chunk}");
        }
    }

    #[test]
    fn double_sha256_of_hello() {
        // Known value: sha256d("hello")
        assert_eq!(
            hex_fwd(&sha256d(b"hello")),
            "9595c9df90075148eb06860365df33584b75bff782a510c6cd4883a419833d50"
        );
    }

    #[test]
    fn display_is_reversed_hex() {
        let mut bytes = [0u8; 32];
        bytes[0] = 0xab;
        bytes[31] = 0x01;
        let h = Hash256(bytes);
        let s = h.to_string();
        assert!(s.starts_with("01"));
        assert!(s.ends_with("ab"));
    }

    #[test]
    fn from_hex_round_trips_display() {
        let h = sha256(b"round trip");
        let parsed = Hash256::from_hex(&h.to_string()).expect("valid hex");
        assert_eq!(parsed, h);
        assert_eq!(Hash256::from_hex("xyz"), None);
        assert_eq!(Hash256::from_hex(&"0".repeat(63)), None);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn hardware_compress_matches_scalar() {
        if !shani::available() {
            return; // nothing to cross-check on this machine
        }
        // Deterministic pseudo-random blocks and states: every compression
        // the hardware path can take must agree with the portable
        // reference bit for bit.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..500 {
            let mut state = [0u32; 8];
            for w in &mut state {
                *w = next() as u32;
            }
            let mut block = [0u8; 64];
            for chunk in block.chunks_mut(8) {
                chunk.copy_from_slice(&next().to_le_bytes());
            }
            let mut hw = state;
            let mut sw = state;
            shani::compress(&mut hw, &block);
            compress_scalar(&mut sw, &block);
            assert_eq!(hw, sw);
        }
    }

    #[test]
    fn to_u64_is_le_prefix() {
        let mut b = [0u8; 32];
        b[0] = 1;
        assert_eq!(Hash256(b).to_u64(), 1);
        b[7] = 1;
        assert_eq!(Hash256(b).to_u64(), 1 | (1 << 56));
    }
}
