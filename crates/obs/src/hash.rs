//! A small, dependency-free SHA-256 — the content-addressing primitive
//! behind the run ledger (`obs::ledger`) and the provenance digests in
//! `cluster-sim` / `juggler-core`.
//!
//! The build environment has no crates.io access, so the workspace carries
//! its own implementation of FIPS 180-4 SHA-256. It is used for integrity
//! and addressing of *local, trusted* artifacts (manifests, schedules,
//! run reports), not for any adversarial setting; correctness is pinned
//! against the standard test vectors below.
//!
//! Block compression has two paths. On x86_64 CPUs that report the SHA
//! extensions (`sha`, with `sse4.1` and `ssse3`), [`Sha256::update`] runs
//! the hardware rounds of the `sha_ni` module, chosen at run time; every
//! other CPU and target runs the portable rounds. Both compute the same
//! function, so digests are byte-identical on either path. The portable
//! path is the test oracle ([`sha256_portable`]), and `sha_ni` holds the
//! only `unsafe` code in the workspace.

/// Round constants (first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes).
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

/// Initial hash state (first 32 bits of the fractional parts of the
/// square roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
///
/// ```
/// let mut h = obs::Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(
///     obs::to_hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial block awaiting 64 bytes.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes (the padding encodes it in bits).
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.absorb(data, compress_blocks);
    }

    /// Pads and returns the 32-byte digest, consuming the hasher.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        self.finish(compress_blocks)
    }

    /// [`Self::update`] on the block compressor `compress`. The whole
    /// blocks of `data` go to `compress` in one call, so a path with a
    /// per-call set-up cost pays it once per update, not once per block.
    fn absorb(&mut self, data: &[u8], compress: Compress) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = rest.len().min(64 - self.buf_len);
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < 64 {
                // `rest` is empty (take consumed it); the partial block
                // stays buffered for the next update.
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        compress(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Self::finalize`] on the block compressor `compress`.
    fn finish(mut self, compress: Compress) -> [u8; 32] {
        // 0x80, then zeros until 8 bytes remain in a block, then the
        // big-endian bit length. `absorb` leaves `buf_len < 64`; a tail
        // of 56 bytes or more has no room for the length, which then
        // goes into one more, otherwise all-zero, block.
        let n = self.buf_len;
        let mut pad = [0u8; 128];
        pad[..n].copy_from_slice(&self.buf[..n]);
        pad[n] = 0x80;
        let len = if n < 56 { 64 } else { 128 };
        pad[len - 8..len].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, &pad[..len]);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// A block compressor: folds `blocks`, a whole number of 64-byte
/// blocks, into `state` in order.
type Compress = fn(&mut [u32; 8], &[u8]);

/// Compresses `blocks` into `state` on the SHA-NI path when this CPU has
/// it, on the portable path otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    match sha_ni::detected() {
        Some(compress) => compress(state, blocks),
        None => compress_blocks_portable(state, blocks),
    }
}

/// Whether this CPU runs SHA-256 on the SHA-NI path.
#[must_use]
pub fn sha_ni_detected() -> bool {
    sha_ni::detected().is_some()
}

/// The portable block compressor: the FIPS 180-4 rounds in plain Rust,
/// the only path on CPUs without SHA-NI and the oracle for the one with.
fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(chunk.try_into().expect("chunks_exact(4)"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// SHA-256 block compression on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi32,
        _mm_set_epi64x, _mm_setzero_si128, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };

    use super::{Compress, K};

    /// The SHA-NI compressor when this CPU reports `sha`, `sse4.1` and
    /// `ssse3` (`sse2` is part of the x86_64 baseline), else `None`.
    /// `std` caches the CPUID probe, so a call costs three atomic loads.
    pub(super) fn detected() -> Option<Compress> {
        let present = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse4.1")
            && is_x86_feature_detected!("ssse3");
        present.then_some(compress_detected as Compress)
    }

    /// [`compress_blocks`] behind the feature check: only [`detected`]
    /// hands this function out.
    fn compress_detected(state: &mut [u32; 8], blocks: &[u8]) {
        // SAFETY: `detected` returns this function only after the CPU
        // reported every feature `compress_blocks` enables.
        unsafe { compress_blocks(state, blocks) }
    }

    /// Folds `blocks` into `state` with the SHA-NI round instructions.
    /// The state moves into the two-register ABEF/CDGH layout
    /// `sha256rnds2` works on once per call and back once at the end.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
        // Reverses the bytes of each 32-bit lane: message words are
        // big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let (state_lo, state_hi) = state.split_at_mut(4);
        // SAFETY: `state_lo` and `state_hi` are 4 × u32 = 16 bytes each,
        // and `loadu` has no alignment requirement.
        let (dcba, hgfe) = unsafe {
            (
                _mm_loadu_si128(state_lo.as_ptr().cast::<__m128i>()),
                _mm_loadu_si128(state_hi.as_ptr().cast::<__m128i>()),
            )
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // The last four message-schedule vectors, W[4i..4i + 4] in
            // slot i % 4.
            let mut w = [_mm_setzero_si128(); 4];
            for (w, word) in w.iter_mut().zip(block.chunks_exact(16)) {
                // SAFETY: `word` is a 16-byte chunk of the exact 64-byte
                // `block`, and `loadu` has no alignment requirement.
                let raw = unsafe { _mm_loadu_si128(word.as_ptr().cast::<__m128i>()) };
                *w = _mm_shuffle_epi8(raw, bswap);
            }
            for (i, k) in K.chunks_exact(4).enumerate() {
                if i >= 4 {
                    // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]
                    // for four t at once.
                    let (w16, w12, w8, w4) =
                        (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let sum =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                    w[i % 4] = _mm_sha256msg2_epu32(sum, w4);
                }
                let wk = _mm_add_epi32(
                    w[i % 4],
                    _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads: 16 bytes each, no alignment needed.
        unsafe {
            _mm_storeu_si128(state_lo.as_mut_ptr().cast::<__m128i>(), dcba);
            _mm_storeu_si128(state_hi.as_mut_ptr().cast::<__m128i>(), hgef);
        }
    }
}

/// Other targets have no SHA-NI path.
#[cfg(not(target_arch = "x86_64"))]
mod sha_ni {
    pub(super) fn detected() -> Option<super::Compress> {
        None
    }
}

/// SHA-256 of `data` on the portable path whatever the CPU: the oracle
/// the SHA-NI path is tested and benchmarked against.
#[doc(hidden)]
#[must_use]
pub fn sha256_portable(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.absorb(data, compress_blocks_portable);
    h.finish(compress_blocks_portable)
}

/// One-shot SHA-256 digest of `data`.
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 of `data` as a 64-character lowercase hex string.
#[must_use]
pub fn sha256_hex(data: &[u8]) -> String {
    to_hex(&sha256(data))
}

/// Lowercase hex rendering of a byte slice.
#[must_use]
pub fn to_hex(bytes: &[u8]) -> String {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX[(b >> 4) as usize] as char);
        out.push(HEX[(b & 0xf) as usize] as char);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn quick_brown_fox() {
        assert_eq!(
            sha256_hex(b"The quick brown fox jumps over the lazy dog"),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256_hex(&data),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        let whole = sha256_hex(&data);
        // Feed in awkward chunk sizes that straddle block boundaries.
        for chunk in [1usize, 7, 63, 64, 65, 130] {
            let mut h = Sha256::new();
            for piece in data.chunks(chunk) {
                h.update(piece);
            }
            assert_eq!(to_hex(&h.finalize()), whole, "chunk size {chunk}");
        }
    }

    /// Hashes `data` as two `update` calls split at every point in the
    /// first 130 bytes — across the 55/56/64-byte padding boundaries of
    /// `finalize` — and checks each against `want`.
    fn assert_every_split(data: &[u8], want: &str) {
        for split in 0..=data.len().min(130) {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(to_hex(&h.finalize()), want, "split at {split}");
        }
    }

    #[test]
    fn fips_two_block_vector_at_every_split() {
        // 56 bytes: the length no longer fits the first padded block.
        assert_every_split(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn fips_million_a_at_every_split() {
        assert_every_split(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn padding_boundary_lengths_match_one_shot_reference() {
        // Tails of 55, 56, 63 and 64 bytes cover every padding branch;
        // the digests are the standard SHA-256 of n × 'a'.
        for (n, want) in [
            (
                55,
                "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318",
            ),
            (
                56,
                "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a",
            ),
            (
                63,
                "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34",
            ),
            (
                64,
                "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb",
            ),
        ] {
            assert_every_split(&vec![b'a'; n], want);
        }
    }

    /// SplitMix64: fixed-seed test bytes, states and split points.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn sha_ni_blocks_match_portable_blocks() {
        let Some(sha_ni) = sha_ni::detected() else {
            println!("SKIPPED (no sha_ni)");
            return;
        };
        let mut rng = SplitMix(19);
        for blocks in 1..=40 {
            for _ in 0..4 {
                let data = rng.bytes(64 * blocks);
                let init: [u32; 8] = std::array::from_fn(|_| rng.next() as u32);
                let (mut want, mut got) = (init, init);
                compress_blocks_portable(&mut want, &data);
                sha_ni(&mut got, &data);
                assert_eq!(got, want, "{blocks} blocks from {init:08x?}");
            }
        }
    }

    #[test]
    fn dispatched_digests_match_portable_at_every_length() {
        assert_eq!(
            to_hex(&sha256_portable(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        let mut rng = SplitMix(1100);
        let data = rng.bytes(1100);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let want = sha256_portable(msg);
            let random = (rng.next() % (len as u64 + 1)) as usize;
            for split in [0, len / 2, random] {
                let mut h = Sha256::new();
                h.update(&msg[..split]);
                h.update(&msg[split..]);
                assert_eq!(h.finalize(), want, "length {len} split at {split}");
            }
        }
    }

    #[test]
    fn hex_rendering() {
        assert_eq!(to_hex(&[0x00, 0xff, 0x1a]), "00ff1a");
        assert_eq!(to_hex(&[]), "");
    }
}
