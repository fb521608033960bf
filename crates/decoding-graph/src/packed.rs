//! Bit-packed syndrome words and the kernels that operate on them.
//!
//! The byte-per-detector buffers the rest of the workspace grew up with
//! waste 63/64ths of every load: a detection event is one bit. This
//! module is the packed substrate the frame-parallel datapath is built
//! on — syndromes live in `u64` words (64 detectors, or 64 shots, per
//! word) and the hot operations of the decode pipeline become word ops:
//!
//! * round cancellation (`curr & prev; curr ^= and; prev ^= and`) is an
//!   AND/XOR over words ([`shl_into`]/[`shr_into`] align the layers);
//! * defect counting is a popcount scan ([`popcount`]);
//! * window extraction applies a precomputed seam mask ([`WordSpan`])
//!   instead of copying detector ids one by one.
//!
//! # Word layout
//!
//! Bit `i % 64` of word `i / 64` holds element `i`. A [`WordSpan`] over
//! `lo..hi` rebases bit `lo` to bit 0 of the extracted words and masks
//! the seam: bits past `hi - lo` in the last word are forced to zero.
//!
//! # Kernels
//!
//! The kernels are plain scalar loops over `u64` words, left to the
//! compiler to vectorize for whatever target the build names. Portable
//! builds (SSE2 on x86-64) and `target-cpu=native` builds measured
//! within noise of each other on the benchmark's engine workloads, so
//! there is no hand-written SIMD variant to keep bit-identical.

use crate::DetectorId;

/// Bits per packed word.
pub const WORD_BITS: usize = 64;

/// Number of words needed to hold `bits` bits.
#[inline]
pub fn words_for(bits: usize) -> usize {
    bits.div_ceil(WORD_BITS)
}

/// `dst[i] ^= src[i]` over the common prefix (the packed merge of two
/// defect sets).
#[inline]
pub fn xor_accumulate(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Total set bits across `words`.
#[inline]
pub fn popcount(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Calls `f` with the index of every set bit, ascending.
pub fn for_each_set_bit(words: &[u64], mut f: impl FnMut(usize)) {
    for (i, &word) in words.iter().enumerate() {
        let mut w = word;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            f(i * WORD_BITS + b);
            w &= w - 1;
        }
    }
}

/// `out[i] = (src << shift)[i]`: every bit moves *up* by `shift`
/// positions (bit `b` of `src` lands at bit `b + shift`). Bits shifted
/// past the end of `out` are dropped. `out` and `src` must not alias.
pub fn shl_into(src: &[u64], shift: usize, out: &mut [u64]) {
    let (q, r) = (shift / WORD_BITS, shift % WORD_BITS);
    for i in 0..out.len() {
        let lo = if i >= q {
            src.get(i - q).copied().unwrap_or(0) << r
        } else {
            0
        };
        let hi = if r > 0 && i > q {
            src.get(i - q - 1).copied().unwrap_or(0) >> (WORD_BITS - r)
        } else {
            0
        };
        out[i] = lo | hi;
    }
}

/// `out[i] = (src >> shift)[i]`: every bit moves *down* by `shift`
/// positions (bit `b` of `src` lands at bit `b - shift`). `out` and
/// `src` must not alias.
pub fn shr_into(src: &[u64], shift: usize, out: &mut [u64]) {
    let (q, r) = (shift / WORD_BITS, shift % WORD_BITS);
    for i in 0..out.len() {
        let lo = src.get(i + q).copied().unwrap_or(0) >> r;
        let hi = if r > 0 {
            src.get(i + q + 1).copied().unwrap_or(0) << (WORD_BITS - r)
        } else {
            0
        };
        out[i] = lo | hi;
    }
}

/// Zeroes every bit outside `lo..hi` (bit positions within `words`).
pub fn mask_to_range(words: &mut [u64], lo: usize, hi: usize) {
    for (i, w) in words.iter_mut().enumerate() {
        let base = i * WORD_BITS;
        let end = base + WORD_BITS;
        if end <= lo || base >= hi {
            *w = 0;
            continue;
        }
        if base < lo {
            *w &= !((1u64 << (lo - base)) - 1);
        }
        if hi < end {
            *w &= (1u64 << (hi - base)) - 1;
        }
    }
}

// ---------------------------------------------------------------------
// WordSpan: precomputed seam-masked extraction of a bit range.
// ---------------------------------------------------------------------

/// A precomputed extraction plan for bit range `lo..hi` of a packed
/// vector: the word offset, the funnel shift, and the seam mask of the
/// final word. [`WordSpan::extract_into`] then pulls a window out of a
/// full-length packed syndrome with one shifted copy per word — no
/// per-detector work — and rebases it so bit `lo` becomes bit 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WordSpan {
    lo: usize,
    hi: usize,
    word_lo: usize,
    shift: usize,
    words: usize,
    /// AND-mask for the last extracted word: zeroes the bits past the
    /// seam (`hi`). `!0` when the range ends on a word boundary.
    tail_mask: u64,
}

impl WordSpan {
    /// Plans the extraction of bits `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "inverted span {lo}..{hi}");
        let nbits = hi - lo;
        let words = words_for(nbits);
        let tail = nbits % WORD_BITS;
        WordSpan {
            lo,
            hi,
            word_lo: lo / WORD_BITS,
            shift: lo % WORD_BITS,
            words,
            tail_mask: if tail == 0 { !0 } else { (1u64 << tail) - 1 },
        }
    }

    /// The planned bit range.
    pub fn range(&self) -> std::ops::Range<usize> {
        self.lo..self.hi
    }

    /// Number of bits extracted.
    pub fn num_bits(&self) -> usize {
        self.hi - self.lo
    }

    /// Number of words the extraction produces.
    pub fn num_words(&self) -> usize {
        self.words
    }

    /// Extracts the span from `src` into `out` (cleared first), rebased
    /// so bit `lo` of `src` is bit 0 of `out`. Bits of `src` beyond its
    /// length read as zero, so `src` may be shorter than the span.
    pub fn extract_into(&self, src: &[u64], out: &mut Vec<u64>) {
        out.clear();
        if self.words == 0 {
            return;
        }
        out.resize(self.words, 0);
        if self.shift == 0 {
            for (i, w) in out.iter_mut().enumerate() {
                *w = src.get(self.word_lo + i).copied().unwrap_or(0);
            }
        } else {
            for (i, w) in out.iter_mut().enumerate() {
                let lo = src.get(self.word_lo + i).copied().unwrap_or(0) >> self.shift;
                let hi =
                    src.get(self.word_lo + i + 1).copied().unwrap_or(0) << (WORD_BITS - self.shift);
                *w = lo | hi;
            }
        }
        out[self.words - 1] &= self.tail_mask;
    }
}

// ---------------------------------------------------------------------
// PackedBits: a bitset with branch-free touched-word resets.
// ---------------------------------------------------------------------

/// A packed bitset whose clear costs O(touched words), not O(capacity).
///
/// [`PackedBits::set`] records the index of every word it lights up;
/// [`PackedBits::clear`] zeroes exactly those words with a branch-free
/// sweep (no per-entry conditionals, no full-buffer `fill`). This is the
/// packed replacement for the `Vec<bool>` + per-entry reset loops the
/// dense decoder scratch used to carry.
#[derive(Clone, Debug, Default)]
pub struct PackedBits {
    words: Vec<u64>,
    touched: Vec<u32>,
}

impl PackedBits {
    /// Creates an empty bitset (capacity grows via [`PackedBits::ensure`]).
    pub fn new() -> Self {
        PackedBits::default()
    }

    /// Grows the capacity to at least `bits` bits.
    pub fn ensure(&mut self, bits: usize) {
        let w = words_for(bits);
        if self.words.len() < w {
            self.words.resize(w, 0);
        }
    }

    /// Sets bit `bit`. The bit must be within the ensured capacity.
    #[inline]
    pub fn set(&mut self, bit: usize) {
        let w = bit / WORD_BITS;
        if self.words[w] == 0 {
            self.touched.push(w as u32);
        }
        self.words[w] |= 1u64 << (bit % WORD_BITS);
    }

    /// Whether bit `bit` is set. Bits beyond the capacity read as unset.
    #[inline]
    pub fn get(&self, bit: usize) -> bool {
        self.words
            .get(bit / WORD_BITS)
            .is_some_and(|w| (w >> (bit % WORD_BITS)) & 1 == 1)
    }

    /// ORs in the bits of `src` that fall in positions `lo..hi` — the
    /// packed arrival merge of the zero-copy ingest path: one window
    /// step's newly measured layers are pulled straight out of an
    /// arena-backed shot without materializing detector ids.
    ///
    /// Preserves the touched-word invariant of [`PackedBits::set`] (a
    /// word is recorded when it transitions from zero), so
    /// [`PackedBits::clear`] stays O(touched). Bits of `src` beyond its
    /// length read as zero; the positions `lo..hi` must be within the
    /// ensured capacity.
    pub fn or_words_range(&mut self, src: &[u64], lo: usize, hi: usize) {
        if lo >= hi {
            return;
        }
        let word_lo = lo / WORD_BITS;
        let word_hi = (hi - 1) / WORD_BITS;
        for w in word_lo..=word_hi {
            let mut bits = src.get(w).copied().unwrap_or(0);
            let base = w * WORD_BITS;
            if base < lo {
                bits &= !((1u64 << (lo - base)) - 1);
            }
            let end = base + WORD_BITS;
            if hi < end {
                bits &= (1u64 << (hi - base)) - 1;
            }
            if bits != 0 {
                if self.words[w] == 0 {
                    self.touched.push(w as u32);
                }
                self.words[w] |= bits;
            }
        }
    }

    /// Zeroes every touched word — the branch-free O(touched) reset.
    pub fn clear(&mut self) {
        for &w in &self.touched {
            self.words[w as usize] = 0;
        }
        self.touched.clear();
    }

    /// Total set bits (popcount over the touched words only).
    pub fn count(&self) -> u32 {
        self.touched
            .iter()
            .map(|&w| self.words[w as usize].count_ones())
            .sum()
    }

    /// The backing words (full ensured capacity; untouched words are 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

// ---------------------------------------------------------------------
// PackedSyndromes: a batch of shot-major packed syndromes.
// ---------------------------------------------------------------------

/// Many syndromes, each a packed bit-vector over the detector space —
/// the packed twin of [`crate::SyndromeBatch`], stored as one flat word
/// buffer (`words_per_shot` words per shot).
#[derive(Clone, Debug)]
pub struct PackedSyndromes {
    num_bits: u32,
    words_per_shot: usize,
    words: Vec<u64>,
    shots: usize,
}

impl PackedSyndromes {
    /// Creates an empty batch over a `num_bits`-detector space.
    pub fn new(num_bits: u32) -> Self {
        PackedSyndromes {
            num_bits,
            words_per_shot: words_for(num_bits as usize).max(1),
            words: Vec::new(),
            shots: 0,
        }
    }

    /// Removes all shots, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
        self.shots = 0;
    }

    /// Re-fills the batch with `shots` zeroed shots, keeping the
    /// allocation — the arena reset of the zero-copy ingest path:
    /// writers then set bits in place via [`PackedSyndromes::words_mut`]
    /// (the sampler transpose) or per shot via
    /// [`PackedSyndromes::shot_words_mut`] (the service wire decode).
    pub fn reset_shots(&mut self, shots: usize) {
        self.words.clear();
        self.words.resize(shots * self.words_per_shot, 0);
        self.shots = shots;
    }

    /// Mutable view of the whole flat word buffer
    /// (`words_per_shot()` consecutive words per shot).
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Mutable packed words of shot `i` (for in-place writers).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn shot_words_mut(&mut self, i: usize) -> &mut [u64] {
        assert!(i < self.shots, "shot {i} out of range");
        &mut self.words[i * self.words_per_shot..(i + 1) * self.words_per_shot]
    }

    /// Appends one syndrome from its sorted sparse form.
    ///
    /// # Panics
    ///
    /// Panics if a detector id is out of range.
    pub fn push_sparse(&mut self, dets: &[DetectorId]) {
        let base = self.words.len();
        self.words.resize(base + self.words_per_shot, 0);
        for &d in dets {
            assert!(d < self.num_bits, "detector {d} out of range");
            self.words[base + d as usize / WORD_BITS] |= 1u64 << (d as usize % WORD_BITS);
        }
        self.shots += 1;
    }

    /// Number of shots in the batch.
    pub fn len(&self) -> usize {
        self.shots
    }

    /// Whether the batch holds no shots.
    pub fn is_empty(&self) -> bool {
        self.shots == 0
    }

    /// Size of the detector space.
    pub fn num_bits(&self) -> u32 {
        self.num_bits
    }

    /// Words per shot.
    pub fn words_per_shot(&self) -> usize {
        self.words_per_shot
    }

    /// The packed words of shot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn shot_words(&self, i: usize) -> &[u64] {
        assert!(i < self.shots, "shot {i} out of range");
        &self.words[i * self.words_per_shot..(i + 1) * self.words_per_shot]
    }

    /// Writes shot `i`'s sorted sparse form into `out` (cleared first).
    pub fn sparse_into(&self, i: usize, out: &mut Vec<DetectorId>) {
        out.clear();
        for_each_set_bit(self.shot_words(i), |b| out.push(b as DetectorId));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic word patterns without an RNG dependency.
    fn pattern(n: usize, seed: u64) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                // xorshift64*
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.wrapping_mul(0x2545_F491_4F6C_DD1D)
            })
            .collect()
    }

    /// Bit `i` of `words` (the word layout the kernels share).
    fn bit(words: &[u64], i: usize) -> bool {
        words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    #[test]
    fn kernels_match_the_per_bit_model() {
        for n in [0usize, 1, 3, 4, 7, 16, 33] {
            let a = pattern(n, 0xA11CE);
            let b = pattern(n, 0xB0B);
            let mut x = a.clone();
            xor_accumulate(&mut x, &b);
            for i in 0..n * WORD_BITS {
                assert_eq!(bit(&x, i), bit(&a, i) != bit(&b, i), "xor n={n} bit {i}");
            }
            let ones = (0..n * WORD_BITS).filter(|&i| bit(&a, i)).count();
            assert_eq!(popcount(&a) as usize, ones, "popcount n={n}");
        }
        // Only the common prefix is touched.
        let mut short = vec![1u64, 2];
        xor_accumulate(&mut short, &[3]);
        assert_eq!(short, [2, 2]);
    }

    #[test]
    fn shifts_round_trip_and_match_bit_model() {
        for shift in [0usize, 1, 5, 63, 64, 65, 130] {
            let src = pattern(4, shift as u64 + 3);
            let mut up = vec![0u64; 6];
            shl_into(&src, shift, &mut up);
            let mut down = vec![0u64; 4];
            shr_into(&up, shift, &mut down);
            // Bits that survived the up-shift come back exactly.
            for b in 0..(6 * WORD_BITS).saturating_sub(shift).min(4 * WORD_BITS) {
                let orig = (src[b / 64] >> (b % 64)) & 1 == 1;
                let moved = (up[(b + shift) / 64] >> ((b + shift) % 64)) & 1 == 1;
                assert_eq!(orig, moved, "shl bit {b} shift {shift}");
                let back = (down[b / 64] >> (b % 64)) & 1 == 1;
                assert_eq!(orig, back, "roundtrip bit {b} shift {shift}");
            }
        }
    }

    #[test]
    fn word_span_extraction_matches_per_bit_copy() {
        let src = pattern(8, 42);
        for (lo, hi) in [(0, 64), (0, 100), (13, 13), (13, 77), (65, 200), (190, 512)] {
            let span = WordSpan::new(lo, hi);
            assert_eq!(span.num_bits(), hi - lo);
            assert_eq!(span.range(), lo..hi);
            let mut out = Vec::new();
            span.extract_into(&src, &mut out);
            assert_eq!(out.len(), span.num_words());
            let mut expect: Vec<usize> = Vec::new();
            for_each_set_bit(&src, |b| {
                if b >= lo && b < hi {
                    expect.push(b - lo);
                }
            });
            let mut got: Vec<usize> = Vec::new();
            for_each_set_bit(&out, |b| got.push(b));
            assert_eq!(got, expect, "span {lo}..{hi}");
        }
    }

    #[test]
    fn mask_to_range_zeroes_outside_bits() {
        let mut w = vec![!0u64; 3];
        mask_to_range(&mut w, 10, 150);
        let mut got: Vec<usize> = Vec::new();
        for_each_set_bit(&w, |b| got.push(b));
        assert_eq!(got, (10..150).collect::<Vec<_>>());
    }

    #[test]
    fn packed_bits_clear_is_touched_words_only() {
        let mut b = PackedBits::new();
        b.ensure(300);
        assert!(!b.get(7));
        b.set(7);
        b.set(70);
        b.set(71);
        b.set(299);
        assert_eq!(b.count(), 4);
        assert!(b.get(70) && b.get(299));
        assert!(!b.get(9999), "out-of-capacity bits read unset");
        b.clear();
        assert_eq!(b.count(), 0);
        assert!(b.words().iter().all(|&w| w == 0));
        // Reuse after clear: the touched list restarts.
        b.set(71);
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn or_words_range_matches_per_bit_sets() {
        let src = pattern(5, 0xF00D);
        for (lo, hi) in [(0, 0), (0, 64), (3, 3), (3, 70), (64, 128), (100, 301)] {
            let mut fast = PackedBits::new();
            fast.ensure(320);
            fast.set(lo.max(1) - 1); // a pre-set bit shares words with the range
            let mut slow = fast.clone();
            fast.or_words_range(&src, lo, hi);
            for_each_set_bit(&src, |b| {
                if b >= lo && b < hi {
                    slow.set(b);
                }
            });
            assert_eq!(fast.words(), slow.words(), "range {lo}..{hi}");
            assert_eq!(fast.count(), slow.count(), "range {lo}..{hi}");
            // The touched invariant survives: clear really zeroes.
            fast.clear();
            assert!(fast.words().iter().all(|&w| w == 0), "range {lo}..{hi}");
        }
    }

    #[test]
    fn arena_reset_and_in_place_writes_round_trip() {
        let mut p = PackedSyndromes::new(130);
        p.push_sparse(&[1, 2, 3]);
        p.reset_shots(4);
        assert_eq!(p.len(), 4);
        assert!(p.words_mut().iter().all(|&w| w == 0), "reset zeroes");
        p.shot_words_mut(2)[1] |= 1 << 5; // detector 69
        p.shot_words_mut(3)[0] |= 1;
        let mut out = Vec::new();
        p.sparse_into(2, &mut out);
        assert_eq!(out, vec![69]);
        p.sparse_into(3, &mut out);
        assert_eq!(out, vec![0]);
        p.sparse_into(0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn packed_syndromes_round_trip_sparse_shots() {
        let mut p = PackedSyndromes::new(130);
        assert!(p.is_empty());
        p.push_sparse(&[0, 63, 64, 129]);
        p.push_sparse(&[]);
        p.push_sparse(&[5]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.words_per_shot(), 3);
        assert_eq!(p.num_bits(), 130);
        let mut out = Vec::new();
        p.sparse_into(0, &mut out);
        assert_eq!(out, vec![0, 63, 64, 129]);
        p.sparse_into(1, &mut out);
        assert!(out.is_empty());
        p.sparse_into(2, &mut out);
        assert_eq!(out, vec![5]);
        p.clear();
        assert!(p.is_empty());
    }
}
