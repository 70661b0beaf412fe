//! Suffix-array construction and longest-match search.
//!
//! `bsdiff` finds, for every position of the new firmware, the longest
//! match anywhere in the old firmware. The classic implementation does this
//! with a suffix array over the old image. Construction uses the
//! linear-time SA-IS algorithm ([`crate::sais`]), which the tests check
//! against a plain sort of the suffixes.
//!
//! Beside the array, [`SuffixArray::build`] counts the suffixes in each
//! two-byte bucket: `buckets[k]` is the number of suffixes that sort below
//! every string starting with the two bytes `k`. A needle's own bucket
//! then bounds the binary search of [`SuffixArray::longest_match`] to the
//! suffixes that share its first two bytes instead of the whole array, and
//! the search still ends where a search over the whole array ends. The
//! table is 65,537 `u32`s (256 KiB) whatever the image size. It is counted
//! first, in one pass over the image, and SA-IS takes its byte counts
//! from it (byte `b`'s suffixes start at `buckets[b << 8]`, less one when
//! the image ends with `b`) instead of counting the image again.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

/// Number of two-byte buckets.
const BUCKETS: usize = 1 << 16;

/// A suffix array over a byte string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuffixArray {
    /// `sa[i]` = start offset of the i-th smallest suffix.
    sa: Vec<u32>,
    /// `buckets[k]` = number of suffixes sorting below every string that
    /// starts with the bytes `k >> 8, k & 0xFF`; `buckets[BUCKETS]` is the
    /// number of suffixes.
    buckets: Vec<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of `data` with the linear-time SA-IS
    /// construction, and its two-byte bucket index.
    #[must_use]
    pub fn build(data: &[u8]) -> Self {
        // A suffix of two or more bytes counts at the bucket after its
        // own, so after the inclusive prefix sum it is below every later
        // bucket but not its own. The one-byte suffix `[b]` sorts ahead
        // of every string starting with `b`, so it counts at the first of
        // `b`'s buckets.
        let mut buckets = vec![0u32; BUCKETS + 1];
        if let Some((&first, rest)) = data.split_first() {
            let mut pair = usize::from(first);
            for &byte in rest {
                pair = (pair << 8 | usize::from(byte)) & (BUCKETS - 1);
                buckets[pair + 1] += 1;
            }
            buckets[(pair & 0xFF) << 8] += 1;
        }
        let mut below = 0;
        for count in &mut buckets {
            below += *count;
            *count = below;
        }
        let counts = byte_counts(&buckets, data);
        Self {
            sa: crate::sais::suffix_array_counted(data, &counts),
            buckets,
        }
    }

    /// The sorted suffix offsets: `offsets()[i]` is the start position of
    /// the i-th lexicographically smallest suffix.
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.sa
    }

    /// Number of suffixes (= input length).
    #[must_use]
    pub fn len(&self) -> usize {
        self.sa.len()
    }

    /// Returns `true` for an empty input.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sa.is_empty()
    }

    /// Finds the longest prefix of `needle` occurring anywhere in `old`
    /// (the string this array was built over). Returns `(length, offset)`;
    /// `(0, 0)` when nothing matches.
    ///
    /// A binary search finds where `needle` would sort, and the longer of
    /// the two neighbouring suffixes' common prefixes wins (the lower one
    /// on a tie). For a needle of two or more bytes the search starts
    /// inside the needle's two-byte bucket: every suffix up to one below
    /// the bucket's start sorts below the needle, and the next bucket's
    /// start sorts at or above it. So the search ends at the same pair of
    /// neighbours, and returns the same result, as a search over the
    /// whole array.
    #[must_use]
    pub fn longest_match(&self, old: &[u8], needle: &[u8]) -> (usize, usize) {
        if self.sa.is_empty() || needle.is_empty() {
            return (0, 0);
        }

        // Binary search for the suffix with the longest common prefix.
        let (mut lo, mut hi) = match *needle {
            [b0, b1, ..] => {
                let k = bucket(b0, b1);
                (
                    self.buckets[k].max(1) as usize - 1,
                    self.buckets[k + 1].max(1) as usize,
                )
            }
            _ => (0, self.sa.len()),
        };
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if old[self.sa[mid] as usize..] < *needle {
                lo = mid;
            } else {
                hi = mid;
            }
        }

        // The best match borders the insertion point: check `lo` and `hi`.
        let lcp = |offset: usize| -> usize {
            old[offset..]
                .iter()
                .zip(needle.iter())
                .take_while(|(a, b)| a == b)
                .count()
        };
        let cand_lo = (lcp(self.sa[lo] as usize), self.sa[lo] as usize);
        let cand_hi = if hi < self.sa.len() {
            (lcp(self.sa[hi] as usize), self.sa[hi] as usize)
        } else {
            (0, 0)
        };
        if cand_lo.0 >= cand_hi.0 {
            cand_lo
        } else {
            cand_hi
        }
    }
}

/// The number of each byte value in `data`, read off its two-byte index
/// `buckets`: byte `b`'s suffixes start after the suffixes counted below
/// its first bucket, less the one-byte suffix when `data` ends with `b`.
fn byte_counts(buckets: &[u32], data: &[u8]) -> [u32; 256] {
    let last = data.last().map(|&b| usize::from(b));
    let start = |b: usize| match b {
        256 => data.len() as u32,
        _ => buckets[b << 8] - u32::from(last == Some(b)),
    };
    core::array::from_fn(|b| start(b + 1) - start(b))
}

/// The bucket of strings starting with the bytes `b0, b1`.
fn bucket(b0: u8, b1: u8) -> usize {
    usize::from(u16::from_be_bytes([b0, b1]))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The suffix array by plain sorting: the oracle SA-IS is checked
    /// against.
    pub(crate) fn naive_sa(data: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..data.len() as u32).collect();
        sa.sort_by(|&a, &b| data[a as usize..].cmp(&data[b as usize..]));
        sa
    }

    /// The binary search over the whole array that the bucketed search
    /// replaced: the oracle [`SuffixArray::longest_match`] is checked
    /// against.
    fn full_range_longest_match(sa: &[u32], old: &[u8], needle: &[u8]) -> (usize, usize) {
        if sa.is_empty() || needle.is_empty() {
            return (0, 0);
        }

        let mut lo = 0usize;
        let mut hi = sa.len();
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if old[sa[mid] as usize..] < *needle {
                lo = mid;
            } else {
                hi = mid;
            }
        }

        let lcp = |offset: usize| -> usize {
            old[offset..]
                .iter()
                .zip(needle.iter())
                .take_while(|(a, b)| a == b)
                .count()
        };
        let cand_lo = (lcp(sa[lo] as usize), sa[lo] as usize);
        let cand_hi = if hi < sa.len() {
            (lcp(sa[hi] as usize), sa[hi] as usize)
        } else {
            (0, 0)
        };
        if cand_lo.0 >= cand_hi.0 {
            cand_lo
        } else {
            cand_hi
        }
    }

    #[test]
    fn matches_naive_construction() {
        for data in [
            b"banana".to_vec(),
            b"mississippi".to_vec(),
            b"aaaaaaaa".to_vec(),
            b"abcdefgh".to_vec(),
            (0..=255u8).collect::<Vec<u8>>(),
            b"abababababab".to_vec(),
        ] {
            let sa = SuffixArray::build(&data);
            assert_eq!(sa.sa, naive_sa(&data), "input {data:?}");
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom() {
        let mut state = 99u32;
        let data: Vec<u8> = (0..2000)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 28) as u8 // small alphabet → many repeats
            })
            .collect();
        let sa = SuffixArray::build(&data);
        assert_eq!(sa.sa, naive_sa(&data));
    }

    #[test]
    fn constructions_agree_on_pseudorandom_inputs() {
        let mut state = 0x5EED_u32;
        for len in [1usize, 2, 17, 256, 3000, 10_000] {
            let data: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 26) as u8
                })
                .collect();
            assert_eq!(SuffixArray::build(&data).sa, naive_sa(&data), "len {len}");
        }
    }

    #[test]
    fn empty_input() {
        let sa = SuffixArray::build(b"");
        assert!(sa.is_empty());
        assert_eq!(sa.longest_match(b"", b"abc"), (0, 0));
    }

    #[test]
    fn longest_match_finds_substring() {
        let old = b"the quick brown fox jumps over the lazy dog";
        let sa = SuffixArray::build(old);
        let (len, pos) = sa.longest_match(old, b"brown fox leaps");
        assert_eq!(&old[pos..pos + len], b"brown fox ");
        assert_eq!(len, 10);
    }

    #[test]
    fn longest_match_full_needle() {
        let old = b"abcdefghij";
        let sa = SuffixArray::build(old);
        let (len, pos) = sa.longest_match(old, b"cdefg");
        assert_eq!((len, pos), (5, 2));
    }

    #[test]
    fn longest_match_no_match() {
        let old = b"aaaa";
        let sa = SuffixArray::build(old);
        let (len, _) = sa.longest_match(old, b"zzz");
        assert_eq!(len, 0);
    }

    #[test]
    fn longest_match_prefers_longest() {
        let old = b"xx_abc_yy_abcdef_zz";
        let sa = SuffixArray::build(old);
        let (len, pos) = sa.longest_match(old, b"abcdefgh");
        assert_eq!(len, 6);
        assert_eq!(&old[pos..pos + len], b"abcdef");
    }

    #[test]
    fn longest_match_empty_needle() {
        let old = b"abc";
        let sa = SuffixArray::build(old);
        assert_eq!(sa.longest_match(old, b""), (0, 0));
    }

    #[test]
    fn longest_match_agrees_with_naive_scan() {
        let mut state = 7u32;
        let old: Vec<u8> = (0..500)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 29) as u8
            })
            .collect();
        let sa = SuffixArray::build(&old);
        for start in (0..400).step_by(37) {
            let needle = &old[start..(start + 60).min(old.len())];
            let (len, pos) = sa.longest_match(&old, needle);
            // Naive: longest prefix of needle at any position.
            let mut best = 0;
            for p in 0..old.len() {
                let l = old[p..]
                    .iter()
                    .zip(needle.iter())
                    .take_while(|(a, b)| a == b)
                    .count();
                best = best.max(l);
            }
            assert_eq!(len, best, "start {start}");
            assert_eq!(&old[pos..pos + len], &needle[..len]);
        }
    }

    /// The two-byte index as counted before SA-IS took its byte counts
    /// from it, one `windows(2)` pass: the oracle of [`SuffixArray::build`]'s
    /// index.
    fn windows_index(data: &[u8]) -> Vec<u32> {
        let mut buckets = vec![0u32; BUCKETS + 1];
        for pair in data.windows(2) {
            buckets[bucket(pair[0], pair[1]) + 1] += 1;
        }
        if let Some(&last) = data.last() {
            buckets[bucket(last, 0)] += 1;
        }
        let mut below = 0;
        for count in &mut buckets {
            below += *count;
            *count = below;
        }
        buckets
    }

    /// `build`'s index equals the `windows(2)` count, and the byte counts
    /// read off it equal a plain count.
    fn check_index(data: &[u8]) {
        let sa = SuffixArray::build(data);
        assert_eq!(sa.buckets, windows_index(data), "input {data:?}");
        let mut counts = [0u32; 256];
        for &byte in data {
            counts[usize::from(byte)] += 1;
        }
        assert_eq!(byte_counts(&sa.buckets, data), counts, "input {data:?}");
    }

    #[test]
    fn index_equals_the_windows_count_on_short_inputs() {
        // Every text of 0–3 bytes over the two ends of the byte range and
        // three bytes between, so every length ends on 0x00 and on 0xFF.
        let bytes = [0x00, 0x01, 0x7F, 0xFE, 0xFF];
        let mut texts = vec![Vec::new()];
        for len in 1..=3 {
            let shorter: Vec<Vec<u8>> = texts
                .iter()
                .filter(|t| t.len() == len - 1)
                .cloned()
                .collect();
            for text in shorter {
                for byte in bytes {
                    texts.push([text.as_slice(), &[byte]].concat());
                }
            }
        }
        assert_eq!(texts.len(), 1 + 5 + 25 + 125);
        for text in &texts {
            check_index(text);
        }
    }

    /// An old image and a needle source over one alphabet: two symbols,
    /// four, or every byte; the old image is often 0, 1 or 2 bytes long.
    fn images() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
        (
            prop_oneof![Just(2u8), Just(4), Just(0)],
            prop_oneof![0usize..=2, 0usize..2048],
            proptest::collection::vec(any::<u8>(), 0..2048),
            proptest::collection::vec(any::<u8>(), 0..512),
        )
            .prop_map(|(alphabet, old_len, old, new)| {
                let reduce = |&b: &u8| if alphabet == 0 { b } else { b % alphabet };
                (
                    old.iter().take(old_len).map(reduce).collect(),
                    new.iter().map(reduce).collect(),
                )
            })
    }

    use proptest::prelude::*;

    proptest! {
        /// The index of images over 2, 4 and 256 symbols, often 0–2 bytes
        /// long, equals the `windows(2)` count.
        #[test]
        fn index_equals_the_windows_count(images in images()) {
            check_index(&images.0);
        }

        /// The bucketed search returns the full-range search's
        /// `(length, offset)` for every suffix of the needle source,
        /// every needle cut from the old image, every one-byte needle and
        /// needles that start with the old image's last byte (whose
        /// one-byte suffix sorts ahead of its own bucket).
        #[test]
        fn bucketed_search_equals_the_full_range_search(
            images in images(),
            cut in 2usize..48,
        ) {
            let (old, new) = images;
            let sa = SuffixArray::build(&old);
            let mut needles: Vec<Vec<u8>> = (0..new.len()).map(|s| new[s..].to_vec()).collect();
            for start in 0..old.len() {
                needles.push(old[start..(start + cut).min(old.len())].to_vec());
                needles.push(vec![old[start]]);
            }
            if let Some(&last) = old.last() {
                needles.push(vec![last]);
                for start in 0..new.len().min(cut) {
                    needles.push([&[last], &new[start..]].concat());
                }
                for start in 0..old.len() {
                    needles.push([&[last], &old[start..(start + cut).min(old.len())]].concat());
                }
            }
            for needle in &needles {
                prop_assert_eq!(
                    sa.longest_match(&old, needle),
                    full_range_longest_match(&sa.sa, &old, needle),
                    "needle {:?}",
                    needle
                );
            }
        }
    }
}
