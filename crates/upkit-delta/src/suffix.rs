//! Suffix-array construction and longest-match search.
//!
//! `bsdiff` finds, for every position of the new firmware, the longest
//! match anywhere in the old firmware. The classic implementation does this
//! with a suffix array over the old image. Construction uses the
//! linear-time SA-IS algorithm ([`crate::sais`]); the Manber–Myers
//! prefix-doubling construction (`O(n log² n)`) is kept as the reference
//! SA-IS is checked against in tests and the baseline column of the
//! generation bench.

/// A suffix array over a byte string.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuffixArray {
    /// `sa[i]` = start offset of the i-th smallest suffix.
    sa: Vec<u32>,
}

impl SuffixArray {
    /// Builds the suffix array of `data` with the default construction,
    /// SA-IS.
    #[must_use]
    pub fn build(data: &[u8]) -> Self {
        Self::build_sais(data)
    }

    /// Builds the suffix array with the linear-time SA-IS construction.
    #[must_use]
    pub fn build_sais(data: &[u8]) -> Self {
        Self {
            sa: crate::sais::suffix_array(data),
        }
    }

    /// Builds the suffix array with Manber–Myers prefix doubling
    /// (`O(n log² n)`), the reference construction.
    ///
    /// Each round sorts by a precomputed per-suffix key packing
    /// `(rank[i], rank[i + k] + 1)` into one `u64` — recomputing the pair
    /// inside the sort comparator would evaluate it `O(n log n)` times per
    /// round — and the loop exits as soon as every rank is distinct.
    #[must_use]
    pub fn build_prefix_doubling(data: &[u8]) -> Self {
        let n = data.len();
        if n == 0 {
            return Self { sa: Vec::new() };
        }

        let mut sa: Vec<u32> = (0..n as u32).collect();
        let mut rank: Vec<u32> = data.iter().map(|&b| u32::from(b)).collect();
        let mut tmp = vec![0u32; n];
        let mut keys = vec![0u64; n];

        let mut k = 1usize;
        while k < n {
            for i in 0..n {
                let second = if i + k < n {
                    u64::from(rank[i + k]) + 1
                } else {
                    0
                };
                keys[i] = (u64::from(rank[i]) << 32) | second;
            }
            sa.sort_unstable_by_key(|&i| keys[i as usize]);

            tmp[sa[0] as usize] = 0;
            for w in 1..n {
                let prev = sa[w - 1] as usize;
                let cur = sa[w] as usize;
                tmp[cur] = tmp[prev] + u32::from(keys[prev] != keys[cur]);
            }
            core::mem::swap(&mut rank, &mut tmp);
            if rank[sa[n - 1] as usize] as usize == n - 1 {
                break;
            }
            k *= 2;
        }

        Self { sa }
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
    #[must_use]
    pub fn longest_match(&self, old: &[u8], needle: &[u8]) -> (usize, usize) {
        if self.sa.is_empty() || needle.is_empty() {
            return (0, 0);
        }

        // Binary search for the suffix with the longest common prefix.
        let mut lo = 0usize;
        let mut hi = self.sa.len();
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

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_sa(data: &[u8]) -> Vec<u32> {
        let mut sa: Vec<u32> = (0..data.len() as u32).collect();
        sa.sort_by(|&a, &b| data[a as usize..].cmp(&data[b as usize..]));
        sa
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
            assert_eq!(sa.sa, naive_sa(&data), "default, input {data:?}");
            let sais = SuffixArray::build_sais(&data);
            assert_eq!(sais.sa, naive_sa(&data), "SA-IS, input {data:?}");
            let doubling = SuffixArray::build_prefix_doubling(&data);
            assert_eq!(doubling.sa, naive_sa(&data), "doubling, input {data:?}");
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
            assert_eq!(
                SuffixArray::build_sais(&data).sa,
                SuffixArray::build_prefix_doubling(&data).sa,
                "len {len}"
            );
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
}
