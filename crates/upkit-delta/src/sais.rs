//! Linear-time suffix-array construction (SA-IS).
//!
//! Implements the induced-sorting algorithm of Nong, Zhang and Chan
//! ("Two Efficient Algorithms for Linear Time Suffix Array Construction",
//! IEEE ToC 2011). Suffixes are classified as L- or S-type, the *leftmost
//! S-type* (LMS) suffixes are sorted — recursively, on a reduced string,
//! when their substrings are not pairwise distinct — and the rest of the
//! order is induced from them in two linear bucket scans: `O(n)` time.
//! The tests check it against a plain sort of the suffixes.
//!
//! # Layout
//!
//! The top level sorts the byte text itself. The sentinel SA-IS needs
//! after the text is virtual: it sorts below everything, so the first
//! left-to-right scan starts by inducing the last suffix, and nothing
//! ever reads it. The one allocation of size `n` is the output, `n + 1`
//! `u32`s: `sa[..n]` is the answer (truncated, never copied) and `sa[n]`
//! is a spare slot. Between the two inductions the array holds everything
//! else:
//!
//! * the sorted LMS substrings are compacted into `sa[..m]` (there are
//!   `m ≤ n / 2` of them);
//! * LMS position `p` keeps its substring's length, then its name, at
//!   `sa[m + p / 2]`: two LMS positions are at least two apart, so the
//!   halves are distinct and fit in the free part;
//! * the names in text order, the reduced string, are moved to the end
//!   of the array, and the reduced problem is solved into `sa[..=m]` the
//!   same way, one level down.
//!
//! Besides the output, each level allocates its S-type and LMS bit
//! vectors (`n / 64` words each) and its bucket arrays, one entry per
//! symbol: 256 at the top, at most `m` one level down.
//!
//! # Branch-free induction
//!
//! Whether a scanned slot induces a suffix depends on the type of its
//! predecessor, which is as good as random on real data. So each step
//! computes the target slot as a select, the bucket pointer when the
//! predecessor is of the scan's type and the spare slot `sa[n]`
//! otherwise, and always writes: a skipped step lands in a slot nothing
//! reads. An empty slot is `0`, the same as suffix 0, which has no
//! predecessor either, so both are skipped by the same select.
//!
//! Positions are `u32`s, so inputs must be shorter than 4 GiB.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

/// A text symbol: a byte at the top level, a substring name below it.
trait Symbol: Copy + Ord {
    /// The symbol's bucket.
    fn bucket(self) -> usize;
}

impl Symbol for u8 {
    fn bucket(self) -> usize {
        usize::from(self)
    }
}

impl Symbol for u32 {
    fn bucket(self) -> usize {
        self as usize
    }
}

/// Computes the suffix array of `data` in linear time.
///
/// Returns the start offsets of all suffixes of `data` in increasing
/// lexicographic order (no sentinel suffix is included).
#[must_use]
pub fn suffix_array(data: &[u8]) -> Vec<u32> {
    let mut counts = [0u32; 256];
    for &byte in data {
        counts[usize::from(byte)] += 1;
    }
    suffix_array_counted(data, &counts)
}

/// [`suffix_array`] with the byte counts already taken: `counts[b]` is
/// the number of bytes `b` in `data`.
pub(crate) fn suffix_array_counted(data: &[u8], counts: &[u32; 256]) -> Vec<u32> {
    let mut sa = vec![0u32; data.len() + 1];
    sais(data, &mut sa, counts);
    sa.truncate(data.len());
    sa
}

/// SA-IS proper: fills `sa[..n]` with the suffix array of `text` followed
/// by a virtual sentinel, using `sa[n]` as the spare slot, where
/// `n = text.len()` and `sa.len() == n + 1`. `counts[c]` is the number of
/// symbols `c` in `text`.
fn sais<T: Symbol>(text: &[T], sa: &mut [u32], counts: &[u32]) {
    let n = text.len();
    if n <= 1 {
        sa.fill(0);
        return;
    }
    let types = Types::classify(text);
    let mut bucket = vec![0u32; counts.len()];

    // Pass 1: drop the LMS suffixes into their bucket tails in text order
    // (any order works here) and induce. Afterwards the LMS *substrings*
    // appear in `sa` in sorted order.
    sa.fill(0);
    tails(counts, &mut bucket);
    for p in types.lms_positions() {
        let c = text[p].bucket();
        bucket[c] -= 1;
        sa[bucket[c] as usize] = p as u32;
    }
    induce(text, sa, &types, counts, &mut bucket);

    // Compact the sorted LMS substrings into `sa[..m]`; suffix 0 is
    // never LMS, so an empty slot is never kept.
    let mut m = 0;
    for i in 0..n {
        let p = sa[i];
        sa[m] = p;
        m += usize::from(types.is_lms(p as usize));
    }

    // Sort the LMS suffixes themselves into `sa[..m]`, as ranks in text
    // order: directly if every substring is distinct, otherwise by
    // recursing on the reduced string of names.
    let names = name_substrings(text, sa, m, &types);
    let (ranks, reduced) = sa.split_at_mut(n + 1 - m);
    if names == m {
        for (t, &name) in reduced.iter().enumerate() {
            ranks[name as usize] = t as u32;
        }
    } else {
        let mut reduced_counts = vec![0u32; names];
        for &name in reduced.iter() {
            reduced_counts[name as usize] += 1;
        }
        sais(reduced, &mut ranks[..=m], &reduced_counts);
    }
    // Ranks to positions: the LMS positions in text order replace the
    // reduced string.
    for (slot, p) in reduced.iter_mut().zip(types.lms_positions()) {
        *slot = p as u32;
    }
    for rank in &mut ranks[..m] {
        *rank = reduced[*rank as usize];
    }

    // Pass 2: move the sorted LMS suffixes to their bucket tails, largest
    // first (each lands at or after its own slot), and induce the final
    // order from them.
    sa[m..].fill(0);
    tails(counts, &mut bucket);
    for i in (0..m).rev() {
        let p = sa[i] as usize;
        sa[i] = 0;
        let c = text[p].bucket();
        bucket[c] -= 1;
        sa[bucket[c] as usize] = p as u32;
    }
    induce(text, sa, &types, counts, &mut bucket);
}

/// Names the LMS substrings, sorted in `sa[..m]`, by rank (equal
/// substrings share a name) and leaves the names in text order, the
/// reduced string, in the last `m` slots of `sa`. Returns the number of
/// distinct names.
fn name_substrings<T: Symbol>(text: &[T], sa: &mut [u32], m: usize, types: &Types) -> usize {
    let n = text.len();
    let (sorted, free) = sa.split_at_mut(m);

    // Each substring's length, its closing LMS symbol included. The last
    // one is closed by the virtual sentinel, which the length counts too.
    let mut positions = types.lms_positions();
    if let Some(mut p) = positions.next() {
        for q in positions {
            free[p / 2] = (q + 1 - p) as u32;
            p = q;
        }
        free[p / 2] = (n + 1 - p) as u32;
    }

    // Sorted order puts equal substrings next to each other. Two of the
    // same length are equal when their symbols are (the types follow
    // from the symbols back from the closing S-type), unless one runs to
    // the end of the text: the sentinel closes no other substring.
    let mut names = 0u32;
    let (mut prev, mut prev_len) = (0, 0);
    for &p in sorted.iter() {
        let p = p as usize;
        let len = free[p / 2] as usize;
        let same = len == prev_len
            && p + len <= n
            && prev + len <= n
            && text[p..p + len] == text[prev..prev + len];
        names += u32::from(!same);
        free[p / 2] = names - 1;
        (prev, prev_len) = (p, len);
    }

    // Moving the names to the end right to left never overwrites a name
    // not yet moved.
    let mut end = free.len();
    for p in types.lms_positions().rev() {
        end -= 1;
        free[end] = free[p / 2];
    }
    names as usize
}

/// One induction round over a seeded `sa`: L-type suffixes left to right
/// from the bucket heads, after the last suffix, which the virtual
/// sentinel induces; then S-type suffixes right to left from the bucket
/// tails. Every step writes: to its bucket when the predecessor of the
/// scanned suffix has the scan's type, to the spare slot `sa[n]`
/// otherwise.
fn induce<T: Symbol>(
    text: &[T],
    sa: &mut [u32],
    types: &Types,
    counts: &[u32],
    bucket: &mut [u32],
) {
    let n = text.len();
    heads(counts, bucket);
    let c = text[n - 1].bucket();
    sa[bucket[c] as usize] = (n - 1) as u32;
    bucket[c] += 1;
    for i in 0..n {
        let j = sa[i] as usize;
        let k = j.saturating_sub(1);
        let induced = (j != 0) & !types.is_s(k);
        let c = text[k].bucket();
        let slot = if induced { bucket[c] as usize } else { n };
        sa[slot] = k as u32;
        bucket[c] += u32::from(induced);
    }

    tails(counts, bucket);
    for i in (0..n).rev() {
        let j = sa[i] as usize;
        let k = j.saturating_sub(1);
        let induced = (j != 0) & types.is_s(k);
        let c = text[k].bucket();
        bucket[c] -= u32::from(induced);
        let slot = if induced { bucket[c] as usize } else { n };
        sa[slot] = k as u32;
    }
}

/// Sets `bucket[c]` to the first slot of symbol `c`'s bucket.
fn heads(counts: &[u32], bucket: &mut [u32]) {
    let mut sum = 0;
    for (head, &count) in bucket.iter_mut().zip(counts) {
        *head = sum;
        sum += count;
    }
}

/// Sets `bucket[c]` to one past the last slot of symbol `c`'s bucket.
fn tails(counts: &[u32], bucket: &mut [u32]) {
    let mut sum = 0;
    for (tail, &count) in bucket.iter_mut().zip(counts) {
        sum += count;
        *tail = sum;
    }
}

/// Suffix types as bit vectors: bit `i % 64` of word `i / 64` is
/// position `i`.
struct Types {
    /// Suffix `i` is S-type: smaller than suffix `i + 1`.
    s: Vec<u64>,
    /// Suffix `i` is LMS: S-type after an L-type.
    lms: Vec<u64>,
}

impl Types {
    /// Classifies every suffix of `text` (at least two symbols long),
    /// right to left.
    fn classify<T: Symbol>(text: &[T]) -> Self {
        let n = text.len();
        let mut s = vec![0u64; n.div_ceil(64)];
        // The last suffix is L-type: the virtual sentinel after it is
        // smaller.
        let mut next_s = false;
        for (w, word) in s.iter_mut().enumerate().rev() {
            let first = w * 64;
            for i in (first..(first + 64).min(n - 1)).rev() {
                let (c, next) = (text[i], text[i + 1]);
                next_s = (c < next) | ((c == next) & next_s);
                *word |= u64::from(next_s) << (i - first);
            }
        }
        // Position `i` is LMS when it is S and `i - 1` is L; bit 0 of each
        // word takes `i - 1` from the top of the word before. Position 0
        // has no predecessor and is never LMS.
        let mut carry = 1;
        let lms = s
            .iter()
            .map(|&word| {
                let lms = word & !(word << 1 | carry);
                carry = word >> 63;
                lms
            })
            .collect();
        Self { s, lms }
    }

    fn is_s(&self, i: usize) -> bool {
        self.s[i / 64] >> (i % 64) & 1 != 0
    }

    fn is_lms(&self, i: usize) -> bool {
        self.lms[i / 64] >> (i % 64) & 1 != 0
    }

    /// The LMS positions in increasing order (and, reversed, decreasing).
    fn lms_positions(&self) -> impl DoubleEndedIterator<Item = usize> + '_ {
        self.lms
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| Bits(word).map(move |bit| w * 64 + bit))
    }
}

/// The set bits of a word, lowest first, or highest first when reversed.
struct Bits(u64);

impl Iterator for Bits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let bit = self.0.trailing_zeros() as usize;
        (self.0 != 0).then(|| {
            self.0 &= self.0 - 1;
            bit
        })
    }
}

impl DoubleEndedIterator for Bits {
    fn next_back(&mut self) -> Option<usize> {
        let bit = 63usize.wrapping_sub(self.0.leading_zeros() as usize);
        (self.0 != 0).then(|| {
            self.0 ^= 1 << bit;
            bit
        })
    }
}

/// The construction [`suffix_array`] replaced, kept as its test oracle:
/// SA-IS over the bytes widened to `u32`s after a real sentinel, with a
/// `bool` per type, a separate array of names and the sentinel's slot cut
/// off at the end.
#[cfg(test)]
mod oracle {
    /// Marker for an unfilled suffix-array slot during induction.
    const EMPTY: u32 = u32::MAX;

    /// The suffix array of `data`.
    pub(super) fn suffix_array(data: &[u8]) -> Vec<u32> {
        match data.len() {
            0 => Vec::new(),
            1 => vec![0],
            _ => {
                // Shift the alphabet up by one so 0 is free for the unique,
                // smallest sentinel SA-IS requires at the end of the text.
                let mut text: Vec<u32> = Vec::with_capacity(data.len() + 1);
                text.extend(data.iter().map(|&b| u32::from(b) + 1));
                text.push(0);
                let sa = sais(&text, 257);
                // sa[0] is the sentinel suffix; the rest is the answer.
                sa[1..].to_vec()
            }
        }
    }

    /// SA-IS proper. `text` must end with a unique smallest symbol (the
    /// sentinel) and all symbols must be `< alphabet`.
    fn sais(text: &[u32], alphabet: usize) -> Vec<u32> {
        let n = text.len();
        if n == 1 {
            return vec![0];
        }
        if n == 2 {
            return vec![1, 0];
        }

        // L/S classification, right to left. `is_s[i]` ⇔ suffix i is S-type:
        // smaller than the suffix starting one position to its right.
        let mut is_s = vec![false; n];
        is_s[n - 1] = true;
        for i in (0..n - 1).rev() {
            is_s[i] = text[i] < text[i + 1] || (text[i] == text[i + 1] && is_s[i + 1]);
        }
        let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

        let mut bucket_sizes = vec![0u32; alphabet];
        for &c in text {
            bucket_sizes[c as usize] += 1;
        }

        // Pass 1: drop the LMS suffixes into their bucket tails in text order
        // (any order works here) and induce. Afterwards the LMS *substrings*
        // appear in `sa` in sorted order.
        let lms_positions: Vec<u32> = (1..n).filter(|&i| is_lms(i)).map(|i| i as u32).collect();
        let mut sa = vec![EMPTY; n];
        induce(text, &mut sa, &is_s, &bucket_sizes, &lms_positions);

        // Name each LMS substring by its rank among the sorted substrings;
        // equal substrings share a name.
        let mut names = vec![EMPTY; n];
        let mut name = 0u32;
        let mut prev: Option<usize> = None;
        for &entry in sa.iter() {
            let p = entry as usize;
            if !is_lms(p) {
                continue;
            }
            if let Some(q) = prev {
                if !lms_substrings_equal(text, &is_s, p, q) {
                    name += 1;
                }
            }
            names[p] = name;
            prev = Some(p);
        }
        let distinct = name as usize + 1;

        // Sort the LMS suffixes themselves: directly if every substring is
        // distinct, otherwise by recursing on the reduced string of names.
        let lms_sorted: Vec<u32> = if distinct == lms_positions.len() {
            let mut order = vec![0u32; lms_positions.len()];
            for &p in &lms_positions {
                order[names[p as usize] as usize] = p;
            }
            order
        } else {
            let reduced: Vec<u32> = lms_positions.iter().map(|&p| names[p as usize]).collect();
            let reduced_sa = sais(&reduced, distinct);
            reduced_sa
                .iter()
                .map(|&r| lms_positions[r as usize])
                .collect()
        };

        // Pass 2: induce the final order from the fully sorted LMS suffixes.
        induce(text, &mut sa, &is_s, &bucket_sizes, &lms_sorted);
        sa
    }

    /// One induction round: seeds `sa` with the given LMS suffixes at their
    /// bucket tails, then induces L-type suffixes left-to-right from bucket
    /// heads and S-type suffixes right-to-left from bucket tails.
    fn induce(text: &[u32], sa: &mut [u32], is_s: &[bool], bucket_sizes: &[u32], lms: &[u32]) {
        let n = text.len();
        sa.fill(EMPTY);

        let mut tails = bucket_tails(bucket_sizes);
        for &p in lms.iter().rev() {
            let c = text[p as usize] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = p;
        }

        let mut heads = bucket_heads(bucket_sizes);
        for i in 0..n {
            let j = sa[i];
            if j == EMPTY || j == 0 {
                continue;
            }
            let k = j as usize - 1;
            if !is_s[k] {
                let c = text[k] as usize;
                sa[heads[c] as usize] = k as u32;
                heads[c] += 1;
            }
        }

        let mut tails = bucket_tails(bucket_sizes);
        for i in (0..n).rev() {
            let j = sa[i];
            if j == EMPTY || j == 0 {
                continue;
            }
            let k = j as usize - 1;
            if is_s[k] {
                let c = text[k] as usize;
                tails[c] -= 1;
                sa[tails[c] as usize] = k as u32;
            }
        }
    }

    /// First slot of each symbol's bucket.
    fn bucket_heads(bucket_sizes: &[u32]) -> Vec<u32> {
        let mut heads = Vec::with_capacity(bucket_sizes.len());
        let mut sum = 0u32;
        for &size in bucket_sizes {
            heads.push(sum);
            sum += size;
        }
        heads
    }

    /// One past the last slot of each symbol's bucket.
    fn bucket_tails(bucket_sizes: &[u32]) -> Vec<u32> {
        let mut tails = Vec::with_capacity(bucket_sizes.len());
        let mut sum = 0u32;
        for &size in bucket_sizes {
            sum += size;
            tails.push(sum);
        }
        tails
    }

    /// Compares the LMS substrings starting at `a` and `b` (from each LMS
    /// position up to and including the next LMS position).
    fn lms_substrings_equal(text: &[u32], is_s: &[bool], a: usize, b: usize) -> bool {
        let n = text.len();
        // The sentinel's substring is the single sentinel symbol; nothing
        // else starts with it.
        if a == n - 1 || b == n - 1 {
            return a == b;
        }
        let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];
        let mut i = 0usize;
        loop {
            if text[a + i] != text[b + i] {
                return false;
            }
            if i > 0 {
                let end_a = is_lms(a + i);
                let end_b = is_lms(b + i);
                if end_a || end_b {
                    return end_a && end_b;
                }
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suffix::tests::naive_sa;

    #[test]
    fn matches_naive_on_classic_inputs() {
        for data in [
            b"".to_vec(),
            b"a".to_vec(),
            b"ab".to_vec(),
            b"ba".to_vec(),
            b"aa".to_vec(),
            b"banana".to_vec(),
            b"mississippi".to_vec(),
            b"aaaaaaaa".to_vec(),
            b"abcdefgh".to_vec(),
            b"abababababab".to_vec(),
            b"cabbage".to_vec(),
            (0..=255u8).collect::<Vec<u8>>(),
            (0..=255u8).rev().collect::<Vec<u8>>(),
        ] {
            assert_eq!(suffix_array(&data), naive_sa(&data), "input {data:?}");
        }
    }

    #[test]
    fn matches_naive_on_small_alphabets() {
        // Small alphabets force deep recursion (many equal LMS substrings).
        let mut state = 42u32;
        for len in [10usize, 100, 1000, 4000] {
            for bits in [1u32, 2, 3] {
                let data: Vec<u8> = (0..len)
                    .map(|_| {
                        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                        ((state >> 27) & ((1 << bits) - 1)) as u8
                    })
                    .collect();
                assert_eq!(
                    suffix_array(&data),
                    naive_sa(&data),
                    "len {len} bits {bits}"
                );
            }
        }
    }

    #[test]
    fn matches_naive_on_pseudorandom_bytes() {
        let mut state = 7u32;
        let data: Vec<u8> = (0..5000)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            })
            .collect();
        assert_eq!(suffix_array(&data), naive_sa(&data));
    }

    #[test]
    fn handles_runs_and_periodicity() {
        let mut data = vec![0u8; 500];
        data.extend(core::iter::repeat_n(7u8, 500));
        data.extend(b"abc".repeat(200));
        assert_eq!(suffix_array(&data), naive_sa(&data));
    }

    /// A text of `len` symbols below `alphabet` drawn from `seed`: uniform
    /// (`shape` 0), in runs of up to 300 (`shape` 1), or a period of up
    /// to 32 symbols repeated with one symbol in about 500 changed
    /// (`shape` 2).
    fn text(alphabet: u16, len: usize, shape: u8, seed: u64) -> Vec<u8> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let symbol = move |bits: u64| (bits % u64::from(alphabet)) as u8;
        let mut data = Vec::with_capacity(len);
        match shape {
            0 => data.extend((0..len).map(|_| symbol(next()))),
            1 => {
                while data.len() < len {
                    let run = (next() % 300) as usize + 1;
                    let byte = symbol(next());
                    data.extend(core::iter::repeat_n(byte, run.min(len - data.len())));
                }
            }
            _ => {
                let period: Vec<u8> = (0..next() % 32 + 1).map(|_| symbol(next())).collect();
                data.extend(period.iter().cycle().take(len));
                for _ in 0..len / 500 {
                    let at = (next() % len as u64) as usize;
                    data[at] = symbol(next());
                }
            }
        }
        data
    }

    use proptest::prelude::*;

    proptest! {
        /// The construction equals the one it replaced on texts of 0–4,096
        /// symbols over 1, 2, 4 and 256 symbols: uniform, in long runs and
        /// periodic.
        #[test]
        fn construction_equals_the_widened_sais_oracle(
            alphabet in prop_oneof![Just(1u16), Just(2), Just(4), Just(256)],
            len in 0usize..=4096,
            shape in 0u8..3,
            seed in any::<u64>(),
        ) {
            let data = text(alphabet, len, shape, seed);
            prop_assert_eq!(suffix_array(&data), oracle::suffix_array(&data));
        }
    }

    /// Repetitive texts at the rollout (20 kB) and server (128 KiB) image
    /// sizes, where the reduced strings recurse several levels deep.
    #[test]
    fn construction_equals_the_oracle_on_repetitive_images() {
        for len in [20_000, 128 * 1024] {
            let mut records: Vec<u8> = (0..len).map(|i| (i % 64) as u8).collect();
            for i in (0..len).step_by(997) {
                records[i] ^= 0x5A;
            }
            for data in [
                vec![0u8; len],
                b"abaabaaab".repeat(len / 9),
                records,
                text(2, len, 2, 3),
                text(4, len, 1, 5),
                text(256, len, 2, 7),
            ] {
                assert_eq!(
                    suffix_array(&data),
                    oracle::suffix_array(&data),
                    "len {}",
                    data.len()
                );
            }
        }
    }
}
