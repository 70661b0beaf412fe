//! Linear-time suffix-array construction (SA-IS).
//!
//! Implements the induced-sorting algorithm of Nong, Zhang and Chan
//! ("Two Efficient Algorithms for Linear Time Suffix Array Construction",
//! IEEE ToC 2011). Suffixes are classified as L- or S-type, the *leftmost
//! S-type* (LMS) suffixes are sorted — recursively, on a reduced string,
//! when their substrings are not pairwise distinct — and the rest of the
//! order is induced from them in two linear bucket scans. Overall `O(n)`
//! time and `O(n)` extra space, against `O(n log² n)` for the
//! prefix-doubling construction it replaced. The tests check it against
//! a plain sort of the suffixes.

/// Marker for an unfilled suffix-array slot during induction.
const EMPTY: u32 = u32::MAX;

/// Computes the suffix array of `data` in linear time.
///
/// Returns the start offsets of all suffixes of `data` in increasing
/// lexicographic order (no sentinel suffix is included).
#[must_use]
pub fn suffix_array(data: &[u8]) -> Vec<u32> {
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
}
