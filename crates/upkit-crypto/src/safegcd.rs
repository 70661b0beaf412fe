//! Modular inversion by Bernstein–Yang divsteps ("Fast constant-time gcd
//! computation and modular inversion", TCHES 2019).
//!
//! A *divstep* maps `(δ, f, g)` with odd `f` to `(1 − δ, g, (g − f)/2)`
//! when `δ > 0` and `g` is odd, and to `(1 + δ, f, (g + (g mod 2)·f)/2)`
//! otherwise. Started from `(½, m, x)` it drives `g` to 0 and leaves
//! `f = ±gcd(m, x) = ±1`. The same steps, applied modulo `m` to
//! `(d, e) = (0, 1)`, leave `±x⁻¹` in `d`.
//!
//! The shape follows libsecp256k1's `modinv64`. Values are 5 signed
//! 62-bit limbs. Each batch runs 59 divsteps on the low 64 bits of `f` and
//! `g` alone and records them in a 2×2 transition matrix. That matrix then
//! updates the full `f`, `g` (which it makes divisible by 2^62) and `d`,
//! `e` (made divisible by adding multiples of `m`). Every input runs the
//! same 10 batches, 590 divsteps, which is the bound for 256-bit moduli,
//! and every choice inside a divstep is a mask, not a branch. The crate
//! still makes no side-channel claim (see its docs).
//!
//! Bit tricks that work modulo 2^64 by design use `wrapping_*`; the limb
//! sums use plain arithmetic, which the algorithm bounds, so debug builds
//! trap an overflow.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use crate::mont::FieldParams;
use crate::u256::U256;

/// A signed integer in 5 limbs of 62 bits, least significant first. The
/// low four limbs of a normalised value lie in `[0, 2^62)`, and the top
/// limb carries the sign.
type Signed62 = [i64; 5];

/// Divsteps per batch: the transition matrix of 59 steps, scaled by 2^62,
/// fits an `i64`.
const STEPS_PER_BATCH: usize = 59;

/// 10 × 59 = 590 divsteps, enough for any pair of 256-bit inputs.
const BATCHES: usize = 10;

const M62: u64 = u64::MAX >> 2;

/// The transition matrix `[[u, v], [q, r]]` of one batch, scaled by 2^62:
/// the batch maps `(f, g)` to `(u·f + v·g, q·f + r·g) / 2^62`.
#[derive(Clone, Copy)]
struct Matrix {
    u: i64,
    v: i64,
    q: i64,
    r: i64,
}

/// Splits a 256-bit value into signed-62 limbs (the top limb holds the
/// high 8 bits).
pub(crate) const fn to_s62(a: &U256) -> Signed62 {
    let [a0, a1, a2, a3] = a.0;
    [
        (a0 & M62) as i64,
        ((a0 >> 62 | a1 << 2) & M62) as i64,
        ((a1 >> 60 | a2 << 4) & M62) as i64,
        ((a2 >> 58 | a3 << 6) & M62) as i64,
        (a3 >> 56) as i64,
    ]
}

/// Joins normalised signed-62 limbs of a value in `[0, 2^256)` back into a
/// 256-bit value.
fn from_s62(a: &Signed62) -> U256 {
    let [a0, a1, a2, a3, a4] = a.map(|limb| limb as u64);
    U256([
        a0 | a1 << 62,
        a1 >> 2 | a2 << 60,
        a2 >> 4 | a3 << 58,
        a3 >> 6 | a4 << 56,
    ])
}

/// Runs 59 divsteps on the low 64 bits of `f` and `g`, with
/// `zeta = −(δ + ½)`, and returns the new `zeta` and the batch's matrix.
/// The matrix starts at 8·I, so it comes out scaled by 2^62 rather than
/// 2^59.
fn divsteps_59(mut zeta: i64, f0: u64, g0: u64) -> (i64, Matrix) {
    // The entries are signed values in [−2^62, 2^62] held modulo 2^64.
    let (mut u, mut v, mut q, mut r) = (8u64, 0u64, 0u64, 8u64);
    let (mut f, mut g) = (f0, g0);
    for _ in 0..STEPS_PER_BATCH {
        debug_assert_eq!(f & 1, 1, "f is odd at every divstep");
        // `swap_sign`: δ > 0. `g_odd`: g is odd.
        let swap_sign = (zeta >> 63) as u64;
        let g_odd = (g & 1).wrapping_neg();
        // Add f (negated when δ > 0) to g, and the f row to the g row,
        // when g is odd.
        g = g.wrapping_add(((f ^ swap_sign).wrapping_sub(swap_sign)) & g_odd);
        q = q.wrapping_add(((u ^ swap_sign).wrapping_sub(swap_sign)) & g_odd);
        r = r.wrapping_add(((v ^ swap_sign).wrapping_sub(swap_sign)) & g_odd);
        // When both held, g is now g − f: adding it back makes f the old g,
        // and δ becomes 1 − δ (zeta becomes −zeta − 2), else 1 + δ.
        let swap = swap_sign & g_odd;
        zeta = (zeta ^ swap as i64) - 1;
        f = f.wrapping_add(g & swap);
        u = u.wrapping_add(q & swap);
        v = v.wrapping_add(r & swap);
        // Halve g; doubling the f row instead keeps the matrix integral.
        g >>= 1;
        u <<= 1;
        v <<= 1;
        debug_assert!((-591..=591).contains(&zeta), "|zeta| ≤ 591");
    }
    let matrix = Matrix {
        u: u as i64,
        v: v as i64,
        q: q as i64,
        r: r as i64,
    };
    (zeta, matrix)
}

/// `a·x + b·y` in 128 bits.
fn dot(a: i64, x: i64, b: i64, y: i64) -> i128 {
    i128::from(a) * i128::from(x) + i128::from(b) * i128::from(y)
}

/// The low 62 bits of a limb sum, as a normalised limb.
fn low62(c: i128) -> i64 {
    (c as u64 & M62) as i64
}

/// Applies a batch's matrix to `d` and `e` modulo `m`: computes
/// `(t·[d, e] + m·[md, me]) / 2^62`, where `md` and `me` make the low 62
/// bits of the sum vanish. Keeps `d` and `e` in `(−2m, m)`.
#[allow(clippy::needless_range_loop)] // limb i of the inputs feeds limb i − 1 of the outputs
fn update_de<P: FieldParams>(d: &mut Signed62, e: &mut Signed62, t: &Matrix) {
    let Matrix { u, v, q, r } = *t;
    let m = &P::MODULUS_S62;
    // Start at [u, q] if d is negative plus [v, r] if e is, so the result
    // does not fall to −2m.
    let d_neg = d[4] >> 63;
    let e_neg = e[4] >> 63;
    let mut md = (u & d_neg) + (v & e_neg);
    let mut me = (q & d_neg) + (r & e_neg);
    let mut cd = dot(u, d[0], v, e[0]);
    let mut ce = dot(q, d[0], r, e[0]);
    // Lower each multiplier k by (m⁻¹·c + k) mod 2^62, so that c + m·k is
    // 0 mod 2^62. That is arithmetic modulo 2^64, so it wraps.
    let correction = |c: i128, k: i64| {
        (P::MODULUS_INV62
            .wrapping_mul(c as u64)
            .wrapping_add(k as u64)
            & M62) as i64
    };
    md -= correction(cd, md);
    me -= correction(ce, me);
    cd += i128::from(m[0]) * i128::from(md);
    ce += i128::from(m[0]) * i128::from(me);
    debug_assert_eq!(cd as u64 & M62, 0, "t·d + m·md ≡ 0 mod 2^62");
    debug_assert_eq!(ce as u64 & M62, 0, "t·e + m·me ≡ 0 mod 2^62");
    cd >>= 62;
    ce >>= 62;
    for i in 1..5 {
        cd += dot(u, d[i], v, e[i]) + i128::from(m[i]) * i128::from(md);
        ce += dot(q, d[i], r, e[i]) + i128::from(m[i]) * i128::from(me);
        d[i - 1] = low62(cd);
        e[i - 1] = low62(ce);
        cd >>= 62;
        ce >>= 62;
    }
    d[4] = cd as i64;
    e[4] = ce as i64;
}

/// Applies a batch's matrix to `f` and `g` and divides by 2^62, which the
/// divsteps make exact.
#[allow(clippy::needless_range_loop)] // limb i of the inputs feeds limb i − 1 of the outputs
fn update_fg(f: &mut Signed62, g: &mut Signed62, t: &Matrix) {
    let Matrix { u, v, q, r } = *t;
    let mut cf = dot(u, f[0], v, g[0]);
    let mut cg = dot(q, f[0], r, g[0]);
    debug_assert_eq!(cf as u64 & M62, 0, "t·f ≡ 0 mod 2^62");
    debug_assert_eq!(cg as u64 & M62, 0, "t·g ≡ 0 mod 2^62");
    cf >>= 62;
    cg >>= 62;
    for i in 1..5 {
        cf += dot(u, f[i], v, g[i]);
        cg += dot(q, f[i], r, g[i]);
        f[i - 1] = low62(cf);
        g[i - 1] = low62(cg);
        cf >>= 62;
        cg >>= 62;
    }
    f[4] = cf as i64;
    g[4] = cg as i64;
}

/// Carries each low limb's bits above 62 into the next limb.
fn propagate(d: &mut Signed62) {
    for i in 0..4 {
        d[i + 1] += d[i] >> 62;
        d[i] &= M62 as i64;
    }
}

/// Brings `d` from `(−2m, m)` into `[0, m)`, negated when `sign` (the top
/// limb of the final `f = ±1`) is negative.
fn normalize<P: FieldParams>(d: &mut Signed62, sign: i64) {
    let m = &P::MODULUS_S62;
    // Add m if d < 0, then negate if f = −1: d is now in (−m, m).
    let add = d[4] >> 63;
    let negate = sign >> 63;
    for (limb, m) in d.iter_mut().zip(m) {
        *limb = ((*limb + (m & add)) ^ negate) - negate;
    }
    propagate(d);
    // Add m once more if d is still negative.
    let add = d[4] >> 63;
    for (limb, m) in d.iter_mut().zip(m) {
        *limb += m & add;
    }
    propagate(d);
}

/// Returns `x⁻¹ mod m` for `0 < x < m` and the prime modulus `m` of `P`,
/// in 590 divsteps whatever `x` is.
pub(crate) fn invert<P: FieldParams>(x: &U256) -> U256 {
    let mut d = [0; 5];
    let mut e = [1, 0, 0, 0, 0];
    let mut f = P::MODULUS_S62;
    let mut g = to_s62(x);
    // δ starts at ½.
    let mut zeta = -1;
    for _ in 0..BATCHES {
        let (next, t) = divsteps_59(zeta, f[0] as u64, g[0] as u64);
        zeta = next;
        update_de::<P>(&mut d, &mut e, &t);
        update_fg(&mut f, &mut g, &t);
    }
    debug_assert_eq!(g, [0; 5], "g = 0 after the last batch");
    normalize::<P>(&mut d, f[4]);
    from_s62(&d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn s62_round_trips(limbs in proptest::array::uniform4(any::<u64>())) {
            let a = U256::from_limbs(limbs);
            let s62 = to_s62(&a);
            prop_assert!(s62.iter().all(|limb| (0..1 << 62).contains(limb)));
            prop_assert_eq!(from_s62(&s62), a);
        }
    }
}
