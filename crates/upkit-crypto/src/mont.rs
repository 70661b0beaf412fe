//! Generic 4-limb Montgomery arithmetic over a prime modulus.
//!
//! Both P-256 fields (the coordinate field `p` and the scalar field `n`) are
//! instances of [`Fe`] parameterized by a [`FieldParams`] marker type.
//! Multiplication is the CIOS Montgomery product. Inversion is a
//! Bernstein–Yang safegcd inverse: 590 branch-free divsteps on signed
//! 62-bit limbs, then one Montgomery multiply by `R³` to return to
//! Montgomery form. [`Fe::pow`] remains for square roots.
//!
//! Every constant these need — `R = 2^256 mod m`, `R²` and `R³ mod m`,
//! `−m⁻¹ mod 2^64`, `m⁻¹ mod 2^62`, and `m` in signed 62-bit limbs — is
//! derived at compile time from the modulus alone, so the only trusted
//! inputs are the modulus limbs themselves (which the test suite
//! cross-checks against the curve's published test vectors).

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use core::marker::PhantomData;

use crate::safegcd;
use crate::u256::{adc, mac, U256};

/// Parameters of a prime field used in Montgomery form.
///
/// Implementors must guarantee `MODULUS` is an odd prime larger than `2^255`
/// (true for both P-256 moduli); [`Fe`] relies on this for its reduction
/// bounds.
pub trait FieldParams: Copy + Eq + core::fmt::Debug + 'static {
    /// The prime modulus.
    const MODULUS: U256;
    /// `-MODULUS⁻¹ mod 2^64`, used by the Montgomery reduction step.
    const N0: u64 = neg_inv_u64(Self::MODULUS.0[0]);
    /// The Montgomery constant `R = 2^256 mod MODULUS`, derived at
    /// compile time from the modulus alone.
    const R: U256 = compute_r(&Self::MODULUS);
    /// The Montgomery constant `R² mod MODULUS`, derived at compile time.
    const R2: U256 = compute_r2(&Self::MODULUS);
    /// `R³ mod MODULUS`: one Montgomery multiply by it turns the inverse
    /// of a Montgomery value, `a⁻¹R⁻¹`, into `a⁻¹R`.
    const R3: U256 = double_mod_times(&Self::R2, &Self::MODULUS, 256);
    /// The modulus in the inverse's signed 62-bit limbs.
    const MODULUS_S62: [i64; 5] = safegcd::to_s62(&Self::MODULUS);
    /// `MODULUS⁻¹ mod 2^62`, used by the inverse's exact division.
    const MODULUS_INV62: u64 = neg_inv_u64(Self::MODULUS.0[0]).wrapping_neg() & (u64::MAX >> 2);
}

/// Computes `-m⁻¹ mod 2^64` for odd `m` by Newton iteration.
#[must_use]
pub const fn neg_inv_u64(m: u64) -> u64 {
    // x_{k+1} = x_k * (2 - m * x_k) doubles correct low bits each step.
    let mut x = 1u64;
    let mut i = 0;
    while i < 6 {
        x = x.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(x)));
        i += 1;
    }
    x.wrapping_neg()
}

/// Computes `2^256 mod m` by modular doubling, for `m > 2^255`.
#[must_use]
pub const fn compute_r(m: &U256) -> U256 {
    // 1 < m, so doubling it 256 times modulo m gives 2^256 mod m.
    double_mod_times(&U256::ONE, m, 256)
}

/// Computes `2^512 mod m` (the Montgomery `R²`), for `m > 2^255`.
#[must_use]
pub const fn compute_r2(m: &U256) -> U256 {
    double_mod_times(&compute_r(m), m, 256)
}

/// Doubles `v < m` modulo `m`, `times` times: `v·2^times mod m`.
const fn double_mod_times(v: &U256, m: &U256, times: usize) -> U256 {
    let mut v = *v;
    let mut i = 0;
    while i < times {
        v = double_mod(&v, m);
        i += 1;
    }
    v
}

/// Doubles `v < m` modulo `m` where `m > 2^255` (so a single conditional
/// subtraction suffices even when the doubling carries out of 256 bits).
const fn double_mod(v: &U256, m: &U256) -> U256 {
    let (sum, carry) = v.adc(v);
    // `sum >= m` expressed without `Ord`: the subtraction does not borrow.
    let (reduced, borrow) = sum.sbb(m);
    if carry == 1 || borrow == 0 {
        reduced
    } else {
        sum
    }
}

/// A field element in Montgomery representation.
///
/// All arithmetic stays in Montgomery form; conversion happens only at the
/// byte-serialization boundary. This is *not* a constant-time
/// implementation — the repository models the functional behaviour of
/// UpKit's crypto libraries, not their side-channel properties.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Fe<P: FieldParams> {
    mont: U256,
    _params: PhantomData<P>,
}

impl<P: FieldParams> core::fmt::Debug for Fe<P> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Fe({})", self.to_u256())
    }
}

impl<P: FieldParams> Fe<P> {
    /// The additive identity.
    #[must_use]
    pub fn zero() -> Self {
        Self {
            mont: U256::ZERO,
            _params: PhantomData,
        }
    }

    /// The multiplicative identity.
    #[must_use]
    pub fn one() -> Self {
        Self {
            mont: P::R,
            _params: PhantomData,
        }
    }

    /// Wraps limbs that already hold a value in Montgomery form, below the
    /// modulus, so precomputed tables can be built at compile time.
    #[must_use]
    pub(crate) const fn from_montgomery(mont: U256) -> Self {
        Self {
            mont,
            _params: PhantomData,
        }
    }

    /// Converts a canonical integer into the field, reducing modulo the
    /// modulus first.
    #[must_use]
    pub fn from_u256(v: &U256) -> Self {
        let reduced = if v.cmp_raw(&P::MODULUS) == core::cmp::Ordering::Less {
            *v
        } else {
            v.reduce_mod(&P::MODULUS)
        };
        Self {
            mont: mont_mul::<P>(&reduced, &P::R2),
            _params: PhantomData,
        }
    }

    /// Converts a small integer into the field.
    #[must_use]
    pub fn from_u64(v: u64) -> Self {
        Self::from_u256(&U256::from_u64(v))
    }

    /// Returns the canonical (non-Montgomery) integer value.
    #[must_use]
    pub fn to_u256(self) -> U256 {
        mont_mul::<P>(&self.mont, &U256::ONE)
    }

    /// Returns `true` if this is the additive identity.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.mont.is_zero()
    }

    /// Field addition.
    ///
    /// The reduction is a mask, not a branch: on random operands whether
    /// the sum reaches the modulus is a coin flip, and a mispredicted
    /// branch costs more than the subtraction.
    #[must_use]
    pub fn add(&self, rhs: &Self) -> Self {
        let (sum, carry) = self.mont.adc(&rhs.mont);
        let (reduced, borrow) = sum.sbb(&P::MODULUS);
        // Keep the unreduced sum only when it is below the modulus.
        let keep_sum = (borrow & !carry).wrapping_neg();
        Self {
            mont: U256(core::array::from_fn(|i| {
                reduced.0[i] ^ ((reduced.0[i] ^ sum.0[i]) & keep_sum)
            })),
            _params: PhantomData,
        }
    }

    /// Field subtraction (adds the modulus back under a mask, as in
    /// [`Self::add`]).
    #[must_use]
    pub fn sub(&self, rhs: &Self) -> Self {
        let (diff, borrow) = self.mont.sbb(&rhs.mont);
        let mask = borrow.wrapping_neg();
        let (reduced, _) = diff.adc(&U256(P::MODULUS.0.map(|limb| limb & mask)));
        Self {
            mont: reduced,
            _params: PhantomData,
        }
    }

    /// Additive inverse.
    #[must_use]
    pub fn neg(&self) -> Self {
        Self::zero().sub(self)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, rhs: &Self) -> Self {
        Self {
            mont: mont_mul::<P>(&self.mont, &rhs.mont),
            _params: PhantomData,
        }
    }

    /// Field squaring.
    #[must_use]
    pub fn square(&self) -> Self {
        self.mul(self)
    }

    /// Doubles the element.
    #[must_use]
    pub fn double(&self) -> Self {
        self.add(self)
    }

    /// Raises to the power `e` with a 4-bit fixed window, MSB first: one
    /// multiply per non-zero nibble of `e` from a table of `self^0..=15`,
    /// instead of one per set bit.
    #[must_use]
    pub fn pow(&self, e: &U256) -> Self {
        let mut table = [Self::one(); 16];
        for i in 1..16 {
            table[i] = table[i - 1].mul(self);
        }
        let mut acc = Self::one();
        for w in (0..e.bits().div_ceil(4)).rev() {
            for _ in 0..4 {
                acc = acc.square();
            }
            let nibble = (e.0[w / 16] >> (4 * (w % 16))) & 0xf;
            if nibble != 0 {
                acc = acc.mul(&table[nibble as usize]);
            }
        }
        acc
    }

    /// Multiplicative inverse, by a Bernstein–Yang safegcd inverse of
    /// 590 divsteps, whatever the value, plus one Montgomery multiply.
    ///
    /// Returns `None` for zero, which has no inverse.
    #[must_use]
    pub fn invert(&self) -> Option<Self> {
        if self.is_zero() {
            return None;
        }
        // The stored value is aR; its inverse is a⁻¹R⁻¹, and multiplying
        // by R³ in Montgomery form gives a⁻¹R.
        let inverse = safegcd::invert::<P>(&self.mont);
        Some(Self::from_montgomery(mont_mul::<P>(&inverse, &P::R3)))
    }

    /// Square root for moduli where `m ≡ 3 (mod 4)` (true for the P-256
    /// coordinate field): `sqrt(a) = a^((m+1)/4)`. Returns `None` when the
    /// element is a quadratic non-residue.
    #[must_use]
    pub fn sqrt(&self) -> Option<Self> {
        debug_assert_eq!(P::MODULUS.0[0] & 3, 3, "sqrt requires m ≡ 3 (mod 4)");
        let (m_plus_1, carry) = P::MODULUS.adc(&U256::ONE);
        // m < 2^256 - 1 for both P-256 moduli, so no carry.
        debug_assert_eq!(carry, 0);
        let exp = m_plus_1.shr1().shr1();
        let candidate = self.pow(&exp);
        if candidate.square() == *self {
            Some(candidate)
        } else {
            None
        }
    }
}

/// Montgomery product `a * b * R⁻¹ mod m` (CIOS method, 4 limbs).
#[allow(clippy::needless_range_loop)] // limb indices mirror the CIOS paper
fn mont_mul<P: FieldParams>(a: &U256, b: &U256) -> U256 {
    let m = P::MODULUS.0;
    let n0 = P::N0;
    let mut t = [0u64; 6];

    for i in 0..4 {
        // t += a[i] * b
        let mut carry = 0u64;
        for j in 0..4 {
            let (lo, hi) = mac(t[j], a.0[i], b.0[j], carry);
            t[j] = lo;
            carry = hi;
        }
        let (t4, c) = adc(t[4], carry, 0);
        t[4] = t4;
        t[5] += c;

        // Reduction step: add u * m so the low limb becomes zero, then shift.
        let u = t[0].wrapping_mul(n0);
        let (_, mut carry) = mac(t[0], u, m[0], 0);
        for j in 1..4 {
            let (lo, hi) = mac(t[j], u, m[j], carry);
            t[j - 1] = lo;
            carry = hi;
        }
        let (t3, c) = adc(t[4], carry, 0);
        t[3] = t3;
        t[4] = t[5] + c;
        t[5] = 0;
    }

    let result = U256::from_limbs([t[0], t[1], t[2], t[3]]);
    if t[4] == 1 || result.cmp_raw(&P::MODULUS) != core::cmp::Ordering::Less {
        let (reduced, _) = result.sbb(&P::MODULUS);
        reduced
    } else {
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::p256::{FieldElement, P256FieldParams, P256ScalarParams, Scalar};
    use proptest::prelude::*;

    /// A field without P-256's structure: `m = 2^256 − 189` is the largest
    /// 256-bit prime, so it keeps the `m > 2^255` invariant.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct TestField;

    impl FieldParams for TestField {
        const MODULUS: U256 = U256::from_limbs([u64::MAX - 188, u64::MAX, u64::MAX, u64::MAX]);
    }

    type F = Fe<TestField>;

    #[test]
    fn neg_inv_is_inverse() {
        for m in [1u64, 3, 0xf3b9_cac2_fc63_2551, u64::MAX, u64::MAX - 188] {
            let n0 = neg_inv_u64(m);
            assert_eq!(m.wrapping_mul(n0.wrapping_neg()), 1, "m = {m:#x}");
        }
    }

    #[test]
    fn r_constants_match_definition() {
        // For m > 2^255, R = 2^256 mod m is 2^256 − m: 0 − m, wrapping.
        let (expected_r, borrow) = U256::ZERO.sbb(&TestField::MODULUS);
        assert_eq!(borrow, 1);
        assert_eq!(TestField::R, expected_r);
        // R² and R³ are R·R and R·R·R, so their Montgomery products with 1
        // strip one R each.
        assert_eq!(
            mont_mul::<TestField>(&TestField::R2, &U256::ONE),
            TestField::R
        );
        assert_eq!(
            mont_mul::<TestField>(&TestField::R3, &U256::ONE),
            TestField::R2
        );
    }

    #[test]
    fn round_trip_via_montgomery() {
        for v in [0u64, 1, 2, 188, 189, 190, 12345, u64::MAX] {
            let fe = F::from_u64(v);
            assert_eq!(fe.to_u256(), U256::from_u64(v));
        }
    }

    #[test]
    fn add_commutes_and_wraps() {
        let a = F::from_u256(&TestField::MODULUS.sbb(&U256::ONE).0); // m - 1
        let b = F::from_u64(5);
        assert_eq!(a.add(&b), b.add(&a));
        assert_eq!(a.add(&b).to_u256(), U256::from_u64(4));
    }

    #[test]
    fn sub_is_inverse_of_add() {
        let a = F::from_u64(123);
        let b = F::from_u64(100_000);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn neg_adds_to_zero() {
        let a = F::from_u64(77);
        assert!(a.add(&a.neg()).is_zero());
        assert!(F::zero().neg().is_zero());
    }

    #[test]
    fn mul_matches_small_values() {
        let a = F::from_u64(1 << 40);
        let b = F::from_u64(1 << 30);
        assert_eq!(a.mul(&b).to_u256(), U256::from_limbs([0, 1 << 6, 0, 0]));
    }

    #[test]
    fn mul_wraps_modulus() {
        // (m - 1)² ≡ 1 (mod m)
        let m_minus_1 = F::from_u256(&TestField::MODULUS.sbb(&U256::ONE).0);
        assert_eq!(m_minus_1.square().to_u256(), U256::ONE);
    }

    #[test]
    fn pow_and_invert() {
        let a = F::from_u64(987_654_321);
        let inv = a.invert().expect("non-zero invertible");
        assert_eq!(a.mul(&inv).to_u256(), U256::ONE);
        assert!(F::zero().invert().is_none());
    }

    #[test]
    fn fermat_little_theorem() {
        // a^(m-1) = 1 for a != 0.
        let a = F::from_u64(2);
        let (exp, _) = TestField::MODULUS.sbb(&U256::ONE);
        assert_eq!(a.pow(&exp).to_u256(), U256::ONE);
    }

    #[test]
    fn windowed_pow_matches_square_and_multiply() {
        let a = F::from_u64(0x1234_5678_9abc);
        let (m_minus_2, _) = TestField::MODULUS.sbb(&U256::from_u64(2));
        for e in [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(15),
            U256::from_u64(16),
            U256::from_u64(0xf0f1),
            U256::from_limbs([0, 1 << 63, 0, 0x8000_0000_0000_0001]),
            m_minus_2,
            U256::MAX,
        ] {
            let mut expected = F::one();
            for i in (0..256).rev() {
                expected = expected.square();
                if e.bit(i) {
                    expected = expected.mul(&a);
                }
            }
            assert_eq!(a.pow(&e), expected, "e = {e}");
        }
    }

    /// Checks `x.invert()` against the Fermat inverse `x^(m − 2)`, and
    /// `x · x⁻¹ = 1`; zero has no inverse.
    fn check_inverse<P: FieldParams>(x: Fe<P>) {
        let Some(inverse) = x.invert() else {
            assert!(x.is_zero(), "{x:?} has an inverse");
            return;
        };
        let (m_minus_2, _) = P::MODULUS.sbb(&U256::from_u64(2));
        assert_eq!(inverse, x.pow(&m_minus_2), "inverse of {x:?}");
        assert_eq!(x.mul(&inverse), Fe::one(), "{x:?} times its inverse");
    }

    /// 1, 2, m − 1, m − 2, and every 2^k and 2^k − 1 for k < 256 (mod m),
    /// both as field values and as raw Montgomery values, which reach the
    /// divsteps unchanged.
    fn check_structured_inverses<P: FieldParams>() {
        let m = P::MODULUS;
        let mut values = [
            U256::ONE,
            U256::from_u64(2),
            m.sbb(&U256::ONE).0,
            m.sbb(&U256::from_u64(2)).0,
        ]
        .to_vec();
        for k in 0..256 {
            let power = U256(core::array::from_fn(|i| {
                if i == k / 64 {
                    1 << (k % 64)
                } else {
                    0
                }
            }));
            values.push(power);
            values.push(power.sbb(&U256::ONE).0);
        }
        for v in values {
            check_inverse(Fe::<P>::from_u256(&v));
            check_inverse(Fe::<P>::from_montgomery(v.reduce_mod(&m)));
        }
    }

    #[test]
    fn invert_matches_fermat_on_structured_inputs() {
        check_structured_inverses::<TestField>();
        check_structured_inverses::<P256FieldParams>();
        check_structured_inverses::<P256ScalarParams>();
    }

    /// Inputs that need more than 531 divsteps, found by search: with 9
    /// batches instead of 10 their inverses come out wrong. Random inputs
    /// almost never need that many, so these pin the 590-step schedule.
    #[test]
    fn invert_needs_all_ten_batches() {
        // 0xdb28a1b7206b1af0dfe86260d6af83ff1d1ef02124e38c8ada1aa41dc4e5b1ed
        check_inverse(Scalar::from_montgomery(U256::from_limbs([
            0xda1a_a41d_c4e5_b1ed,
            0x1d1e_f021_24e3_8c8a,
            0xdfe8_6260_d6af_83ff,
            0xdb28_a1b7_206b_1af0,
        ])));
        // 0xfd68cdf63f8cbaa55a40774faadfc6baebf7eafddde1009de7a0d2d7b0316d3e
        check_inverse(FieldElement::from_montgomery(U256::from_limbs([
            0xe7a0_d2d7_b031_6d3e,
            0xebf7_eafd_dde1_009d,
            0x5a40_774f_aadf_c6ba,
            0xfd68_cdf6_3f8c_baa5,
        ])));
    }

    proptest! {
        #[test]
        fn invert_matches_fermat(limbs in proptest::array::uniform4(any::<u64>())) {
            let v = U256::from_limbs(limbs);
            check_inverse(Scalar::from_u256(&v));
            check_inverse(FieldElement::from_u256(&v));
            check_inverse(F::from_u256(&v));
        }
    }

    #[test]
    fn sqrt_round_trip() {
        // m = 2^256 - 189 ≡ 3 (mod 4): (2^256 - 189) mod 4 = (0 - 1) mod 4 = 3.
        let a = F::from_u64(1234);
        let square = a.square();
        let root = square.sqrt().expect("squares have roots");
        assert!(root == a || root == a.neg());
    }
}
