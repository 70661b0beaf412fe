//! The NIST P-256 (secp256r1) elliptic-curve group.
//!
//! UpKit's double-signature scheme uses ECDSA over secp256r1 with SHA-256,
//! the combination the paper selects because every evaluated crypto library
//! (TinyDTLS, tinycrypt, CryptoAuthLib) supports it. This module provides
//! the group arithmetic; [`crate::ecdsa`] builds signatures on top.
//!
//! # Scalar multiplication
//!
//! Points live in Jacobian coordinates. Doubling uses the `a = −3`
//! formulas and forms their multiples by 3, 4 and 8 with additions.
//!
//! * **[`Comb`]** is a fixed-base comb table with 6 teeth at spacing 43:
//!   the 63 non-empty sums of `2^(43·j)·P` for `j < 6`, as affine points in
//!   Montgomery form (63 × 64 = 4,032 bytes, held inline). `G`'s table is
//!   static data. [`Comb::new`] builds any other point's: 5 × 43 doublings
//!   for the teeth, 57 mixed additions for their sums, and a batch
//!   normalisation after each (Montgomery's trick: one field inversion for
//!   the whole batch). That is about the work of one plain verification.
//! * **`k·G`** (signing and key derivation) runs `G`'s comb: 43 doublings
//!   and at most 43 table additions.
//! * **`a·G + b·Q`** against a plain key ([`double_scalar_mul`]) shares one
//!   doubling chain between both scalars. `b` is recoded in width-5 NAF
//!   over the 8 odd multiples `Q, 3Q, …, 15Q`, so about one doubling in six
//!   is followed by an addition. The last 43 doublings also add the comb
//!   columns of `a` from `G`'s table. That is 257 doublings in all.
//! * **`a·G + b·Q`** against `Q`'s table ([`double_comb_mul`], a prepared
//!   key) runs one 43-doubling chain, and each step adds `a`'s column of
//!   `G`'s table and `b`'s column of `Q`'s. It costs well under half of
//!   [`double_scalar_mul`], so a key checked more than about twice repays
//!   its table.
//! * Table points enter through a mixed Jacobian + affine addition
//!   (madd-2007-bl: 11 field multiplies, against 16 for the general
//!   addition).
//!
//! Verification never leaves Jacobian coordinates: it compares `X` with
//! `r·Z²` (and `(r + n)·Z²` when `r + n < p`) instead of inverting `Z`.
//!
//! The field multiply stays the generic 4-limb CIOS loop of [`crate::mont`],
//! and squaring stays a multiply. A P-256-specific reduction and a
//! dedicated squaring were measured against it and saved too little per
//! operation to pay for a second code path, so every saving here comes
//! from doing fewer field operations.

use crate::mont::{Fe, FieldParams};
use crate::u256::U256;

/// Marker for the P-256 coordinate field `GF(p)`,
/// `p = 2^256 - 2^224 + 2^192 + 2^96 - 1`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct P256FieldParams;

impl FieldParams for P256FieldParams {
    const MODULUS: U256 = U256::from_limbs([
        0xffff_ffff_ffff_ffff,
        0x0000_0000_ffff_ffff,
        0x0000_0000_0000_0000,
        0xffff_ffff_0000_0001,
    ]);
}

/// Marker for the P-256 scalar field `GF(n)` where `n` is the group order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct P256ScalarParams;

impl FieldParams for P256ScalarParams {
    const MODULUS: U256 = U256::from_limbs([
        0xf3b9_cac2_fc63_2551,
        0xbce6_faad_a717_9e84,
        0xffff_ffff_ffff_ffff,
        0xffff_ffff_0000_0000,
    ]);
}

/// An element of the coordinate field.
pub type FieldElement = Fe<P256FieldParams>;
/// An element of the scalar field (integers modulo the group order).
pub type Scalar = Fe<P256ScalarParams>;

/// The group order `n`.
#[must_use]
pub fn order() -> U256 {
    P256ScalarParams::MODULUS
}

/// The coordinate-field prime `p`.
#[must_use]
pub fn field_prime() -> U256 {
    P256FieldParams::MODULUS
}

/// Curve coefficient `b` as a raw integer
/// (`5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b`);
/// the test suite cross-checks these limbs against the hex literal.
const CURVE_B: U256 = U256::from_limbs([
    0x3bce_3c3e_27d2_604b,
    0x651d_06b0_cc53_b0f6,
    0xb3eb_bd55_7698_86bc,
    0x5ac6_35d8_aa3a_93e7,
]);

/// Generator x-coordinate
/// (`6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296`).
const GEN_X: U256 = U256::from_limbs([
    0xf4a1_3945_d898_c296,
    0x7703_7d81_2deb_33a0,
    0xf8bc_e6e5_63a4_40f2,
    0x6b17_d1f2_e12c_4247,
]);

/// Generator y-coordinate
/// (`4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5`).
const GEN_Y: U256 = U256::from_limbs([
    0xcbb6_4068_37bf_51f5,
    0x2bce_3357_6b31_5ece,
    0x8ee7_eb4a_7c0f_9e16,
    0x4fe3_42e2_fe1a_7f9b,
]);

/// The right-hand side of the curve equation, `x³ − 3x + b`.
fn curve_rhs(x: &FieldElement) -> FieldElement {
    let b = FieldElement::from_u256(&CURVE_B);
    x.square().mul(x).sub(&x.double().add(x)).add(&b)
}

/// A point on P-256 in affine coordinates, or the point at infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AffinePoint {
    /// The group identity.
    Identity,
    /// A finite curve point.
    Point {
        /// x-coordinate.
        x: FieldElement,
        /// y-coordinate.
        y: FieldElement,
    },
}

impl AffinePoint {
    /// The group generator `G`.
    #[must_use]
    pub fn generator() -> Self {
        Self::Point {
            x: FieldElement::from_u256(&GEN_X),
            y: FieldElement::from_u256(&GEN_Y),
        }
    }

    /// Returns `true` if the point satisfies the curve equation
    /// `y² = x³ - 3x + b` (the identity is considered on-curve).
    #[must_use]
    pub fn is_on_curve(&self) -> bool {
        match self {
            Self::Identity => true,
            Self::Point { x, y } => y.square() == curve_rhs(x),
        }
    }

    /// Serializes to the SEC1 uncompressed form `04 ‖ X ‖ Y` (65 bytes).
    ///
    /// # Panics
    ///
    /// Panics if called on the identity, which has no SEC1 uncompressed
    /// encoding.
    #[must_use]
    pub fn to_sec1_bytes(&self) -> [u8; 65] {
        match self {
            Self::Identity => panic!("the identity has no uncompressed SEC1 encoding"),
            Self::Point { x, y } => {
                let mut out = [0u8; 65];
                out[0] = 0x04;
                out[1..33].copy_from_slice(&x.to_u256().to_be_bytes());
                out[33..65].copy_from_slice(&y.to_u256().to_be_bytes());
                out
            }
        }
    }

    /// Serializes to the SEC1 compressed form `02/03 ‖ X` (33 bytes) —
    /// half the flash cost of the uncompressed form, which matters when
    /// public keys live in a constrained device's trust store.
    ///
    /// # Panics
    ///
    /// Panics if called on the identity, which has no SEC1 encoding.
    #[must_use]
    pub fn to_sec1_compressed(&self) -> [u8; 33] {
        match self {
            Self::Identity => panic!("the identity has no compressed SEC1 encoding"),
            Self::Point { x, y } => {
                let mut out = [0u8; 33];
                out[0] = 2 + (y.to_u256().0[0] & 1) as u8;
                out[1..].copy_from_slice(&x.to_u256().to_be_bytes());
                out
            }
        }
    }

    /// Parses a SEC1 compressed point, recovering `y` via the curve
    /// equation (`p ≡ 3 (mod 4)` square root).
    pub fn from_sec1_compressed(bytes: &[u8]) -> Result<Self, PointError> {
        if bytes.len() != 33 || (bytes[0] != 0x02 && bytes[0] != 0x03) {
            return Err(PointError::Encoding);
        }
        let mut xb = [0u8; 32];
        xb.copy_from_slice(&bytes[1..]);
        let x_raw = U256::from_be_bytes(&xb);
        if x_raw.cmp_raw(&field_prime()) != core::cmp::Ordering::Less {
            return Err(PointError::Encoding);
        }
        let x = FieldElement::from_u256(&x_raw);
        let y = curve_rhs(&x).sqrt().ok_or(PointError::NotOnCurve)?;
        let y_is_odd = y.to_u256().0[0] & 1 == 1;
        let want_odd = bytes[0] == 0x03;
        let y = if y_is_odd == want_odd { y } else { y.neg() };
        Ok(Self::Point { x, y })
    }

    /// Parses a SEC1 uncompressed point, validating that it lies on the
    /// curve.
    pub fn from_sec1_bytes(bytes: &[u8]) -> Result<Self, PointError> {
        if bytes.len() != 65 || bytes[0] != 0x04 {
            return Err(PointError::Encoding);
        }
        let mut xb = [0u8; 32];
        let mut yb = [0u8; 32];
        xb.copy_from_slice(&bytes[1..33]);
        yb.copy_from_slice(&bytes[33..65]);
        let x_raw = U256::from_be_bytes(&xb);
        let y_raw = U256::from_be_bytes(&yb);
        if x_raw.cmp_raw(&field_prime()) != core::cmp::Ordering::Less
            || y_raw.cmp_raw(&field_prime()) != core::cmp::Ordering::Less
        {
            return Err(PointError::Encoding);
        }
        let point = Self::Point {
            x: FieldElement::from_u256(&x_raw),
            y: FieldElement::from_u256(&y_raw),
        };
        if point.is_on_curve() {
            Ok(point)
        } else {
            Err(PointError::NotOnCurve)
        }
    }

    /// Converts to Jacobian coordinates.
    #[must_use]
    pub fn to_jacobian(&self) -> JacobianPoint {
        match self {
            Self::Identity => JacobianPoint::identity(),
            Self::Point { x, y } => JacobianPoint {
                x: *x,
                y: *y,
                z: FieldElement::one(),
            },
        }
    }
}

/// Errors arising from point decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PointError {
    /// The byte encoding was malformed.
    Encoding,
    /// The coordinates do not satisfy the curve equation.
    NotOnCurve,
}

impl core::fmt::Display for PointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::Encoding => f.write_str("malformed SEC1 point encoding"),
            Self::NotOnCurve => f.write_str("coordinates do not lie on P-256"),
        }
    }
}

impl core::error::Error for PointError {}

/// A point in Jacobian projective coordinates `(X : Y : Z)` with
/// `x = X/Z²`, `y = Y/Z³`; the identity has `Z = 0`.
#[derive(Clone, Copy, Debug)]
pub struct JacobianPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
}

impl JacobianPoint {
    /// The group identity.
    #[must_use]
    pub fn identity() -> Self {
        Self {
            x: FieldElement::one(),
            y: FieldElement::one(),
            z: FieldElement::zero(),
        }
    }

    /// Returns `true` for the identity.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        self.z.is_zero()
    }

    /// Point doubling (dbl-2001-b for `a = -3` short Weierstrass curves).
    ///
    /// Its multiples by 3, 4 and 8 are chains of field additions, and
    /// `Z3 = 2·Y·Z` replaces `(Y + Z)² − Y² − Z²` because a squaring costs
    /// a full multiply here.
    #[must_use]
    pub fn double(&self) -> Self {
        if self.is_identity() || self.y.is_zero() {
            return Self::identity();
        }
        let delta = self.z.square();
        let gamma = self.y.square();
        let beta = self.x.mul(&gamma);
        let t = self.x.sub(&delta).mul(&self.x.add(&delta));
        let alpha = t.double().add(&t);
        let beta4 = beta.double().double();
        let x3 = alpha.square().sub(&beta4.double());
        let z3 = self.y.mul(&self.z).double();
        let gamma2_8 = gamma.square().double().double().double();
        let y3 = alpha.mul(&beta4.sub(&x3)).sub(&gamma2_8);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian point addition (add-2007-bl, with
    /// `Z3 = 2·Z1·Z2·H`).
    #[must_use]
    pub fn add(&self, rhs: &Self) -> Self {
        if self.is_identity() {
            return *rhs;
        }
        if rhs.is_identity() {
            return *self;
        }

        let z1z1 = self.z.square();
        let z2z2 = rhs.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = rhs.x.mul(&z1z1);
        let s1 = self.y.mul(&z2z2).mul(&rhs.z);
        let s2 = rhs.y.mul(&z1z1).mul(&self.z);

        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Self::identity();
        }

        let h = u2.sub(&u1);
        let i = h.double().square();
        let j = h.mul(&i);
        let r = s2.sub(&s1).double();
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.mul(&rhs.z).double().mul(&h);
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Mixed addition of a finite affine point (madd-2007-bl, with
    /// `Z3 = 2·Z1·H`): 11 field multiplies instead of 16.
    fn add_affine(&self, rhs: &CombPoint) -> Self {
        if self.is_identity() {
            return Self {
                x: rhs.x,
                y: rhs.y,
                z: FieldElement::one(),
            };
        }
        let z1z1 = self.z.square();
        let u2 = rhs.x.mul(&z1z1);
        let s2 = rhs.y.mul(&self.z).mul(&z1z1);
        if u2 == self.x {
            if s2 == self.y {
                return self.double();
            }
            return Self::identity();
        }
        let h = u2.sub(&self.x);
        let hh = h.square();
        let i = hh.double().double();
        let j = h.mul(&i);
        let r = s2.sub(&self.y).double();
        let v = self.x.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&self.y.mul(&j).double());
        let z3 = self.z.mul(&h).double();
        Self {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Adds the column of `k` at bit `i` from `comb`: the table point whose
    /// teeth are bits `i, i + 43, …, i + 215` of `k`.
    fn add_comb_column(&self, comb: &Comb, k: &U256, i: usize) -> Self {
        let column =
            (0..COMB_TEETH).fold(0, |m, j| m | usize::from(k.bit(i + COMB_SPACING * j)) << j);
        match column {
            0 => *self,
            m => self.add_affine(&comb.points[m - 1]),
        }
    }

    /// Additive inverse `(X : −Y : Z)`.
    fn neg(&self) -> Self {
        Self {
            y: self.y.neg(),
            ..*self
        }
    }

    /// Scalar multiplication `k · self` (left-to-right double-and-add).
    #[must_use]
    pub fn mul_scalar(&self, k: &U256) -> Self {
        let mut acc = Self::identity();
        for i in (0..k.bits()).rev() {
            acc = acc.double();
            if k.bit(i) {
                acc = acc.add(self);
            }
        }
        acc
    }

    /// Returns `true` if this is a finite point with affine x-coordinate
    /// `x`, tested as `X == x·Z²` so that no inversion is needed.
    pub(crate) fn has_affine_x(&self, x: &FieldElement) -> bool {
        !self.is_identity() && self.x == x.mul(&self.z.square())
    }

    /// Converts back to affine coordinates.
    #[must_use]
    pub fn to_affine(&self) -> AffinePoint {
        // `Z` has no inverse exactly when it is zero: the identity.
        let Some(z_inv) = self.z.invert() else {
            return AffinePoint::Identity;
        };
        let z_inv2 = z_inv.square();
        let z_inv3 = z_inv2.mul(&z_inv);
        AffinePoint::Point {
            x: self.x.mul(&z_inv2),
            y: self.y.mul(&z_inv3),
        }
    }
}

/// `k·G` by the fixed-base comb: 43 doublings and at most 43 mixed
/// additions of table points, for any 256-bit `k`.
pub(crate) fn mul_base(k: &U256) -> JacobianPoint {
    let mut acc = JacobianPoint::identity();
    for i in (0..COMB_SPACING).rev() {
        acc = acc.double().add_comb_column(&G_COMB, k, i);
    }
    acc
}

/// Computes `a·G + b·Q` from `Q`'s comb table, for any 256-bit `a` and
/// `b`: 43 doublings, each followed by at most one mixed addition from
/// `G`'s table and one from `Q`'s.
#[must_use]
pub fn double_comb_mul(a: &U256, b: &U256, q: &Comb) -> JacobianPoint {
    let mut acc = JacobianPoint::identity();
    for i in (0..COMB_SPACING).rev() {
        acc = acc
            .double()
            .add_comb_column(&G_COMB, a, i)
            .add_comb_column(q, b, i);
    }
    acc
}

/// Computes `a·G + b·Q`, the linear combination at the heart of ECDSA
/// verification, for a `Q` without a table.
///
/// One doubling chain serves both scalars: `b`'s width-5 NAF digits add
/// odd multiples of `Q`, and the last 43 doublings also add `a`'s comb
/// columns.
#[must_use]
pub fn double_scalar_mul(a: &U256, b: &U256, q: &AffinePoint) -> JacobianPoint {
    let q = q.to_jacobian();
    let q2 = q.double();
    // odd[i] = (2i + 1)·Q, the multiples a width-5 NAF digit selects.
    let mut odd = [q; 8];
    for i in 1..odd.len() {
        odd[i] = odd[i - 1].add(&q2);
    }
    let mut acc = JacobianPoint::identity();
    for (i, &digit) in wnaf5(b).iter().enumerate().rev() {
        acc = acc.double();
        let multiple = &odd[usize::from(digit.unsigned_abs() / 2)];
        if digit > 0 {
            acc = acc.add(multiple);
        } else if digit < 0 {
            acc = acc.add(&multiple.neg());
        }
        if i < COMB_SPACING {
            acc = acc.add_comb_column(&G_COMB, a, i);
        }
    }
    acc
}

/// The width-5 non-adjacent form of `k`: `k = Σ naf[i]·2^i`, every digit 0
/// or odd in `−15..=15`, and any two non-zero digits at least 5 positions
/// apart. Position 256 takes the final carry, so any 256-bit `k` fits.
fn wnaf5(k: &U256) -> [i8; 257] {
    let limbs = [k.0[0], k.0[1], k.0[2], k.0[3], 0];
    let mut naf = [0i8; 257];
    let mut carry = 0u64;
    let mut pos = 0;
    while pos < 256 {
        let (limb, shift) = (pos / 64, pos % 64);
        let mut bits = limbs[limb] >> shift;
        if shift > 64 - 5 {
            bits |= limbs[limb + 1] << (64 - shift);
        }
        let window = carry + (bits & 31);
        if window & 1 == 0 {
            // No digit here; a pending carry moves up one position.
            pos += 1;
            continue;
        }
        // An odd window above 16 becomes the negative digit `window − 32`;
        // the 32 it borrowed is a carry into position `pos + 5`.
        carry = u64::from(window > 16);
        naf[pos] = window as i8 - 32 * carry as i8;
        pos += 5;
    }
    naf[256] = carry as i8;
    naf
}

/// A finite point in affine coordinates, as stored in a comb table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CombPoint {
    x: FieldElement,
    y: FieldElement,
}

/// Builds a table point from coordinates already in Montgomery form.
const fn comb_point(x: [u64; 4], y: [u64; 4]) -> CombPoint {
    CombPoint {
        x: FieldElement::from_montgomery(U256::from_limbs(x)),
        y: FieldElement::from_montgomery(U256::from_limbs(y)),
    }
}

/// Teeth of a comb.
const COMB_TEETH: usize = 6;
/// Bit distance between adjacent teeth; `6 × 43 = 258` covers 256 bits.
const COMB_SPACING: usize = 43;
/// Points in a comb table: one per non-empty set of teeth.
const COMB_POINTS: usize = (1 << COMB_TEETH) - 1;

/// The fixed-base comb table of a point `P`: entry `m − 1` is
/// `Σ 2^(43·j)·P` over the set bits `j` of `m`, for `m = 1..=63`, as affine
/// points in Montgomery form. The 4,032 bytes are held inline, so a
/// `no_std` build needs no allocator for one.
#[derive(Clone, Debug)]
pub struct Comb {
    points: [CombPoint; COMB_POINTS],
}

impl Comb {
    /// Builds the table of `p`: 5 × 43 doublings for the teeth
    /// `2^(43·j)·p`, one batch normalisation, 57 mixed additions for the
    /// sums of two or more teeth, then a second batch normalisation.
    ///
    /// # Panics
    ///
    /// Panics if `p` is the identity, which has no affine table points.
    #[must_use]
    pub fn new(p: &AffinePoint) -> Self {
        if *p == AffinePoint::Identity {
            panic!("the identity has no comb table");
        }
        let mut teeth = [p.to_jacobian(); COMB_TEETH];
        for j in 1..COMB_TEETH {
            teeth[j] = (0..COMB_SPACING).fold(teeth[j - 1], |t, _| t.double());
        }
        let teeth = batch_to_affine(&teeth);
        // Each sum adds its highest tooth to the sum of the others, which
        // an earlier entry holds.
        let mut sums = [JacobianPoint::identity(); COMB_POINTS];
        for m in 1..=COMB_POINTS {
            let top = m.ilog2() as usize;
            let rest = match m & !(1 << top) {
                0 => JacobianPoint::identity(),
                rest => sums[rest - 1],
            };
            sums[m - 1] = rest.add_affine(&teeth[top]);
        }
        Self {
            points: batch_to_affine(&sums),
        }
    }
}

/// Converts finite points to affine with one field inversion (Montgomery's
/// trick): three multiplies per point invert every `Z` from the inverse of
/// their product.
///
/// # Panics
///
/// Panics if a point is the identity. [`Comb::new`] passes only finite
/// points: for a finite `P`, each tooth and each sum is `k·P` with
/// `0 < k < 2^216 < n`.
fn batch_to_affine<const N: usize>(points: &[JacobianPoint; N]) -> [CombPoint; N] {
    // prefix[i] = Z_0 · Z_1 ⋯ Z_i.
    let mut prefix = [FieldElement::one(); N];
    let mut product = FieldElement::one();
    for (prefix, point) in prefix.iter_mut().zip(points) {
        product = product.mul(&point.z);
        *prefix = product;
    }
    let mut inverse = product
        .invert()
        .expect("each point is k·P with 0 < k < n for a finite P, so no Z is zero");
    let zero = FieldElement::zero();
    let mut affine = [CombPoint { x: zero, y: zero }; N];
    for i in (0..N).rev() {
        // `inverse` is (Z_0 ⋯ Z_i)⁻¹ here.
        let z_inv = match i {
            0 => inverse,
            _ => inverse.mul(&prefix[i - 1]),
        };
        inverse = inverse.mul(&points[i].z);
        let z_inv2 = z_inv.square();
        affine[i] = CombPoint {
            x: points[i].x.mul(&z_inv2),
            y: points[i].y.mul(&z_inv2.mul(&z_inv)),
        };
    }
    affine
}

/// `G`'s comb table (generated offline and checked by
/// `comb_table_matches_generator`). A `static`, so every use reads the one
/// copy in read-only data.
#[rustfmt::skip]
static G_COMB: Comb = Comb { points: [
    comb_point([0x79e730d418a9143c, 0x75ba95fc5fedb601, 0x79fb732b77622510, 0x18905f76a53755c6],
               [0xddf25357ce95560a, 0x8b4ab8e4ba19e45c, 0xd2e88688dd21f325, 0x8571ff1825885d85]),
    comb_point([0x8910507903605c39, 0xf0843d9ea142c96c, 0xf374493416923684, 0x732caa2ffa0a2893],
               [0xb2e8c27061160170, 0xc32788cc437fbaa3, 0x39cd818ea6eda3ac, 0xe2e942399e2b2e07]),
    comb_point([0xb9c0d276abc3e190, 0x610e3d4dcb55b9ca, 0xd16dbd025720f50a, 0xd0ed73dca607de84],
               [0x3bbde5bf49219fb5, 0x698e12c057771843, 0xdb606a9763470a5e, 0x61c71975853635d5]),
    comb_point([0xeb5ddcb6ec7fae9f, 0x995f2714efb66e5a, 0xdee95d8e69445d52, 0x1b6c2d4609e27620],
               [0x32621c318129d716, 0xb03909f10958c1aa, 0x8c468ef91af4af63, 0x162c429ffba5cdf6]),
    comb_point([0x4615d912c1d85f12, 0x1f0880b0e1f4e302, 0x336bcc896f1fca13, 0xda59ad0dc70dedbc],
               [0x3897efaeb0f62ece, 0xbaed81cdf4990cfd, 0xa3b1c2f260321bbb, 0x2aefd95addc84f79]),
    comb_point([0x2d427e3cee9e92e6, 0x43d40da0437fe629, 0x0006e4e06ab72b31, 0x21ccfbb46f5c8e02],
               [0x53a2f1a753e821ec, 0x5d72d201e209d591, 0xfd84a26445e8ad41, 0x86ee0e684059cc6e]),
    comb_point([0x3d8242d09248fce2, 0x32d4bf827f49f33d, 0x78807beb29d41fd1, 0xfce48b99f8f562cb],
               [0x72a7d4849f38f097, 0x1b482c10a37059ad, 0xc1aa8284472e5ed3, 0xc5d6f3bbef23e9c9]),
    comb_point([0x23f949feb8a24a20, 0x17ebfed1f52ca53f, 0x9b691bbebcfb4853, 0x5617ff6b6278a05d],
               [0x241b34c5e3c99ebd, 0xfc64242e1784156a, 0x4206482f695d67df, 0xb967ce0eee27c011]),
    comb_point([0x569aacdf9fc3df19, 0x0c6782c7c34c6fb2, 0xbb5f98b2c4ec873d, 0x5578433b9fe9e475],
               [0xfa14f3869ca84821, 0xb8ef658d39589501, 0x4022c48e07127b8e, 0xcbc4dfe35402ea12]),
    comb_point([0x092ef96a2ad408a3, 0xf1e1a4c4cfbc45a3, 0x966b2676efeecdee, 0xa0e2c6713a6216c5],
               [0xcd6e22a292c4bf61, 0x56d99a11d830dfc7, 0xb8c612bd259de547, 0x3d8e9a72e91f8ff7]),
    comb_point([0x0b885e962352b4ff, 0x6be320d2a6545766, 0xbd22a444b9a59e72, 0x2f2d32d6ccc55d7d],
               [0xd86e4c4cddcec70b, 0x19cdb0e97a25c934, 0x542ade069ca97e28, 0x58c5927c746517f7]),
    comb_point([0x24abb0f08d087091, 0x6aa2c2ef51add8de, 0xc3e1cb4ccc2a2134, 0x3563112895589212],
               [0x3bf17d2a7984344b, 0xbcb6f7b2f8a142cc, 0xd6057d8a08ec9266, 0x75c150d22852405a]),
    comb_point([0xa8f88eb5a9fee73e, 0x72a84174576ea39b, 0x671fa0ade2692e7d, 0x2556288596769f9e],
               [0x254323bce850a6b0, 0x74b61c18fff6c89a, 0x2e7c563fcfae2690, 0x2cf454b7164afb0f]),
    comb_point([0xe312a5618f10f423, 0x59a1f1fff2b85df4, 0x56c5991941c48122, 0x74953c1eae3d175f],
               [0x4d767fc78859244c, 0xc486bc00719a4cc1, 0xdd282985df1c1787, 0x1143301aae93c719]),
    comb_point([0x7201a1d61fab7d71, 0x65931f5432cbbee8, 0x202955d3dcb387ee, 0xa5045ba5c4678432],
               [0xcfb5ee87dca85ff6, 0xdd25a7c6dfec0f67, 0xfee47169356a87c6, 0x20a8f159c3d7ece9]),
    comb_point([0xe4ac8b33070d3aab, 0x2643672b9a2cd5e5, 0x52eff79b1cfc9173, 0x665ca49b90a7c13f],
               [0x5a8dda59b3efb998, 0x8a5b922d052f1341, 0xae9ebbab3cf9a530, 0x35986e7bf56da4d7]),
    comb_point([0x21e07f9abc0a70c0, 0xecfdb3a2989a0182, 0x360682c0e40e8125, 0x73a637952f837f32],
               [0xf4eb8cef9c0d326b, 0xefb97fecebf4c7a5, 0xf9352123af3d5d7e, 0xb71ef4ef34e22ab1]),
    comb_point([0xd6bd0d810d488032, 0x1676df9971f0b92e, 0xa7acdcfcb6d215ac, 0x82461a26cd0ff939],
               [0x827189c0b635d2e5, 0x18f3b6dda92f1622, 0x10d738aa05cef325, 0x12c2a13f39bb0aa6]),
    comb_point([0x5f94d8deb50b4e82, 0xbcd9144e34bd93e9, 0x61c3392107c08623, 0xedec947e7e3de8ee],
               [0x9d2da51d2f21b202, 0xc0c885cd96692a89, 0x4a613462a5e7309c, 0x227788550f28dee6]),
    comb_point([0x1ff0bd527695447a, 0x63534a4a42ae2627, 0xd96af0dad0cc09f2, 0xb59ea545412d3e1a],
               [0xd10518cf6a759072, 0xffeec37c10475dfd, 0xacbc29ccb25089c4, 0xbf3dfc8521b6d4ee]),
    comb_point([0x8f2eacfe49388995, 0x000fc8d4841be9ed, 0x2ed8085a6955c290, 0x1929cf606d8e176f],
               [0x2efd26a5fd1a09db, 0x58d767ad6cb626cd, 0x13a81b95b26c6e05, 0x68fe61078f61832b]),
    comb_point([0x4ad7de2e2d85c2f6, 0xcd552fcb510101a1, 0x638d122b02acdabf, 0x117221e850bfd921],
               [0x08571ee199a99129, 0xebd046d1ba2f03a9, 0x035ed7baa6f8a181, 0x8aabf98d3187c6f3]),
    comb_point([0xaf8e65cae3ab5f4e, 0x8b0b8b897561a69c, 0x37e83aa0b17c1e66, 0xe894d84cf8d80edc],
               [0xf1e465e7ce514e22, 0xc7fa324ca72340ef, 0x08297fcae7370673, 0x4f799682b119ae5e]),
    comb_point([0x014d6bd8f180f206, 0x56640c8b7ab44f55, 0x9a39660d93f9a5b8, 0xcac069e9959b68f1],
               [0x2bf6b65e208d9918, 0xb7e45dfb3f943291, 0xad5770f0d439c712, 0xfec635e17654d805]),
    comb_point([0x37221cd13f031a88, 0xe4d53d2f0b5558d4, 0x2ede8e8fdafc51cd, 0xb587284ca8a883ea],
               [0xfa37674044fa5251, 0x5e5e18f95c5e3528, 0x8af51fac6e10b958, 0x09be79032c429b30]),
    comb_point([0x7a468ba47f29936d, 0xacbbe3657cfb8176, 0xe892c10a4db9cd5d, 0xcb2f29d7a1aade8b],
               [0x3087eef4efffcb14, 0x92a7f3ec2afe8f2e, 0x199d89b8136f29d2, 0x3131604eb4836623]),
    comb_point([0xf5cca5da31b5df76, 0x9431318676a4abc0, 0x5db8e6f71877c7c7, 0x3ce3f5f96031ac99],
               [0x585961d07e7cef80, 0x5ed6e841d424f16a, 0x18289cd056b16a49, 0x8008d03b2e5770fa]),
    comb_point([0xc8c2af64254e39de, 0x783cea738582571c, 0x2f2f55f1a6edd971, 0x7e00cc92c86bf30a],
               [0xa0db735447d7491f, 0xb3eb751ca5b12260, 0x3bc39a23297fb234, 0xd1330c20b8b4bfe4]),
    comb_point([0xfb776af07824d53a, 0x04709096422dea35, 0x6f480b6b5fec3ac7, 0xdb2b1b62e27edda4],
               [0x0bba904cda78b494, 0x37ef59b691a147f7, 0xf880517726a4730a, 0xecc9d79aa8ab368e]),
    comb_point([0x628e05c185a4bd0e, 0xebf7b67800e244e8, 0xf645947b8b176eeb, 0xc92bf8301641ab35],
               [0x7a039c1a21be7a6f, 0x11e4354d2fd4bd92, 0x42552422886fd224, 0xdbf3194cc44ced37]),
    comb_point([0x832da983c56f6b04, 0x7aaa84eb8ef098ae, 0x602e3eefa6a616a2, 0xc2824ddcb7b717a3],
               [0x19f50324ddb0a2e9, 0x04553a285bedfbbd, 0x37ea8b12aa1aee0a, 0xc1844e79945959a1]),
    comb_point([0x5043dea7e0f222c2, 0x309d42ac72e65142, 0x94fe9ddd9216cd30, 0xd6539c7d0f87feec],
               [0x03c5a57c432ac7d7, 0x72692cf0327fda10, 0xec28c85f280698de, 0x2331fb467ec283b1]),
    comb_point([0x651cfdeb43248e67, 0x2c3d72ceee561de8, 0xa48b8f33443dac8b, 0xe6b042fe7991f986],
               [0xd091636de810bcd2, 0xfc1e96aea97416d7, 0x2b6087cb2892694d, 0x0f8ac2459985a628]),
    comb_point([0x54e908747f2326a2, 0xce43dd44fa9e1131, 0x4b2c740cd3d2d948, 0x9b0b126aa86e8b07],
               [0x228ef320b77f5af2, 0x14fc8a01ca07661c, 0x1d72509ed34f1a3a, 0xd169031729d9086e]),
    comb_point([0x13e44acc03c5fe33, 0x13f4374e0105bbc6, 0x0cba5018cb4451b8, 0xa1a38e4afa29a4e1],
               [0x063fb9a8f4403917, 0x7afe108f996ea7f2, 0xec252363f93a1f87, 0xc029c8117e432609]),
    comb_point([0x25080c29486e548e, 0xdaa411327868ab32, 0x46891511d61d1a3a, 0xc87f3f533efc8fac],
               [0x984f613ff3e31393, 0x10bb15f67648f5d2, 0xe4990f2bdefaa440, 0xce647f03dd51c31d]),
    comb_point([0x3161ebdd9c2c0abf, 0x48b7ee7bf497cf35, 0x9233e31d94dd9c97, 0x4aef9a62c5d2988f],
               [0x89a54161a03e6456, 0x9d25e003c1f02b47, 0x8784cdbfc1857782, 0x7928cafd0222b49c]),
    comb_point([0x5a591abdecf4ea23, 0xb2725e8a80bd9b8a, 0xf569679f29ff348b, 0xa28163d36f22536a],
               [0x89e7a8f621c43971, 0x60cbe4a1c4a09567, 0x41046c8f5928b03d, 0x646feda7ef74a95a]),
    comb_point([0x3aef6bc05d75d310, 0xf3e7f03c82476e5c, 0x9dcf3d508419b8a0, 0x221a3885eaf07f07],
               [0x16d533f337bdcb7d, 0xd778066bbb49550d, 0xf6f4540936c2600c, 0x7544396fc1c61709]),
    comb_point([0xf79f556fde08cd42, 0x7d0aba1ee13cadc8, 0x841d9df6d4d81fef, 0x8f7ae1f2602d2043],
               [0x950c4de4b57ee181, 0xfe51e045c55cf490, 0xdb60b56a1efdd0a8, 0x276bccb3bf0fa497]),
    comb_point([0x7926625b19e5a603, 0xf1b98e93e1bf712b, 0x933ecb52e33abecc, 0x9ebfc506f826619b],
               [0xd2965f67a1692c52, 0x8ac4012dfc4f9564, 0xa8af57036739f003, 0x7dd2282dbc715e13]),
    comb_point([0x3ec01587cf2bb490, 0x5346082c3f1ea428, 0xf2c679e26739e506, 0xeab710d6930c28e4],
               [0xe9947ff8e043249a, 0x63640678ad54b0e6, 0x8cde42591854eaaf, 0xf1feeaec6b25bdce]),
    comb_point([0x49f7e8991bdd2aa2, 0x88fd273534e3cae9, 0x5ac0510182cbfea2, 0x324c9d414cf84578],
               [0xa242311719f13061, 0x69d67cf15f3b9932, 0x32ecdb3cdde2dfad, 0x2f74d995b916f7a6]),
    comb_point([0x35f7ed423d14bc68, 0x32f63a0445574f91, 0xd04108335e8801e7, 0x63b6f13c1c9c1462],
               [0x180dcbcd9dc7201f, 0xa07b5b2c360350df, 0x2582b2774236f5cc, 0x90163924a7ab06b9]),
    comb_point([0x35e751b50767cdf2, 0x808372e69d8e2838, 0xcbad6b30646914d7, 0x4eeeb1de6c7b3cab],
               [0x3ef3af968c965004, 0xd162290fd281920b, 0x4626c313181f811b, 0x5fa42f4fbe61dd14]),
    comb_point([0x1f5a9c53a185e98e, 0x13c28277ea9e83c3, 0xb566e4c0b693a226, 0x2ea3f1c001533e9e],
               [0xb4dbcc336215a21f, 0x7df608c3cb4e98f0, 0x677df928b4dd95dd, 0x4c1d7142eeed2934]),
    comb_point([0x30bf236c86a2ee12, 0x74d5a12705ecb4c0, 0x9ef43b0f1601cca9, 0xbe1b1bf9ac4dd202],
               [0x84943e4717b6f93b, 0x6f789757cd5214b3, 0x5e0db1a97f313dfa, 0x0515efacece0b72b]),
    comb_point([0x433a677ca78c3f8b, 0x204a9feaf376a9c1, 0xb6bfbea444baeadf, 0x5a43cafd2b48a3f4],
               [0xe25a7d0b67d1d226, 0xb2115844f6837985, 0x8c9cca3ed87c2b88, 0xecd4bc73894772e1]),
    comb_point([0x368abec6783490e7, 0xf26da8bdd925c359, 0xf9b643e5e8fb0679, 0x7ab803d9b555d175],
               [0x1b4059994ebae595, 0x07fbbf25ba417a49, 0x02d7cf1cc617957a, 0x79070ea5565c1fbb]),
    comb_point([0x70194602d9b028fa, 0x9c49969d9ff06760, 0xbf4add816ad27b42, 0x7d1f226d8651524e],
               [0xb0779b40eecd7724, 0xd356077265938707, 0xe3a61fe5d054b903, 0xd6f5a3433365136b]),
    comb_point([0x25c87c76d2970fcf, 0x7c9f60a04d5546a8, 0x7dab072f8dd8bf8c, 0x3d10907ce8ff9f28],
               [0xb08d6d0e34bb2a29, 0x5dfd4907c3fcfdaf, 0xe4a2d4b147123ba6, 0x6e9eef0b42de6d8d]),
    comb_point([0x81255af5cbb55f9d, 0x579f27055328d39e, 0xa7bfc9173e5ae663, 0xe9b55d57a1246e42],
               [0x240ecd9475629188, 0x8748d297457bd3c0, 0x50e215ef373c361c, 0xaf9d8a8618c967b9]),
    comb_point([0x79a041040a04143f, 0x03f7410fc700c616, 0xe8f2a3f291108ca6, 0xa26d67e8f5ac679a],
               [0xa15dbfebb83fbd9a, 0xf1aaebd23a0b5587, 0x639a97ddce0ead44, 0xf253b00c71d12ee0]),
    comb_point([0x7baecf4c9e35e57c, 0x522e26a16786e3a5, 0x600b538b8af829a2, 0x19fa80b72c6de44a],
               [0xb52364f0aaf0ff52, 0x2e4bc21a6714587f, 0x401377a3c245967d, 0x65178766a23cf3eb]),
    comb_point([0xc1c81838923ac000, 0x42021f02c4abc0ee, 0xcde3bc9a47132a20, 0x6f52a864c69f55fb],
               [0x0bdfd3e4df89ff6a, 0x244c943bc88bd74e, 0x649e0b532612998b, 0xce61ebc3d3413d4a]),
    comb_point([0xe31629042cba5a90, 0xa72710aedb6c224e, 0x51831390d87e44db, 0xa687dc9848fe2ef3],
               [0x857e985516a21ca9, 0xe3428d8ec9a7bc12, 0x16d3bcd012b044a2, 0xe6fa0c69e85f6704]),
    comb_point([0xe4cca34b8fd42692, 0xc86d49a6e15f3acf, 0xbfe1f263a6b18392, 0x0664c933dcd266f6],
               [0x86738cf519399d88, 0x1cbcc8c3749ce6bc, 0x28171f7bc773b884, 0x306fc95701acf19e]),
    comb_point([0x0da7a737afb6a419, 0x637fc26a195fbc40, 0x0fc8f8769c64e8e7, 0x2a68579b208c0626],
               [0x82e823108628abc3, 0xe4e09313ab23ae94, 0x66bf9adbe5155cf1, 0x17909f6ce8a2dd0c]),
    comb_point([0x767c359643d7ad31, 0x7ba3a1aa49ccef62, 0x5261c3160242bf5a, 0x85f452199eb82dfb],
               [0x554cb38237b42e47, 0xc9771ec14cf66133, 0xde70617a153905a3, 0x2cab26fcbc61316d]),
    comb_point([0x7dababbd75c10315, 0x9a8fbe88a48df64e, 0x2b076fe5e1b8f912, 0x1a530ce9ccbd50dc],
               [0x47361ab76647d225, 0xf84e73be4d636a15, 0xd58fcaaf5904a2fa, 0x73747d4b38523a19]),
    comb_point([0x6e6b0fb8b6864cc0, 0x5d8a0027ab3b623c, 0x5e6665389a1cfc9c, 0x816b19de521e4ff3],
               [0x56709ad00bc447f8, 0x1d46cb1c8f1464d7, 0x49cef820a949873d, 0x02804692d9d3e65f]),
    comb_point([0x1ae0ea28ad8b5976, 0x4e9ad48e869458fb, 0xe9437ec996cfedf8, 0xa4f924a22afa74d9],
               [0xcb5b1845aaf797c0, 0xe5d6dd0eba6f557f, 0xa1496fe691dc2e7c, 0xad31edac8c179fc7]),
    comb_point([0xf9c5e9de44b06ed7, 0x6ce7c4f74a597159, 0xd02ec441833accb5, 0xf30205996296e8fc],
               [0x7df6c5c6c2afbe06, 0xff429dda9c849b09, 0x42170166f5dd78d6, 0x2403ea21830c388b]),
] };

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::vec;
    use proptest::prelude::*;

    fn hex_32(s: &str) -> [u8; 32] {
        assert_eq!(s.len(), 64);
        let mut out = [0u8; 32];
        for (i, byte) in out.iter_mut().enumerate() {
            *byte = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).expect("valid hex literal");
        }
        out
    }

    #[test]
    fn curve_constants_match_published_hex() {
        assert_eq!(
            CURVE_B,
            U256::from_be_bytes(&hex_32(
                "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
            ))
        );
        assert_eq!(
            GEN_X,
            U256::from_be_bytes(&hex_32(
                "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
            ))
        );
        assert_eq!(
            GEN_Y,
            U256::from_be_bytes(&hex_32(
                "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
            ))
        );
    }

    fn gx_times(k: u64) -> AffinePoint {
        AffinePoint::generator()
            .to_jacobian()
            .mul_scalar(&U256::from_u64(k))
            .to_affine()
    }

    #[test]
    fn generator_is_on_curve() {
        assert!(AffinePoint::generator().is_on_curve());
    }

    #[test]
    fn small_multiples_are_on_curve() {
        for k in 1..=20u64 {
            assert!(gx_times(k).is_on_curve(), "k = {k}");
        }
    }

    #[test]
    fn two_g_known_value() {
        // 2G, published test vector for P-256.
        let p2 = gx_times(2);
        let AffinePoint::Point { x, .. } = p2 else {
            panic!("2G is not the identity");
        };
        assert_eq!(
            x.to_u256().to_be_bytes().to_vec(),
            hex_32("7cf27b188d034f7e8a52380304b51ac3c08969e277f21b35a60b48fc47669978").to_vec()
        );
    }

    #[test]
    fn order_times_generator_is_identity() {
        let ng = AffinePoint::generator().to_jacobian().mul_scalar(&order());
        assert!(ng.is_identity());
    }

    #[test]
    fn n_minus_1_g_is_minus_g() {
        let (n_minus_1, _) = order().sbb(&U256::ONE);
        let p = AffinePoint::generator()
            .to_jacobian()
            .mul_scalar(&n_minus_1)
            .to_affine();
        let AffinePoint::Point { x, y } = p else {
            panic!("(n-1)G is finite");
        };
        let AffinePoint::Point { x: gx, y: gy } = AffinePoint::generator() else {
            unreachable!()
        };
        assert_eq!(x, gx);
        assert_eq!(y, gy.neg());
    }

    #[test]
    fn addition_agrees_with_doubling() {
        let g = AffinePoint::generator().to_jacobian();
        let sum = g.add(&g).to_affine();
        let dbl = g.double().to_affine();
        assert_eq!(sum, dbl);
    }

    #[test]
    fn addition_is_associative_on_samples() {
        let g = AffinePoint::generator().to_jacobian();
        let a = g.mul_scalar(&U256::from_u64(3));
        let b = g.mul_scalar(&U256::from_u64(5));
        let c = g.mul_scalar(&U256::from_u64(11));
        let left = a.add(&b).add(&c).to_affine();
        let right = a.add(&b.add(&c)).to_affine();
        assert_eq!(left, right);
    }

    #[test]
    fn scalar_mul_distributes() {
        // (a + b)G == aG + bG
        let g = AffinePoint::generator().to_jacobian();
        let a = U256::from_u64(123_456);
        let b = U256::from_u64(654_321);
        let (sum, _) = a.adc(&b);
        let lhs = g.mul_scalar(&sum).to_affine();
        let rhs = g.mul_scalar(&a).add(&g.mul_scalar(&b)).to_affine();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn identity_is_absorbing() {
        let g = AffinePoint::generator().to_jacobian();
        let id = JacobianPoint::identity();
        assert_eq!(g.add(&id).to_affine(), g.to_affine());
        assert_eq!(id.add(&g).to_affine(), g.to_affine());
        assert!(id.double().is_identity());
        assert!(id.mul_scalar(&U256::from_u64(42)).is_identity());
    }

    #[test]
    fn inverse_points_cancel() {
        let g = AffinePoint::generator().to_jacobian();
        let AffinePoint::Point { x, y } = g.to_affine() else {
            unreachable!()
        };
        let neg_g = AffinePoint::Point { x, y: y.neg() }.to_jacobian();
        assert!(g.add(&neg_g).is_identity());
    }

    #[test]
    fn sec1_round_trip() {
        let p = gx_times(7);
        let bytes = p.to_sec1_bytes();
        assert_eq!(AffinePoint::from_sec1_bytes(&bytes).unwrap(), p);
    }

    #[test]
    fn sec1_rejects_garbage() {
        assert_eq!(
            AffinePoint::from_sec1_bytes(&[0u8; 65]),
            Err(PointError::Encoding)
        );
        let mut bytes = gx_times(3).to_sec1_bytes();
        bytes[40] ^= 1; // corrupt y
        assert_eq!(
            AffinePoint::from_sec1_bytes(&bytes),
            Err(PointError::NotOnCurve)
        );
        assert_eq!(
            AffinePoint::from_sec1_bytes(&bytes[..64]),
            Err(PointError::Encoding)
        );
    }

    #[test]
    fn compressed_sec1_round_trip() {
        for k in [1u64, 2, 3, 7, 99, 1234] {
            let p = gx_times(k);
            let compressed = p.to_sec1_compressed();
            let parsed = AffinePoint::from_sec1_compressed(&compressed).unwrap();
            assert_eq!(parsed, p, "k = {k}");
        }
    }

    #[test]
    fn compressed_prefix_selects_y_parity() {
        let p = gx_times(5);
        let mut bytes = p.to_sec1_compressed();
        bytes[0] ^= 0x01; // flip parity: the *other* root
        let flipped = AffinePoint::from_sec1_compressed(&bytes).unwrap();
        let AffinePoint::Point { x, y } = p else {
            unreachable!()
        };
        let AffinePoint::Point { x: fx, y: fy } = flipped else {
            unreachable!()
        };
        assert_eq!(x, fx);
        assert_eq!(fy, y.neg());
        assert!(flipped.is_on_curve());
    }

    #[test]
    fn compressed_rejects_invalid_input() {
        assert_eq!(
            AffinePoint::from_sec1_compressed(&[0x04; 33]),
            Err(PointError::Encoding)
        );
        assert_eq!(
            AffinePoint::from_sec1_compressed(&[0x02; 32]),
            Err(PointError::Encoding)
        );
        // x with no point on the curve (x = 0 ⇒ y² = b, b is a QR? test
        // dynamically: try a few x until one fails).
        let mut rejected = false;
        for x0 in 0u8..8 {
            let mut bytes = [0u8; 33];
            bytes[0] = 0x02;
            bytes[32] = x0;
            if AffinePoint::from_sec1_compressed(&bytes) == Err(PointError::NotOnCurve) {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "some small x must be a non-residue");
    }

    #[test]
    fn double_scalar_mul_matches_separate() {
        let q = gx_times(99);
        let a = U256::from_u64(7777);
        let b = U256::from_u64(3333);
        let fused = double_scalar_mul(&a, &b, &q).to_affine();
        let g = AffinePoint::generator().to_jacobian();
        let separate = g
            .mul_scalar(&a)
            .add(&q.to_jacobian().mul_scalar(&b))
            .to_affine();
        assert_eq!(fused, separate);
    }

    /// The bit-by-bit Shamir ladder `double_scalar_mul` replaced: one
    /// doubling per bit and a 4-entry table of `{G, Q, G + Q}`. It is the
    /// oracle the comb and wNAF path is compared with.
    fn double_scalar_mul_reference(a: &U256, b: &U256, q: &AffinePoint) -> JacobianPoint {
        let g = AffinePoint::generator().to_jacobian();
        let q = q.to_jacobian();
        let table = [None, Some(g), Some(q), Some(g.add(&q))];
        let bits = a.bits().max(b.bits());
        let mut acc = JacobianPoint::identity();
        for i in (0..bits).rev() {
            acc = acc.double();
            let idx = (usize::from(b.bit(i)) << 1) | usize::from(a.bit(i));
            if let Some(addend) = &table[idx] {
                acc = acc.add(addend);
            }
        }
        acc
    }

    fn n_minus(k: u64) -> U256 {
        order().sbb(&U256::from_u64(k)).0
    }

    /// Uniform scalars in `[lo, n)`.
    fn random_scalar(lo: u64) -> impl Strategy<Value = U256> {
        proptest::array::uniform4(any::<u64>()).prop_map(move |limbs| {
            let offset = U256::from_limbs(limbs).reduce_mod(&n_minus(lo));
            offset.adc(&U256::from_u64(lo)).0
        })
    }

    /// Scalars below `n`: the edges 0, 1 and `n − 1` as often as random
    /// ones.
    fn scalar() -> impl Strategy<Value = U256> {
        prop_oneof![
            Just(U256::ZERO),
            Just(U256::ONE),
            Just(n_minus(1)),
            random_scalar(0),
            random_scalar(0),
            random_scalar(0),
        ]
    }

    /// Non-zero discrete logs `k` of the public point `Q = k·G`: `Q = G`,
    /// `−G`, `2G`, or random.
    fn discrete_log() -> impl Strategy<Value = U256> {
        prop_oneof![
            Just(U256::ONE),
            Just(n_minus(1)),
            Just(U256::from_u64(2)),
            random_scalar(1),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn double_scalar_mul_matches_reference(a in scalar(), b in scalar(), k in discrete_log()) {
            let q = AffinePoint::generator().to_jacobian().mul_scalar(&k).to_affine();
            let q_comb = Comb::new(&q);
            for (a, b) in [(a, b), (a, a)] {
                let expected = double_scalar_mul_reference(&a, &b, &q).to_affine();
                prop_assert_eq!(double_scalar_mul(&a, &b, &q).to_affine(), expected);
                prop_assert_eq!(double_comb_mul(&a, &b, &q_comb).to_affine(), expected);
            }
            // b' = −a/k makes a·G + b'·Q the point at infinity.
            let k_inv = Scalar::from_u256(&k).invert().expect("k is non-zero");
            let cancel = Scalar::from_u256(&a).neg().mul(&k_inv).to_u256();
            prop_assert!(double_scalar_mul(&a, &cancel, &q).is_identity());
            prop_assert!(double_comb_mul(&a, &cancel, &q_comb).is_identity());
            prop_assert!(double_scalar_mul_reference(&a, &cancel, &q).is_identity());
            let g = AffinePoint::generator();
            let minus_a = Scalar::from_u256(&a).neg().to_u256();
            prop_assert!(double_scalar_mul(&a, &minus_a, &g).is_identity());
            prop_assert!(double_comb_mul(&a, &minus_a, &G_COMB).is_identity());
        }

        #[test]
        fn mul_base_matches_mul_scalar(k in scalar()) {
            let g = AffinePoint::generator().to_jacobian();
            prop_assert_eq!(mul_base(&k).to_affine(), g.mul_scalar(&k).to_affine());
        }
    }

    #[test]
    fn scalars_above_the_order_match_the_reference() {
        // The public entry points take any 256-bit scalar; 2^256 − 1 ends
        // its wNAF with the carry digit at position 256.
        let g = AffinePoint::generator();
        let q = gx_times(5);
        let q_comb = Comb::new(&q);
        for k in [
            order(),
            n_minus(2),
            U256::MAX,
            U256::from_limbs([0, 0, 0, 1 << 63]),
        ] {
            assert_eq!(
                mul_base(&k).to_affine(),
                g.to_jacobian().mul_scalar(&k).to_affine(),
                "k = {k}"
            );
            for (a, b) in [(k, k), (U256::ONE, k), (k, U256::ZERO)] {
                let expected = double_scalar_mul_reference(&a, &b, &q).to_affine();
                assert_eq!(
                    double_scalar_mul(&a, &b, &q).to_affine(),
                    expected,
                    "a = {a}, b = {b}"
                );
                assert_eq!(
                    double_comb_mul(&a, &b, &q_comb).to_affine(),
                    expected,
                    "comb: a = {a}, b = {b}"
                );
            }
        }
        assert!(double_scalar_mul(&U256::ZERO, &U256::ONE, &AffinePoint::Identity).is_identity());
    }

    #[test]
    #[should_panic(expected = "the identity has no comb table")]
    fn the_identity_has_no_comb_table() {
        let _ = Comb::new(&AffinePoint::Identity);
    }

    #[test]
    fn wnaf5_is_a_valid_recoding() {
        let scalars = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(16),
            U256::from_u64(31),
            U256::from_u64(0xdead_beef),
            n_minus(1),
            U256::MAX,
        ];
        for k in scalars {
            let naf = wnaf5(&k);
            let mut last_nonzero: Option<usize> = None;
            let mut sum = U256::ZERO;
            for (i, &d) in naf.iter().enumerate().rev() {
                assert!(
                    d == 0 || (d % 2 != 0 && d.abs() <= 15),
                    "k = {k}: digit {d}"
                );
                if d != 0 {
                    if let Some(j) = last_nonzero {
                        assert!(j - i >= 5, "k = {k}: digits at {j} and {i}");
                    }
                    last_nonzero = Some(i);
                }
                // Horner, modulo 2^256.
                sum = sum.adc(&sum).0;
                let magnitude = U256::from_u64(u64::from(d.unsigned_abs()));
                sum = if d < 0 {
                    sum.sbb(&magnitude).0
                } else {
                    sum.adc(&magnitude).0
                };
            }
            assert_eq!(sum, k);
        }
    }

    #[test]
    fn comb_table_matches_generator() {
        let mut teeth = [AffinePoint::generator().to_jacobian(); COMB_TEETH];
        for j in 1..COMB_TEETH {
            teeth[j] = (0..COMB_SPACING).fold(teeth[j - 1], |p, _| p.double());
        }
        assert_eq!(G_COMB.points.len(), 63);
        assert_eq!(core::mem::size_of_val(&G_COMB), 4032);
        let built = Comb::new(&AffinePoint::generator());
        for (index, entry) in G_COMB.points.iter().enumerate() {
            assert_eq!(built.points[index], *entry, "Comb::new(G)[{index}]");
            let m = index + 1;
            let sum = (0..COMB_TEETH)
                .filter(|j| m >> j & 1 == 1)
                .fold(JacobianPoint::identity(), |acc, j| acc.add(&teeth[j]));
            assert_eq!(
                sum.to_affine(),
                AffinePoint::Point {
                    x: entry.x,
                    y: entry.y
                },
                "COMB[{index}]"
            );
        }
    }
}
