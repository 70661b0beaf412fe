//! Fixed-width 256-bit unsigned integer arithmetic.
//!
//! [`U256`] is the raw-integer layer underneath the Montgomery field
//! arithmetic in [`crate::mont`]. Limbs are `u64`, least-significant first.

/// A 256-bit unsigned integer stored as four little-endian `u64` limbs.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct U256(pub [u64; 4]);

/// Adds with carry: returns `(sum, carry_out)`.
#[inline]
pub const fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + b as u128 + carry as u128;
    (t as u64, (t >> 64) as u64)
}

/// Subtracts with borrow: returns `(diff, borrow_out)` where borrow is 0 or 1.
#[inline]
pub const fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let t = (a as u128).wrapping_sub(b as u128 + borrow as u128);
    (t as u64, ((t >> 64) as u64) & 1)
}

/// Multiply-accumulate: `a + b * c + carry`, returns `(low, high)`.
#[inline]
pub const fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let t = a as u128 + (b as u128) * (c as u128) + carry as u128;
    (t as u64, (t >> 64) as u64)
}

impl U256 {
    /// The value 0.
    pub const ZERO: Self = Self([0; 4]);
    /// The value 1.
    pub const ONE: Self = Self([1, 0, 0, 0]);
    /// The maximum representable value, `2^256 - 1`.
    pub const MAX: Self = Self([u64::MAX; 4]);

    /// Constructs from little-endian limbs.
    #[must_use]
    pub const fn from_limbs(limbs: [u64; 4]) -> Self {
        Self(limbs)
    }

    /// Constructs from a small integer.
    #[must_use]
    pub const fn from_u64(v: u64) -> Self {
        Self([v, 0, 0, 0])
    }

    /// Parses a big-endian 32-byte array.
    #[must_use]
    pub fn from_be_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut word = [0u8; 8];
            word.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
            limbs[3 - i] = u64::from_be_bytes(word);
        }
        Self(limbs)
    }

    /// Serializes to a big-endian 32-byte array.
    #[must_use]
    pub fn to_be_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..(i + 1) * 8].copy_from_slice(&self.0[3 - i].to_be_bytes());
        }
        out
    }

    /// Returns `true` if the value is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.0[0] == 0 && self.0[1] == 0 && self.0[2] == 0 && self.0[3] == 0
    }

    /// Returns bit `i` (0 = least significant).
    #[must_use]
    pub const fn bit(&self, i: usize) -> bool {
        if i >= 256 {
            return false;
        }
        (self.0[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Number of significant bits (0 for zero).
    #[must_use]
    pub fn bits(&self) -> usize {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return i * 64 + (64 - self.0[i].leading_zeros() as usize);
            }
        }
        0
    }

    /// Wrapping addition, returning `(sum, carry)`.
    #[must_use]
    pub const fn adc(&self, rhs: &Self) -> (Self, u64) {
        let (l0, c) = adc(self.0[0], rhs.0[0], 0);
        let (l1, c) = adc(self.0[1], rhs.0[1], c);
        let (l2, c) = adc(self.0[2], rhs.0[2], c);
        let (l3, c) = adc(self.0[3], rhs.0[3], c);
        (Self([l0, l1, l2, l3]), c)
    }

    /// Wrapping subtraction, returning `(difference, borrow)`.
    #[must_use]
    pub const fn sbb(&self, rhs: &Self) -> (Self, u64) {
        let (l0, b) = sbb(self.0[0], rhs.0[0], 0);
        let (l1, b) = sbb(self.0[1], rhs.0[1], b);
        let (l2, b) = sbb(self.0[2], rhs.0[2], b);
        let (l3, b) = sbb(self.0[3], rhs.0[3], b);
        (Self([l0, l1, l2, l3]), b)
    }

    /// Full 256×256→512-bit product, little-endian limbs.
    #[must_use]
    pub const fn mul_wide(&self, rhs: &Self) -> [u64; 8] {
        let mut out = [0u64; 8];
        let mut i = 0;
        while i < 4 {
            let mut carry = 0u64;
            let mut j = 0;
            while j < 4 {
                let (lo, hi) = mac(out[i + j], self.0[i], rhs.0[j], carry);
                out[i + j] = lo;
                carry = hi;
                j += 1;
            }
            out[i + 4] = carry;
            i += 1;
        }
        out
    }

    /// Shifts right by one bit.
    #[must_use]
    pub const fn shr1(&self) -> Self {
        Self([
            (self.0[0] >> 1) | (self.0[1] << 63),
            (self.0[1] >> 1) | (self.0[2] << 63),
            (self.0[2] >> 1) | (self.0[3] << 63),
            self.0[3] >> 1,
        ])
    }

    /// `self mod m`, by repeated conditional subtraction after bit-aligned
    /// shifting. `m` must be non-zero. Only used on cold paths (reduction of
    /// hash outputs and random scalars); field arithmetic uses Montgomery.
    #[must_use]
    pub fn reduce_mod(&self, m: &Self) -> Self {
        assert!(!m.is_zero(), "modulus must be non-zero");
        let mut v = *self;
        if v.cmp_raw(m) == core::cmp::Ordering::Less {
            return v;
        }
        let shift = v.bits() - m.bits();
        // m << shift may exceed 256 bits only when shift pushes bits out;
        // track the shifted modulus as (overflow_bit, U256).
        for s in (0..=shift).rev() {
            let (shifted, overflow) = m.shl_checked(s);
            if !overflow && v.cmp_raw(&shifted) != core::cmp::Ordering::Less {
                let (diff, borrow) = v.sbb(&shifted);
                debug_assert_eq!(borrow, 0);
                v = diff;
            }
        }
        v
    }

    /// Shifts left by `s` bits, reporting whether any set bit was shifted out.
    #[must_use]
    fn shl_checked(&self, s: usize) -> (Self, bool) {
        if s == 0 {
            return (*self, false);
        }
        if s >= 256 {
            return (Self::ZERO, !self.is_zero());
        }
        let overflow = self.bits() + s > 256;
        let limb_shift = s / 64;
        let bit_shift = s % 64;
        let mut out = [0u64; 4];
        for i in (limb_shift..4).rev() {
            let lo = self.0[i - limb_shift] << bit_shift;
            let hi = if bit_shift > 0 && i > limb_shift {
                self.0[i - limb_shift - 1] >> (64 - bit_shift)
            } else {
                0
            };
            out[i] = lo | hi;
        }
        (Self(out), overflow)
    }

    /// Constant-free comparison helper (not constant-time; this crate models
    /// functionality, not side-channel resistance — see crate docs).
    #[must_use]
    pub fn cmp_raw(&self, rhs: &Self) -> core::cmp::Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&rhs.0[i]) {
                core::cmp::Ordering::Equal => continue,
                other => return other,
            }
        }
        core::cmp::Ordering::Equal
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.cmp_raw(other)
    }
}

impl core::fmt::Debug for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "U256(0x")?;
        for byte in self.to_be_bytes() {
            write!(f, "{byte:02x}")?;
        }
        write!(f, ")")
    }
}

impl core::fmt::Display for U256 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "0x")?;
        for byte in self.to_be_bytes() {
            write!(f, "{byte:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alloc::format;

    #[test]
    fn byte_round_trip() {
        let v = U256::from_limbs([1, 2, 3, 0xdead_beef_0000_0001]);
        assert_eq!(U256::from_be_bytes(&v.to_be_bytes()), v);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = U256::from_limbs([u64::MAX, 5, 0, 7]);
        let b = U256::from_limbs([3, u64::MAX, 1, 0]);
        let (sum, carry) = a.adc(&b);
        assert_eq!(carry, 0);
        let (diff, borrow) = sum.sbb(&b);
        assert_eq!(borrow, 0);
        assert_eq!(diff, a);
    }

    #[test]
    fn subtraction_borrows() {
        let (diff, borrow) = U256::ZERO.sbb(&U256::ONE);
        assert_eq!(borrow, 1);
        assert_eq!(diff, U256::MAX);
    }

    #[test]
    fn addition_carries() {
        let (sum, carry) = U256::MAX.adc(&U256::ONE);
        assert_eq!(carry, 1);
        assert_eq!(sum, U256::ZERO);
    }

    #[test]
    fn mul_wide_small() {
        let a = U256::from_u64(u64::MAX);
        let wide = a.mul_wide(&a);
        // (2^64 - 1)^2 = 2^128 - 2^65 + 1
        assert_eq!(wide[0], 1);
        assert_eq!(wide[1], u64::MAX - 1);
        assert_eq!(&wide[2..], &[0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn bits_and_bit() {
        assert_eq!(U256::ZERO.bits(), 0);
        assert_eq!(U256::ONE.bits(), 1);
        assert_eq!(U256::MAX.bits(), 256);
        let v = U256::from_limbs([0, 1, 0, 0]);
        assert_eq!(v.bits(), 65);
        assert!(v.bit(64));
        assert!(!v.bit(63));
        assert!(!v.bit(300));
    }

    #[test]
    fn reduce_mod_basics() {
        let m = U256::from_u64(97);
        assert_eq!(
            U256::from_u64(1000).reduce_mod(&m),
            U256::from_u64(1000 % 97)
        );
        assert_eq!(U256::from_u64(96).reduce_mod(&m), U256::from_u64(96));
        assert_eq!(U256::from_u64(97).reduce_mod(&m), U256::ZERO);
        assert_eq!(U256::MAX.reduce_mod(&U256::ONE), U256::ZERO);
    }

    #[test]
    fn reduce_mod_large_modulus() {
        // modulus with high bit set: value < 2m, so one subtraction.
        let m = U256::from_limbs([5, 0, 0, 1 << 63]);
        let (v, carry) = m.adc(&U256::from_u64(123));
        assert_eq!(carry, 0);
        assert_eq!(v.reduce_mod(&m), U256::from_u64(123));
    }

    #[test]
    fn shr1_halves() {
        let v = U256::from_limbs([0, 0, 0, 1]);
        assert_eq!(v.shr1(), U256::from_limbs([0, 0, 1 << 63, 0]));
    }

    #[test]
    fn ordering_is_numeric() {
        let small = U256::from_limbs([u64::MAX, u64::MAX, u64::MAX, 0]);
        let big = U256::from_limbs([0, 0, 0, 1]);
        assert!(small < big);
        assert!(big > small);
        assert_eq!(big.cmp(&big), core::cmp::Ordering::Equal);
    }

    #[test]
    fn display_formats_hex() {
        assert_eq!(
            format!("{}", U256::from_u64(0xabcd)),
            format!("0x{}{:04x}", "0".repeat(60), 0xabcd)
        );
    }
}
