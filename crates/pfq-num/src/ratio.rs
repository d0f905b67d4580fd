//! Exact rational numbers — the probability type of the whole workspace.
//!
//! A [`Ratio`] is always kept in canonical form: the denominator is
//! strictly positive, the fraction is fully reduced, and zero is `0/1`.
//! Canonical form makes `Eq`/`Hash` structural and `Ord` a true total
//! order, so rationals can key `BTreeMap`s of possible worlds.
//!
//! # Two representations
//!
//! A reduced fraction `num/den` with `|num| ≤ i64::MAX` and
//! `den ≤ u64::MAX` is stored inline as a machine-word pair (*small*);
//! every other value is a boxed [`BigInt`]/[`BigUint`] pair (*big*). The
//! rule is exact in both directions: every constructor and every
//! arithmetic result is demoted to the small form when it fits, so the
//! representation is itself canonical. Operations on two small values
//! run in native `u64`/`i128`/`u128` arithmetic and never allocate; when
//! an intermediate overflows, or either operand is big, the operation
//! runs on the big-integer code, which is the only big path.

use crate::biguint::{gcd_u128, gcd_u64};
use crate::{BigInt, BigUint, Sign};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// An exact rational number `num/den` in canonical (reduced) form.
///
/// Values whose reduced numerator magnitude fits `i64::MAX` and whose
/// denominator fits a `u64` are stored inline, with no allocation;
/// larger values promote to big integers and demote again as soon as a
/// result fits (see the [module docs](self)).
///
/// ```
/// use pfq_num::Ratio;
/// let p = Ratio::new(1, 2).pow(100);          // 1/2^100, exactly
/// let sum: Ratio = std::iter::repeat(p.clone()).take(1 << 20).sum();
/// assert_eq!(sum, Ratio::new(1, 2).pow(80));  // no rounding anywhere
/// assert_eq!(Ratio::new(2, 3).to_decimal(5), "0.66667");
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Ratio(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// Invariant: `num != i64::MIN`, `den ≥ 1`, `gcd(|num|, den) == 1`;
    /// zero is `0/1`.
    Small { num: i64, den: u64 },
    /// Invariant: reduced, and `|num| > i64::MAX` or `den > u64::MAX`.
    Big(Box<BigRatio>),
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct BigRatio {
    num: BigInt,
    den: BigUint,
}

impl Ratio {
    /// The value 0.
    pub fn zero() -> Self {
        Ratio(Repr::Small { num: 0, den: 1 })
    }

    /// The value 1.
    pub fn one() -> Self {
        Ratio(Repr::Small { num: 1, den: 1 })
    }

    /// Builds `num/den` from machine integers; panics if `den == 0`.
    pub fn new(num: i64, den: i64) -> Self {
        assert!(den != 0, "zero denominator");
        let (n, d) = (num.unsigned_abs(), den.unsigned_abs());
        let g = gcd_u64(n, d);
        Ratio::from_reduced((num < 0) != (den < 0), (n / g).into(), (d / g).into())
    }

    /// Builds `num/den` from big integers, normalizing; panics if `den == 0`.
    pub fn from_parts(num: BigInt, den: BigUint) -> Self {
        assert!(!den.is_zero(), "zero denominator");
        if let (Some(n), Some(d)) = (num.magnitude().to_u128(), den.to_u128()) {
            let g = gcd_u128(n, d);
            return Ratio::from_reduced(num.is_negative(), n / g, d / g);
        }
        if num.is_zero() {
            return Ratio::zero();
        }
        let g = num.magnitude().gcd(&den);
        if g.is_one() {
            return Ratio::from_big_reduced(num, den);
        }
        let (nm, _) = num.magnitude().div_rem(&g);
        let (nd, _) = den.div_rem(&g);
        Ratio::from_big_reduced(BigInt::from_sign_mag(num.sign(), nm), nd)
    }

    /// The integer `v` as a rational.
    pub fn from_integer(v: i64) -> Self {
        Ratio::from_reduced(v < 0, v.unsigned_abs().into(), 1)
    }

    /// The canonical value `±num/den` of a fraction already in lowest
    /// terms.
    fn from_reduced(negative: bool, num: u128, den: u128) -> Ratio {
        if num == 0 {
            return Ratio::zero();
        }
        Ratio::try_small(negative, num, den).unwrap_or_else(|| {
            let sign = if negative {
                Sign::Negative
            } else {
                Sign::Positive
            };
            Ratio(Repr::Big(Box::new(BigRatio {
                num: BigInt::from_sign_mag(sign, BigUint::from(num)),
                den: BigUint::from(den),
            })))
        })
    }

    /// The canonical value of a big fraction already in lowest terms:
    /// demoted to the small form when it fits.
    fn from_big_reduced(num: BigInt, den: BigUint) -> Ratio {
        let small = match (num.magnitude().to_u128(), den.to_u128()) {
            (Some(n), Some(d)) => Ratio::try_small(num.is_negative(), n, d),
            _ => None,
        };
        small.unwrap_or_else(|| Ratio(Repr::Big(Box::new(BigRatio { num, den }))))
    }

    /// The small form of the reduced `±num/den`, or `None` when
    /// `num > i64::MAX` or `den > u64::MAX`: the one place the promotion
    /// rule is decided.
    fn try_small(negative: bool, num: u128, den: u128) -> Option<Ratio> {
        let (num, den) = (i64::try_from(num).ok()?, u64::try_from(den).ok()?);
        Some(Ratio(Repr::Small {
            num: if negative { -num } else { num },
            den,
        }))
    }

    /// The value as a big-integer pair, borrowed when it already is one.
    fn big(&self) -> Cow<'_, BigRatio> {
        match &self.0 {
            Repr::Small { num, den } => Cow::Owned(BigRatio {
                num: BigInt::from(*num),
                den: BigUint::from(*den),
            }),
            Repr::Big(b) => Cow::Borrowed(b),
        }
    }

    /// `(numerator, denominator)` when the value has the small form.
    pub(crate) fn small_parts(&self) -> Option<(i64, u64)> {
        match self.0 {
            Repr::Small { num, den } => Some((num, den)),
            Repr::Big(_) => None,
        }
    }

    /// Numerator (signed, reduced).
    pub fn numer(&self) -> BigInt {
        match &self.0 {
            Repr::Small { num, .. } => BigInt::from(*num),
            Repr::Big(b) => b.num.clone(),
        }
    }

    /// Denominator (positive, reduced).
    pub fn denom(&self) -> BigUint {
        match &self.0 {
            Repr::Small { den, .. } => BigUint::from(*den),
            Repr::Big(b) => b.den.clone(),
        }
    }

    /// Whether the value is 0.
    pub fn is_zero(&self) -> bool {
        matches!(self.0, Repr::Small { num: 0, .. })
    }

    /// Whether the value is 1.
    pub fn is_one(&self) -> bool {
        matches!(self.0, Repr::Small { num: 1, den: 1 })
    }

    /// Whether the value is strictly positive.
    pub fn is_positive(&self) -> bool {
        match &self.0 {
            Repr::Small { num, .. } => *num > 0,
            Repr::Big(b) => b.num.is_positive(),
        }
    }

    /// Whether the value is strictly negative.
    pub fn is_negative(&self) -> bool {
        match &self.0 {
            Repr::Small { num, .. } => *num < 0,
            Repr::Big(b) => b.num.is_negative(),
        }
    }

    /// Whether the value lies in the closed interval `[0, 1]` — i.e. is a
    /// valid probability.
    pub fn is_probability(&self) -> bool {
        !self.is_negative() && *self <= Ratio::one()
    }

    /// `self + other`.
    pub fn add_ref(&self, other: &Ratio) -> Ratio {
        if let (&Repr::Small { num: a, den: b }, &Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            if let Some(sum) = add_small(a, b, c, d) {
                return sum;
            }
        }
        let (x, y) = (self.big(), other.big());
        // a/b + c/d = (a*d + c*b) / (b*d)
        let num = x
            .num
            .mul_ref(&BigInt::from(y.den.clone()))
            .add_ref(&y.num.mul_ref(&BigInt::from(x.den.clone())));
        Ratio::from_parts(num, x.den.mul_ref(&y.den))
    }

    /// `self - other`.
    pub fn sub_ref(&self, other: &Ratio) -> Ratio {
        self.add_ref(&other.neg_ref())
    }

    /// `self * other`.
    pub fn mul_ref(&self, other: &Ratio) -> Ratio {
        if let (&Repr::Small { num: a, den: b }, &Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            return mul_small((a < 0) != (c < 0), a.unsigned_abs(), b, c.unsigned_abs(), d);
        }
        if self.is_zero() || other.is_zero() {
            return Ratio::zero();
        }
        let (x, y) = (self.big(), other.big());
        // Cross-reduce before multiplying to keep intermediates small.
        let g1 = x.num.magnitude().gcd(&y.den);
        let g2 = y.num.magnitude().gcd(&x.den);
        let (n1, _) = x.num.magnitude().div_rem(&g1);
        let (d2, _) = y.den.div_rem(&g1);
        let (n2, _) = y.num.magnitude().div_rem(&g2);
        let (d1, _) = x.den.div_rem(&g2);
        let sign = if x.num.sign() == y.num.sign() {
            Sign::Positive
        } else {
            Sign::Negative
        };
        Ratio::from_big_reduced(
            BigInt::from_sign_mag(sign, n1.mul_ref(&n2)),
            d1.mul_ref(&d2),
        )
    }

    /// `self / other`; panics if `other == 0`.
    pub fn div_ref(&self, other: &Ratio) -> Ratio {
        if let (&Repr::Small { num: a, den: b }, &Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            assert!(c != 0, "division by zero");
            return mul_small((a < 0) != (c < 0), a.unsigned_abs(), b, d, c.unsigned_abs());
        }
        self.mul_ref(&other.recip())
    }

    /// Multiplicative inverse; panics on 0.
    pub fn recip(&self) -> Ratio {
        assert!(!self.is_zero(), "division by zero");
        match &self.0 {
            Repr::Small { num, den } => {
                Ratio::from_reduced(*num < 0, (*den).into(), num.unsigned_abs().into())
            }
            Repr::Big(b) => Ratio::from_big_reduced(
                BigInt::from_sign_mag(b.num.sign(), b.den.clone()),
                b.num.magnitude().clone(),
            ),
        }
    }

    /// Negation.
    pub fn neg_ref(&self) -> Ratio {
        match &self.0 {
            Repr::Small { num, den } => Ratio(Repr::Small {
                num: -num,
                den: *den,
            }),
            Repr::Big(b) => Ratio(Repr::Big(Box::new(BigRatio {
                num: b.num.neg_ref(),
                den: b.den.clone(),
            }))),
        }
    }

    /// Absolute value.
    pub fn abs(&self) -> Ratio {
        match &self.0 {
            Repr::Small { num, den } => Ratio(Repr::Small {
                num: num.abs(),
                den: *den,
            }),
            Repr::Big(b) => Ratio(Repr::Big(Box::new(BigRatio {
                num: b.num.abs(),
                den: b.den.clone(),
            }))),
        }
    }

    /// `|self - other|`.
    pub fn abs_diff(&self, other: &Ratio) -> Ratio {
        self.sub_ref(other).abs()
    }

    /// `self ^ exp` by repeated squaring.
    pub fn pow(&self, exp: u64) -> Ratio {
        if exp == 0 {
            return Ratio::one();
        }
        let x = self.big();
        let sign = if self.is_negative() && exp % 2 == 1 {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Ratio::from_big_reduced(
            BigInt::from_sign_mag(sign, x.num.magnitude().pow(exp)),
            x.den.pow(exp),
        )
    }

    /// Lossy conversion to `f64`, robust to huge numerators/denominators.
    ///
    /// The quotient is taken to about 64 significant bits, rounded to
    /// `f64` and scaled by a power of two; results below `2⁻¹⁰²²` round
    /// to the nearest subnormal instead of flushing to zero.
    pub fn to_f64(&self) -> f64 {
        if self.is_zero() {
            return 0.0;
        }
        let (q, shift) = match &self.0 {
            Repr::Small { num, den } => {
                // The big path below in native width: |num| shifted left
                // by `shift` has 64 + bits(den) ≤ 128 bits.
                let (n, d) = (num.unsigned_abs(), *den);
                let shift = 64 + n.leading_zeros() - d.leading_zeros();
                let q = (u128::from(n) << shift) / u128::from(d);
                (q as f64, i64::from(shift))
            }
            Repr::Big(b) => {
                let nb = b.num.magnitude().bits() as i64;
                let db = b.den.bits() as i64;
                // Shift so the integer quotient carries ~64 significant bits.
                let shift = 64 + db - nb;
                let (q, _) = if shift >= 0 {
                    b.num.magnitude().shl_bits(shift as u64).div_rem(&b.den)
                } else {
                    b.num.magnitude().div_rem(&b.den.shl_bits((-shift) as u64))
                };
                (q.to_f64(), shift)
            }
        };
        let v = scale_by_pow2(q, shift);
        if self.is_negative() {
            -v
        } else {
            v
        }
    }

    /// Exact decimal rendering with `digits` fractional digits, rounded
    /// half-away-from-zero: `Ratio::new(1, 3).to_decimal(4) == "0.3333"`.
    pub fn to_decimal(&self, digits: usize) -> String {
        let x = self.big();
        let scale = BigUint::from(10u64).pow(digits as u64);
        // round(|num| · 10^d / den)
        let scaled = x.num.magnitude().mul_ref(&scale);
        let (q, r) = scaled.div_rem(&x.den);
        let twice_r = r.shl_bits(1);
        let q = if twice_r >= x.den {
            q.add_ref(&BigUint::one())
        } else {
            q
        };
        let digits_str = q.to_string();
        let sign = if self.is_negative() && !q.is_zero() {
            "-"
        } else {
            ""
        };
        if digits == 0 {
            return format!("{sign}{digits_str}");
        }
        let padded = format!("{digits_str:0>width$}", width = digits + 1);
        let (int_part, frac_part) = padded.split_at(padded.len() - digits);
        format!("{sign}{int_part}.{frac_part}")
    }

    /// The *exact* rational value of a finite `f64` (every finite float
    /// is `±m·2ᵉ` for integers `m`, `e`). Returns `None` for NaN and
    /// infinities. `from_f64(0.5) == 1/2` exactly, while
    /// `from_f64(0.1)` is the 55-digit-denominator rational the float
    /// actually denotes — use this when a float-typed tolerance must
    /// enter an exact computation without rounding.
    pub fn from_f64(x: f64) -> Option<Ratio> {
        if !x.is_finite() {
            return None;
        }
        let bits = x.to_bits();
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        // Subnormals have an implicit leading 0 and exponent −1074;
        // normals an implicit leading 1 and exponent `exp_bits − 1075`.
        let (mantissa, exp) = if exp_bits == 0 {
            (frac, -1074i64)
        } else {
            (frac | (1u64 << 52), exp_bits - 1075)
        };
        let mut r = Ratio::from_parts(BigInt::from(mantissa), BigUint::one());
        if exp >= 0 {
            r = r.mul_ref(&Ratio::from_integer(2).pow(exp as u64));
        } else {
            r = r.mul_ref(&Ratio::new(1, 2).pow((-exp) as u64));
        }
        Some(if x.is_sign_negative() { r.neg_ref() } else { r })
    }

    /// Parses `"a"`, `"-a"`, `"a/b"`, or `"-a/b"` with decimal components.
    pub fn parse(s: &str) -> Option<Ratio> {
        let (neg, rest) = match s.strip_prefix('-') {
            Some(r) => (true, r),
            None => (false, s),
        };
        let (n, d) = match rest.split_once('/') {
            Some((n, d)) => (BigUint::from_decimal(n)?, BigUint::from_decimal(d)?),
            None => (BigUint::from_decimal(rest)?, BigUint::one()),
        };
        if d.is_zero() {
            return None;
        }
        let sign = if n.is_zero() {
            Sign::Zero
        } else if neg {
            Sign::Negative
        } else {
            Sign::Positive
        };
        Some(Ratio::from_parts(BigInt::from_sign_mag(sign, n), d))
    }
}

/// `a/b + c/d` for two small values, by Knuth's `gcd(b, d)` form (TAOCP
/// vol. 2, §4.5.1) so the result comes out reduced; `None` when the
/// numerator overflows `i128`.
fn add_small(a: i64, b: u64, c: i64, d: u64) -> Option<Ratio> {
    let g = gcd_u64(b, d);
    if g == 1 {
        let num = (a as i128 * d as i128).checked_add(c as i128 * b as i128)?;
        return Some(Ratio::from_reduced(
            num < 0,
            num.unsigned_abs(),
            b as u128 * d as u128,
        ));
    }
    let (b1, d1) = (b / g, d / g);
    let t = (a as i128 * d1 as i128).checked_add(c as i128 * b1 as i128)?;
    let g2 = gcd_u64((t.unsigned_abs() % g as u128) as u64, g);
    Some(Ratio::from_reduced(
        t < 0,
        t.unsigned_abs() / g2 as u128,
        b1 as u128 * (d / g2) as u128,
    ))
}

/// `±(n1/d1)·(n2/d2)` for reduced fractions with `u64` parts, cross-reduced
/// so the `u128` product is already in lowest terms.
fn mul_small(negative: bool, n1: u64, d1: u64, n2: u64, d2: u64) -> Ratio {
    let (g1, g2) = (gcd_u64(n1, d2), gcd_u64(n2, d1));
    Ratio::from_reduced(
        negative,
        (n1 / g1) as u128 * (n2 / g2) as u128,
        (d1 / g2) as u128 * (d2 / g1) as u128,
    )
}

/// `q · 2^-shift` for `q ≥ 2⁶³`, in two steps of at most `2¹⁰²²` each:
/// the first is exact, so the result is rounded once even when it is
/// subnormal. Results of `shift > 2044` are below half the least
/// subnormal and round to 0.
fn scale_by_pow2(q: f64, shift: i64) -> f64 {
    if shift > 2044 {
        return 0.0;
    }
    // Below −2046 both factors overflow, as the true value does.
    let shift = shift.max(-2048) as i32;
    let half = shift / 2;
    q * 2f64.powi(-half) * 2f64.powi(half - shift)
}

impl Default for Ratio {
    fn default() -> Self {
        Ratio::zero()
    }
}

impl From<i64> for Ratio {
    fn from(v: i64) -> Self {
        Ratio::from_integer(v)
    }
}

impl Ord for Ratio {
    fn cmp(&self, other: &Self) -> Ordering {
        // a/b ? c/d  ⇔  a*d ? c*b  (b, d > 0); exact in i128 for small
        // values, since |a*d| < 2⁶³·2⁶⁴.
        if let (&Repr::Small { num: a, den: b }, &Repr::Small { num: c, den: d }) =
            (&self.0, &other.0)
        {
            return (a as i128 * d as i128).cmp(&(c as i128 * b as i128));
        }
        let (x, y) = (self.big(), other.big());
        x.num
            .mul_ref(&BigInt::from(y.den.clone()))
            .cmp(&y.num.mul_ref(&BigInt::from(x.den.clone())))
    }
}

impl PartialOrd for Ratio {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add for &Ratio {
    type Output = Ratio;
    fn add(self, rhs: &Ratio) -> Ratio {
        self.add_ref(rhs)
    }
}
impl Add for Ratio {
    type Output = Ratio;
    fn add(self, rhs: Ratio) -> Ratio {
        self.add_ref(&rhs)
    }
}
impl Sub for &Ratio {
    type Output = Ratio;
    fn sub(self, rhs: &Ratio) -> Ratio {
        self.sub_ref(rhs)
    }
}
impl Sub for Ratio {
    type Output = Ratio;
    fn sub(self, rhs: Ratio) -> Ratio {
        self.sub_ref(&rhs)
    }
}
impl Mul for &Ratio {
    type Output = Ratio;
    fn mul(self, rhs: &Ratio) -> Ratio {
        self.mul_ref(rhs)
    }
}
impl Mul for Ratio {
    type Output = Ratio;
    fn mul(self, rhs: Ratio) -> Ratio {
        self.mul_ref(&rhs)
    }
}
impl Div for &Ratio {
    type Output = Ratio;
    fn div(self, rhs: &Ratio) -> Ratio {
        self.div_ref(rhs)
    }
}
impl Div for Ratio {
    type Output = Ratio;
    fn div(self, rhs: Ratio) -> Ratio {
        self.div_ref(&rhs)
    }
}
impl Neg for &Ratio {
    type Output = Ratio;
    fn neg(self) -> Ratio {
        self.neg_ref()
    }
}

impl Sum for Ratio {
    fn sum<I: Iterator<Item = Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc.add_ref(&x))
    }
}

impl<'a> Sum<&'a Ratio> for Ratio {
    fn sum<I: Iterator<Item = &'a Ratio>>(iter: I) -> Ratio {
        iter.fold(Ratio::zero(), |acc, x| acc.add_ref(x))
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.0 {
            Repr::Small { num, den: 1 } => write!(f, "{num}"),
            Repr::Small { num, den } => write!(f, "{num}/{den}"),
            Repr::Big(b) if b.den.is_one() => write!(f, "{}", b.num),
            Repr::Big(b) => write!(f, "{}/{}", b.num, b.den),
        }
    }
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ratio({self})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn r(n: i64, d: i64) -> Ratio {
        Ratio::new(n, d)
    }

    #[test]
    fn normalization() {
        assert_eq!(r(2, 4), r(1, 2));
        assert_eq!(r(-2, 4), r(1, -2));
        assert_eq!(r(0, 7), Ratio::zero());
        assert_eq!(r(6, 3), Ratio::from_integer(2));
        assert_eq!(r(2, 4).numer(), BigInt::from(1i64));
        assert_eq!(r(2, 4).denom(), BigUint::from(2u64));
    }

    #[test]
    #[should_panic(expected = "zero denominator")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn from_f64_exact_values() {
        assert_eq!(Ratio::from_f64(0.5), Some(r(1, 2)));
        assert_eq!(Ratio::from_f64(-0.75), Some(r(-3, 4)));
        assert_eq!(Ratio::from_f64(0.0), Some(Ratio::zero()));
        assert_eq!(Ratio::from_f64(-0.0), Some(Ratio::zero()));
        assert_eq!(Ratio::from_f64(3.0), Some(Ratio::from_integer(3)));
        assert_eq!(Ratio::from_f64(0.03125), Some(r(1, 32)));
        // 0.1 is NOT 1/10 as a double; from_f64 recovers its true value.
        assert_eq!(
            Ratio::from_f64(0.1),
            Ratio::parse("3602879701896397/36028797018963968")
        );
        assert_eq!(Ratio::from_f64(f64::NAN), None);
        assert_eq!(Ratio::from_f64(f64::INFINITY), None);
        assert_eq!(Ratio::from_f64(f64::NEG_INFINITY), None);
        // Subnormals round-trip too.
        let tiny = f64::from_bits(1); // smallest positive subnormal, 2^-1074
        assert_eq!(Ratio::from_f64(tiny), Some(r(1, 2).pow(1074)));
    }

    proptest! {
        #[test]
        fn prop_from_f64_roundtrip(a in -10000i64..10000, b in 1i64..10000) {
            let x = (a as f64) / (b as f64);
            let q = Ratio::from_f64(x).unwrap();
            // Exactness: converting back to f64 is lossless.
            prop_assert_eq!(q.to_f64().to_bits(), x.to_bits());
        }
    }

    #[test]
    fn arithmetic() {
        assert_eq!(r(1, 2).add_ref(&r(1, 3)), r(5, 6));
        assert_eq!(r(1, 2).sub_ref(&r(1, 3)), r(1, 6));
        assert_eq!(r(2, 3).mul_ref(&r(3, 4)), r(1, 2));
        assert_eq!(r(1, 2).div_ref(&r(1, 4)), Ratio::from_integer(2));
        assert_eq!(r(-1, 2).add_ref(&r(1, 2)), Ratio::zero());
    }

    #[test]
    fn recip_and_pow() {
        assert_eq!(r(2, 3).recip(), r(3, 2));
        assert_eq!(r(-2, 3).recip(), r(-3, 2));
        assert_eq!(r(1, 2).pow(10), r(1, 1024));
        assert_eq!(r(-1, 2).pow(3), r(-1, 8));
        assert_eq!(r(-1, 2).pow(2), r(1, 4));
        assert_eq!(r(7, 3).pow(0), Ratio::one());
        assert_eq!(Ratio::zero().pow(4), Ratio::zero());
    }

    #[test]
    fn probability_range() {
        assert!(Ratio::zero().is_probability());
        assert!(Ratio::one().is_probability());
        assert!(r(17, 20).is_probability());
        assert!(!r(21, 20).is_probability());
        assert!(!r(-1, 20).is_probability());
    }

    #[test]
    fn ordering() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(2, 4) == r(1, 2));
        assert!(r(7, 8) < Ratio::one());
    }

    #[test]
    fn to_f64_accuracy() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert!((r(-22, 7).to_f64() + 22.0 / 7.0).abs() < 1e-14);
        assert_eq!(Ratio::zero().to_f64(), 0.0);
        // Huge numerator and denominator that individually overflow f64.
        let huge = Ratio::from_parts(
            BigInt::from(BigUint::from(3u64).pow(1000)),
            BigUint::from(3u64).pow(1000).mul_ref(&BigUint::from(2u64)),
        );
        assert!((huge.to_f64() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn tiny_probability_is_exact() {
        // 1/2^200 — the kind of value the 3-SAT reduction produces.
        let p = r(1, 2).pow(200);
        let sum: Ratio = std::iter::repeat_n(p.clone(), 1 << 10).sum();
        assert_eq!(sum, r(1, 2).pow(190));
    }

    #[test]
    fn decimal_rendering() {
        assert_eq!(r(1, 3).to_decimal(4), "0.3333");
        assert_eq!(r(2, 3).to_decimal(4), "0.6667"); // rounds up
        assert_eq!(r(1, 2).to_decimal(0), "1"); // half away from zero
        assert_eq!(r(-1, 3).to_decimal(3), "-0.333");
        assert_eq!(r(5, 4).to_decimal(2), "1.25");
        assert_eq!(Ratio::from_integer(42).to_decimal(2), "42.00");
        assert_eq!(Ratio::zero().to_decimal(3), "0.000");
        assert_eq!(r(-1, 1000000).to_decimal(2), "0.00"); // rounds to signless zero
                                                          // Exactness far past f64: 1/3 to 40 digits.
        assert_eq!(
            r(1, 3).to_decimal(40),
            "0.3333333333333333333333333333333333333333"
        );
    }

    #[test]
    fn parse_roundtrip() {
        assert_eq!(Ratio::parse("17/20"), Some(r(17, 20)));
        assert_eq!(Ratio::parse("-3/9"), Some(r(-1, 3)));
        assert_eq!(Ratio::parse("5"), Some(Ratio::from_integer(5)));
        assert_eq!(Ratio::parse("0/9"), Some(Ratio::zero()));
        assert_eq!(Ratio::parse("1/0"), None);
        assert_eq!(Ratio::parse("a/b"), None);
        assert_eq!(Ratio::parse(""), None);
    }

    #[test]
    fn display() {
        assert_eq!(r(1, 2).to_string(), "1/2");
        assert_eq!(r(-4, 2).to_string(), "-2");
        assert_eq!(Ratio::zero().to_string(), "0");
    }

    #[test]
    fn sum_iterator() {
        let parts = [r(1, 4), r(1, 4), r(1, 2)];
        let total: Ratio = parts.iter().sum();
        assert_eq!(total, Ratio::one());
    }

    proptest! {
        #[test]
        fn prop_field_axioms(a in -100i64..100, b in 1i64..100,
                             c in -100i64..100, d in 1i64..100,
                             e in -100i64..100, f in 1i64..100) {
            let (x, y, z) = (r(a, b), r(c, d), r(e, f));
            // Commutativity and associativity.
            prop_assert_eq!(x.add_ref(&y), y.add_ref(&x));
            prop_assert_eq!(x.mul_ref(&y), y.mul_ref(&x));
            prop_assert_eq!(x.add_ref(&y).add_ref(&z), x.add_ref(&y.add_ref(&z)));
            prop_assert_eq!(x.mul_ref(&y).mul_ref(&z), x.mul_ref(&y.mul_ref(&z)));
            // Distributivity.
            prop_assert_eq!(x.mul_ref(&y.add_ref(&z)),
                            x.mul_ref(&y).add_ref(&x.mul_ref(&z)));
            // Identities & inverses.
            prop_assert_eq!(x.add_ref(&Ratio::zero()), x.clone());
            prop_assert_eq!(x.mul_ref(&Ratio::one()), x.clone());
            prop_assert_eq!(x.sub_ref(&x), Ratio::zero());
            if !x.is_zero() {
                prop_assert_eq!(x.mul_ref(&x.recip()), Ratio::one());
            }
        }

        #[test]
        fn prop_cmp_matches_f64(a in -1000i64..1000, b in 1i64..1000,
                                c in -1000i64..1000, d in 1i64..1000) {
            let (x, y) = (r(a, b), r(c, d));
            let (fx, fy) = (a as f64 / b as f64, c as f64 / d as f64);
            if (fx - fy).abs() > 1e-9 {
                prop_assert_eq!(x < y, fx < fy);
            }
        }

        #[test]
        fn prop_to_f64_close(a in -10000i64..10000, b in 1i64..10000) {
            let x = r(a, b);
            prop_assert!((x.to_f64() - a as f64 / b as f64).abs() < 1e-12);
        }

        #[test]
        fn prop_parse_display_roundtrip(a in any::<i64>(), b in 1i64..i64::MAX) {
            let x = r(a, b);
            prop_assert_eq!(Ratio::parse(&x.to_string()), Some(x));
        }
    }
}
