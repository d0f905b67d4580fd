//! Differential tests of `Ratio` against plain big-integer arithmetic.
//!
//! Every operation is recomputed on unreduced `BigInt`/`BigUint`
//! numerators and denominators, reduced by a Euclidean gcd (independent of
//! the binary gcd `Ratio` uses), and compared with the `Ratio` result:
//! same value, canonical form (rebuilding from the parts gives an equal
//! value with an equal hash) and identical `Display`. Operands are drawn
//! near the edges where the inline small form promotes to big integers:
//! numerators around `2⁶³`, denominators around `2⁶⁴`, and sums whose
//! `i128` intermediate overflows.

use pfq_num::{BigInt, BigUint, Ratio, Sign};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Magnitudes at and around the promotion edges.
const EDGES: [u128; 16] = [
    0,
    1,
    2,
    3,
    1 << 32,
    (1 << 62) + 1,
    (1 << 63) - 2,
    (1 << 63) - 1,
    1 << 63,
    (1 << 63) + 1,
    (1 << 64) - 2,
    (1 << 64) - 1,
    1 << 64,
    (1 << 64) + 1,
    (1 << 127) - 1,
    u128::MAX,
];

fn magnitude() -> impl Strategy<Value = u128> {
    prop_oneof![
        proptest::sample::select(EDGES.to_vec()),
        (proptest::sample::select(EDGES.to_vec()), 0u128..4).prop_map(|(e, k)| e.saturating_sub(k)),
        1u128..1000,
        any::<u64>().prop_map(u128::from),
        any::<u128>(),
    ]
}

/// An unreduced fraction `(num, den)` with `den > 0`.
fn fraction() -> impl Strategy<Value = (BigInt, BigUint)> {
    (any::<bool>(), magnitude(), magnitude()).prop_map(|(negative, n, d)| {
        let sign = if negative {
            Sign::Negative
        } else {
            Sign::Positive
        };
        (
            BigInt::from_sign_mag(sign, BigUint::from(n)),
            BigUint::from(d.max(1)),
        )
    })
}

fn euclid(a: &BigUint, b: &BigUint) -> BigUint {
    let (mut a, mut b) = (a.clone(), b.clone());
    while !b.is_zero() {
        let (_, r) = a.div_rem(&b);
        a = b;
        b = r;
    }
    a
}

fn hash_of(r: &Ratio) -> u64 {
    let mut h = DefaultHasher::new();
    r.hash(&mut h);
    h.finish()
}

fn int(mag: &BigUint) -> BigInt {
    BigInt::from(mag.clone())
}

/// Asserts `r` is the canonical `Ratio` of the (unreduced) `num/den`.
fn check(r: &Ratio, num: BigInt, den: BigUint) -> Result<(), TestCaseError> {
    let (num, den) = if num.is_zero() {
        (BigInt::zero(), BigUint::one())
    } else {
        let g = euclid(num.magnitude(), &den);
        (
            BigInt::from_sign_mag(num.sign(), num.magnitude().div_rem(&g).0),
            den.div_rem(&g).0,
        )
    };
    prop_assert_eq!(r.numer(), num.clone());
    prop_assert_eq!(r.denom(), den.clone());
    let rebuilt = Ratio::from_parts(r.numer(), r.denom());
    prop_assert_eq!(&rebuilt, r);
    prop_assert_eq!(hash_of(&rebuilt), hash_of(r));
    let shown = if den.is_one() {
        num.to_string()
    } else {
        format!("{num}/{den}")
    };
    prop_assert_eq!(r.to_string(), shown.clone());
    prop_assert_eq!(Ratio::parse(&shown), Some(r.clone()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn prop_construction_is_canonical((a, b) in fraction()) {
        check(&Ratio::from_parts(a.clone(), b.clone()), a, b)?;
    }

    #[test]
    fn prop_arithmetic_matches_big_integers((a, b) in fraction(), (c, d) in fraction()) {
        let (x, y) = (Ratio::from_parts(a.clone(), b.clone()), Ratio::from_parts(c.clone(), d.clone()));
        let (ad, cb) = (a.mul_ref(&int(&d)), c.mul_ref(&int(&b)));
        check(&x.add_ref(&y), ad.add_ref(&cb), b.mul_ref(&d))?;
        check(&x.sub_ref(&y), ad.sub_ref(&cb), b.mul_ref(&d))?;
        check(&x.mul_ref(&y), a.mul_ref(&c), b.mul_ref(&d))?;
        check(&x.neg_ref(), a.neg_ref(), b.clone())?;
        prop_assert_eq!(x.cmp(&y), ad.cmp(&cb));
        prop_assert_eq!(x == y, ad.cmp(&cb) == Ordering::Equal);
        if !c.is_zero() {
            let signed_d = BigInt::from_sign_mag(c.sign(), d.clone());
            check(&x.div_ref(&y), a.mul_ref(&signed_d), b.mul_ref(c.magnitude()))?;
        }
        if !a.is_zero() {
            check(&x.recip(), BigInt::from_sign_mag(a.sign(), b.clone()), a.magnitude().clone())?;
        }
    }

    #[test]
    fn prop_from_f64_to_f64_roundtrips(bits in prop_oneof![
        any::<u64>(),
        // Subnormals: exponent field 0.
        any::<u64>().prop_map(|b| b & !(0x7ff << 52)),
        // The smallest normals and the scale where 2^-shift used to overflow.
        (any::<u64>(), 0u64..80).prop_map(|(b, e)| b & !(0x7ff << 52) | e << 52),
    ]) {
        let x = f64::from_bits(bits);
        if x.is_finite() {
            let back = Ratio::from_f64(x).unwrap().to_f64();
            // Compare bits, except that -0.0 and 0.0 are the same rational.
            prop_assert!(back.to_bits() == x.to_bits() || (x == 0.0 && back == 0.0),
                "{x:e} came back as {back:e}");
        }
    }
}

#[test]
fn i128_overflowing_sums_promote() {
    let max = i64::MAX;
    // Coprime denominators near 2⁶⁴: a·d + c·b exceeds i128.
    let x = Ratio::from_parts(BigInt::from(max), BigUint::from(u64::MAX));
    let y = Ratio::from_parts(BigInt::from(max), BigUint::from(u64::MAX - 1));
    let sum = x.add_ref(&y);
    let expected_num = BigUint::from(max as u64)
        .mul_ref(&BigUint::from(u64::MAX).add_ref(&BigUint::from(u64::MAX - 1)));
    let expected_den = BigUint::from(u64::MAX).mul_ref(&BigUint::from(u64::MAX - 1));
    assert_eq!(
        sum,
        Ratio::from_parts(BigInt::from(expected_num), expected_den)
    );
    // And back: subtracting y again demotes to the small x.
    assert_eq!(sum.sub_ref(&y), x);
    assert_eq!(x.neg_ref().add_ref(&y.neg_ref()), sum.neg_ref());
}

#[test]
fn promotion_edges() {
    // 2⁶³ does not fit the small numerator, 2⁶⁴ − 1 fits the small denominator.
    let min = Ratio::from_integer(i64::MIN);
    assert_eq!(min.to_string(), "-9223372036854775808");
    assert_eq!(
        min.add_ref(&Ratio::one()),
        Ratio::from_integer(i64::MIN + 1)
    );
    let tiny = Ratio::from_parts(BigInt::one(), BigUint::from(u64::MAX));
    assert_eq!(tiny.recip().to_string(), u64::MAX.to_string());
    assert_eq!(tiny.recip().recip(), tiny);
    assert_eq!(Ratio::new(i64::MIN, i64::MIN), Ratio::one());
    assert_eq!(Ratio::new(i64::MIN, 2), Ratio::from_integer(i64::MIN / 2));
    assert_eq!(
        Ratio::new(1, 2).pow(64).to_string(),
        "1/18446744073709551616"
    );
    assert_eq!(
        Ratio::new(1, 2).pow(63).mul_ref(&Ratio::new(1, 2)),
        Ratio::new(1, 2).pow(64)
    );
}

#[test]
fn ratio_is_three_words() {
    assert_eq!(std::mem::size_of::<Ratio>(), 24);
}

#[test]
fn to_f64_below_two_to_the_minus_960() {
    let half = Ratio::new(1, 2);
    assert_eq!(half.pow(959).to_f64(), 2f64.powi(-959));
    assert_eq!(half.pow(960).to_f64(), 2f64.powi(-960));
    assert_eq!(half.pow(1000).to_f64(), 2f64.powi(-1000));
    assert_eq!(half.pow(1074).to_f64(), f64::from_bits(1));
    // Half the least subnormal rounds to even (0); a bit more rounds up.
    assert_eq!(half.pow(1075).to_f64(), 0.0);
    assert_eq!(
        half.pow(1075).mul_ref(&Ratio::new(3, 2)).to_f64(),
        f64::from_bits(1)
    );
    assert_eq!(half.pow(3000).to_f64(), 0.0);
    assert_eq!(half.pow(3000).neg_ref().to_f64(), -0.0);
    assert_eq!(Ratio::from_f64(1e-300).unwrap().to_f64(), 1e-300);
    assert_eq!(Ratio::from_integer(2).pow(1100).to_f64(), f64::INFINITY);
}
