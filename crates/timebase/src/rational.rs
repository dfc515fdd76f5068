//! The [`Rational`] number type.

use std::cmp::Ordering;
use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};
use std::str::FromStr;

use rbs_json::{FromJson, Json, JsonError, ToJson};

use crate::error::{ParseErrorReason, ParseRationalError, RationalOverflowError};
use crate::euclid::{gcd_i128, lcm_i128};

/// An exact rational number `num/den` over `i128`.
///
/// Invariants maintained by every constructor and operation:
///
/// * `den > 0`,
/// * `gcd(|num|, den) == 1` (fully reduced),
/// * zero is represented uniquely as `0/1`.
///
/// Arithmetic is exact. The operator overloads (`+`, `-`, `*`, `/`) panic
/// on `i128` overflow; the `checked_*` methods return
/// [`RationalOverflowError`] instead. Comparison never overflows — it falls
/// back to a continued-fraction expansion when the cross products do not
/// fit in `i128`.
///
/// # Examples
///
/// ```
/// use rbs_timebase::Rational;
///
/// let third = Rational::new(1, 3);
/// let total = third + Rational::new(1, 6);
/// assert_eq!(total, Rational::new(1, 2));
/// assert_eq!(total.floor(), 0);
/// assert_eq!((total * Rational::from(4)).ceil(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rational {
    num: i128,
    den: i128,
}

/// Wire format: `{"num": i128, "den": i128}`. Unreduced input is normalized,
/// a zero denominator is rejected.
impl ToJson for Rational {
    fn write_json(&self, out: &mut String) {
        // The most frequent object on the wire (several per task), so its
        // constant keys are written as literals rather than escaped.
        out.push_str("{\"num\":");
        rbs_json::write_int(self.num, out);
        out.push_str(",\"den\":");
        rbs_json::write_int(self.den, out);
        out.push('}');
    }
}

impl FromJson for Rational {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let num = value
            .field("num")?
            .as_i128()
            .ok_or_else(|| JsonError::new("rational `num` must be an integer"))?;
        let den = value
            .field("den")?
            .as_i128()
            .ok_or_else(|| JsonError::new("rational `den` must be an integer"))?;
        if den == 0 {
            return Err(JsonError::new("rational denominator must be non-zero"));
        }
        if num == i128::MIN || den == i128::MIN {
            return Err(JsonError::new(
                "rational component magnitude exceeds i128::MAX",
            ));
        }
        Ok(Rational::new(num, den))
    }
}

impl Rational {
    /// The value `0`.
    pub const ZERO: Rational = Rational { num: 0, den: 1 };
    /// The value `1`.
    pub const ONE: Rational = Rational { num: 1, den: 1 };
    /// The value `2`.
    pub const TWO: Rational = Rational { num: 2, den: 1 };

    /// Creates the reduced rational `num/den`.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0`, or if `num`/`den` is `i128::MIN` (whose
    /// absolute value is unrepresentable).
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// assert_eq!(Rational::new(2, 4), Rational::new(1, 2));
    /// assert_eq!(Rational::new(3, -6), Rational::new(-1, 2));
    /// ```
    #[must_use]
    pub fn new(num: i128, den: i128) -> Rational {
        assert!(den != 0, "rational denominator must be non-zero");
        assert!(
            num != i128::MIN && den != i128::MIN,
            "rational component magnitude exceeds i128::MAX"
        );
        let sign = if (num < 0) ^ (den < 0) { -1 } else { 1 };
        let (num, den) = (num.abs(), den.abs());
        let g = gcd_i128(num, den);
        if num == 0 {
            return Rational::ZERO;
        }
        Rational {
            num: sign * (num / g),
            den: den / g,
        }
    }

    /// Creates an integer-valued rational.
    ///
    /// Equivalent to `Rational::new(value, 1)` but `const`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// const HORIZON: Rational = Rational::integer(100);
    /// assert!(HORIZON.is_integer());
    /// ```
    #[must_use]
    pub const fn integer(value: i128) -> Rational {
        Rational { num: value, den: 1 }
    }

    /// The (signed) numerator of the reduced fraction.
    #[must_use]
    pub const fn numer(&self) -> i128 {
        self.num
    }

    /// The (strictly positive) denominator of the reduced fraction.
    #[must_use]
    pub const fn denom(&self) -> i128 {
        self.den
    }

    /// Appends `num/den` in decimal (denominator always written): the
    /// byte form canonical cache keys spell this value with. The fraction
    /// is reduced with a positive denominator, so the bytes are unique
    /// per value.
    pub fn write_canonical(self, out: &mut Vec<u8>) {
        let mut buf = [0; rbs_json::DECIMAL_LEN];
        out.extend_from_slice(rbs_json::decimal(self.num, &mut buf));
        out.push(b'/');
        out.extend_from_slice(rbs_json::decimal(self.den, &mut buf));
    }

    /// Returns `true` if the value is zero.
    #[must_use]
    pub const fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns `true` if the value is an integer.
    #[must_use]
    pub const fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns `true` if the value is strictly negative.
    #[must_use]
    pub const fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns `true` if the value is strictly positive.
    #[must_use]
    pub const fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// Returns the absolute value.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// assert_eq!(Rational::new(-3, 4).abs(), Rational::new(3, 4));
    /// ```
    #[must_use]
    pub fn abs(self) -> Rational {
        Rational {
            num: self.num.abs(),
            den: self.den,
        }
    }

    /// Returns the multiplicative inverse.
    ///
    /// # Panics
    ///
    /// Panics if the value is zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// assert_eq!(Rational::new(4, 3).recip(), Rational::new(3, 4));
    /// ```
    #[must_use]
    pub fn recip(self) -> Rational {
        assert!(!self.is_zero(), "cannot invert zero");
        Rational::new(self.den * self.num.signum(), self.num.abs())
    }

    /// Checked addition, returning an error on `i128` overflow.
    ///
    /// # Errors
    ///
    /// Returns [`RationalOverflowError`] when the exact result does not fit.
    pub fn checked_add(self, rhs: Rational) -> Result<Rational, RationalOverflowError> {
        let err = RationalOverflowError { op: "add" };
        // a/b + c/d = (a*(d/g) + c*(b/g)) / (b*(d/g)) with g = gcd(b, d).
        let g = gcd_i128(self.den, rhs.den);
        let rd = rhs.den / g;
        let ld = self.den / g;
        let lhs_term = self.num.checked_mul(rd).ok_or(err)?;
        let rhs_term = rhs.num.checked_mul(ld).ok_or(err)?;
        let num = lhs_term.checked_add(rhs_term).ok_or(err)?;
        let den = self.den.checked_mul(rd).ok_or(err)?;
        if num == i128::MIN || den == i128::MIN {
            return Err(err);
        }
        Ok(Rational::new(num, den))
    }

    /// Checked subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`RationalOverflowError`] when the exact result does not fit.
    pub fn checked_sub(self, rhs: Rational) -> Result<Rational, RationalOverflowError> {
        self.checked_add(Rational {
            num: -rhs.num,
            den: rhs.den,
        })
    }

    /// Checked multiplication.
    ///
    /// # Errors
    ///
    /// Returns [`RationalOverflowError`] when the exact result does not fit.
    pub fn checked_mul(self, rhs: Rational) -> Result<Rational, RationalOverflowError> {
        let err = RationalOverflowError { op: "mul" };
        // Reduce crosswise before multiplying to keep intermediates small.
        let g1 = gcd_i128(self.num, rhs.den);
        let g2 = gcd_i128(rhs.num, self.den);
        let num = (self.num / g1).checked_mul(rhs.num / g2).ok_or(err)?;
        let den = (self.den / g2).checked_mul(rhs.den / g1).ok_or(err)?;
        if num == i128::MIN || den == i128::MIN {
            return Err(err);
        }
        Ok(Rational::new(num, den))
    }

    /// Checked division.
    ///
    /// # Errors
    ///
    /// Returns [`RationalOverflowError`] on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    pub fn checked_div(self, rhs: Rational) -> Result<Rational, RationalOverflowError> {
        self.checked_mul(rhs.recip())
    }

    /// Returns the largest integer `<= self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// assert_eq!(Rational::new(7, 2).floor(), 3);
    /// assert_eq!(Rational::new(-7, 2).floor(), -4);
    /// assert_eq!(Rational::integer(5).floor(), 5);
    /// ```
    #[must_use]
    pub fn floor(self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// Returns the smallest integer `>= self`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// assert_eq!(Rational::new(7, 2).ceil(), 4);
    /// assert_eq!(Rational::new(-7, 2).ceil(), -3);
    /// ```
    #[must_use]
    pub fn ceil(self) -> i128 {
        -(-self).floor()
    }

    /// Returns `floor(self / rhs)` as an integer.
    ///
    /// This is the `⌊Δ/T⌋` primitive of demand-bound functions.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero, or on `i128` overflow.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// let delta = Rational::new(13, 1);
    /// let period = Rational::new(5, 1);
    /// assert_eq!(delta.floor_div(period), 2);
    /// ```
    #[must_use]
    pub fn floor_div(self, rhs: Rational) -> i128 {
        (self / rhs).floor()
    }

    /// The paper's extended `mod` operator over the reals:
    /// `a mod b = a - floor(a/b) * b`.
    ///
    /// For positive `b` the result lies in `[0, b)`.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero, or on `i128` overflow.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// let a = Rational::new(13, 2); // 6.5
    /// let b = Rational::new(5, 1);
    /// assert_eq!(a.mod_floor(b), Rational::new(3, 2)); // 6.5 mod 5 = 1.5
    /// ```
    #[must_use]
    pub fn mod_floor(self, rhs: Rational) -> Rational {
        self - Rational::integer(self.floor_div(rhs)) * rhs
    }

    /// Returns the smaller of two values.
    #[must_use]
    pub fn min(self, other: Rational) -> Rational {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two values.
    #[must_use]
    pub fn max(self, other: Rational) -> Rational {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Least common multiple of two strictly positive rationals: the
    /// smallest positive value that is an integer multiple of both.
    ///
    /// Used to compute the hyperperiod of a set of rational task periods.
    /// Returns `None` on overflow.
    ///
    /// # Panics
    ///
    /// Panics if either value is not strictly positive.
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// let a = Rational::new(3, 2);
    /// let b = Rational::new(5, 4);
    /// assert_eq!(a.lcm(b), Some(Rational::new(15, 2)));
    /// ```
    #[must_use]
    pub fn lcm(self, other: Rational) -> Option<Rational> {
        assert!(
            self.is_positive() && other.is_positive(),
            "lcm is defined for strictly positive rationals"
        );
        // lcm(a/b, c/d) = lcm(a, c) / gcd(b, d) for reduced fractions.
        let num = lcm_i128(self.num, other.num)?;
        let den = gcd_i128(self.den, other.den);
        Some(Rational::new(num, den))
    }

    /// Converts to the nearest `f64` (for reporting; never use for
    /// schedulability decisions).
    ///
    /// # Examples
    ///
    /// ```
    /// use rbs_timebase::Rational;
    ///
    /// assert!((Rational::new(4, 3).to_f64() - 1.333_333).abs() < 1e-5);
    /// ```
    #[must_use]
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Overflow-free comparison via continued-fraction expansion.
    fn cmp_slow(self, other: Rational) -> Ordering {
        match (self.num.signum(), other.num.signum()) {
            (a, b) if a != b => return a.cmp(&b),
            (0, 0) => return Ordering::Equal,
            (-1, -1) => return (-other).cmp_slow(-self),
            _ => {}
        }
        // Both strictly positive from here on.
        let (mut a, mut b) = (self.num, self.den);
        let (mut c, mut d) = (other.num, other.den);
        let mut flipped = false;
        loop {
            let (q1, r1) = (a / b, a % b);
            let (q2, r2) = (c / d, c % d);
            let q_cmp = q1.cmp(&q2);
            if q_cmp != Ordering::Equal {
                return if flipped { q_cmp.reverse() } else { q_cmp };
            }
            match (r1 == 0, r2 == 0) {
                (true, true) => return Ordering::Equal,
                // a/b has the smaller fractional part; smaller unless flipped.
                (true, false) => {
                    return if flipped {
                        Ordering::Greater
                    } else {
                        Ordering::Less
                    }
                }
                (false, true) => {
                    return if flipped {
                        Ordering::Less
                    } else {
                        Ordering::Greater
                    }
                }
                (false, false) => {
                    // Compare b/r1 vs d/r2, with the order flipped.
                    let (na, nb) = (b, r1);
                    let (nc, nd) = (d, r2);
                    a = na;
                    b = nb;
                    c = nc;
                    d = nd;
                    flipped = !flipped;
                }
            }
        }
    }
}

impl Default for Rational {
    fn default() -> Self {
        Rational::ZERO
    }
}

impl PartialOrd for Rational {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rational {
    fn cmp(&self, other: &Self) -> Ordering {
        // Equal (positive) denominators order like their numerators.
        if self.den == other.den {
            return self.num.cmp(&other.num);
        }
        // Fast path: cross multiplication in i128 when it cannot overflow.
        match (
            self.num.checked_mul(other.den),
            other.num.checked_mul(self.den),
        ) {
            (Some(lhs), Some(rhs)) => lhs.cmp(&rhs),
            _ => self.cmp_slow(*other),
        }
    }
}

macro_rules! impl_from_int {
    ($($t:ty),*) => {
        $(
            impl From<$t> for Rational {
                fn from(value: $t) -> Self {
                    Rational::integer(i128::from(value))
                }
            }
        )*
    };
}

impl_from_int!(i8, i16, i32, i64, u8, u16, u32, u64);

impl Add for Rational {
    type Output = Rational;

    fn add(self, rhs: Rational) -> Rational {
        self.checked_add(rhs).expect("rational add overflowed")
    }
}

impl Sub for Rational {
    type Output = Rational;

    fn sub(self, rhs: Rational) -> Rational {
        self.checked_sub(rhs).expect("rational sub overflowed")
    }
}

impl Mul for Rational {
    type Output = Rational;

    fn mul(self, rhs: Rational) -> Rational {
        self.checked_mul(rhs).expect("rational mul overflowed")
    }
}

impl Div for Rational {
    type Output = Rational;

    fn div(self, rhs: Rational) -> Rational {
        self.checked_div(rhs).expect("rational div overflowed")
    }
}

impl Neg for Rational {
    type Output = Rational;

    fn neg(self) -> Rational {
        Rational {
            num: -self.num,
            den: self.den,
        }
    }
}

impl AddAssign for Rational {
    fn add_assign(&mut self, rhs: Rational) {
        *self = *self + rhs;
    }
}

impl SubAssign for Rational {
    fn sub_assign(&mut self, rhs: Rational) {
        *self = *self - rhs;
    }
}

impl MulAssign for Rational {
    fn mul_assign(&mut self, rhs: Rational) {
        *self = *self * rhs;
    }
}

impl DivAssign for Rational {
    fn div_assign(&mut self, rhs: Rational) {
        *self = *self / rhs;
    }
}

impl Sum for Rational {
    fn sum<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Rational> for Rational {
    fn sum<I: Iterator<Item = &'a Rational>>(iter: I) -> Rational {
        iter.copied().sum()
    }
}

impl Product for Rational {
    fn product<I: Iterator<Item = Rational>>(iter: I) -> Rational {
        iter.fold(Rational::ONE, Mul::mul)
    }
}

impl fmt::Display for Rational {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

impl FromStr for Rational {
    type Err = ParseRationalError;

    /// Parses `"n"`, `"n/d"`, or a decimal literal like `"-1.25"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason| ParseRationalError {
            input: s.to_owned(),
            reason,
        };
        let s_trim = s.trim();
        if s_trim.is_empty() {
            return Err(err(ParseErrorReason::Empty));
        }
        if let Some((num_str, den_str)) = s_trim.split_once('/') {
            let num: i128 = num_str
                .trim()
                .parse()
                .map_err(|_| err(ParseErrorReason::InvalidDigit))?;
            let den: i128 = den_str
                .trim()
                .parse()
                .map_err(|_| err(ParseErrorReason::InvalidDigit))?;
            if den == 0 {
                return Err(err(ParseErrorReason::ZeroDenominator));
            }
            return Ok(Rational::new(num, den));
        }
        if let Some((int_str, frac_str)) = s_trim.split_once('.') {
            if frac_str.is_empty() || !frac_str.bytes().all(|b| b.is_ascii_digit()) {
                return Err(err(ParseErrorReason::InvalidDigit));
            }
            let negative = int_str.trim_start().starts_with('-');
            let int_part: i128 = if int_str == "-" || int_str.is_empty() {
                0
            } else {
                int_str
                    .parse()
                    .map_err(|_| err(ParseErrorReason::InvalidDigit))?
            };
            let frac_digits: u32 = frac_str
                .len()
                .try_into()
                .map_err(|_| err(ParseErrorReason::Overflow))?;
            let frac_part: i128 = frac_str
                .parse()
                .map_err(|_| err(ParseErrorReason::Overflow))?;
            let scale = 10i128
                .checked_pow(frac_digits)
                .ok_or_else(|| err(ParseErrorReason::Overflow))?;
            let magnitude = int_part
                .checked_abs()
                .and_then(|i| i.checked_mul(scale))
                .and_then(|i| i.checked_add(frac_part))
                .ok_or_else(|| err(ParseErrorReason::Overflow))?;
            let num = if negative { -magnitude } else { magnitude };
            return Ok(Rational::new(num, scale));
        }
        let num: i128 = s_trim
            .parse()
            .map_err(|_| err(ParseErrorReason::InvalidDigit))?;
        Ok(Rational::integer(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(num: i128, den: i128) -> Rational {
        Rational::new(num, den)
    }

    #[test]
    fn construction_reduces_and_normalizes_sign() {
        assert_eq!(r(6, 8), r(3, 4));
        assert_eq!(r(-6, 8), r(3, -4));
        assert_eq!(r(-6, -8), r(3, 4));
        assert_eq!(r(0, -5), Rational::ZERO);
        assert_eq!(r(0, 5).denom(), 1);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_denominator_panics() {
        let _ = r(1, 0);
    }

    #[test]
    fn arithmetic_identities() {
        let a = r(3, 4);
        let b = r(5, 6);
        assert_eq!(a + b, r(19, 12));
        assert_eq!(a - b, r(-1, 12));
        assert_eq!(a * b, r(5, 8));
        assert_eq!(a / b, r(9, 10));
        assert_eq!(-a, r(-3, 4));
        assert_eq!(a + Rational::ZERO, a);
        assert_eq!(a * Rational::ONE, a);
    }

    #[test]
    fn assign_operators_match_binary_operators() {
        let mut x = r(1, 2);
        x += r(1, 3);
        assert_eq!(x, r(5, 6));
        x -= r(1, 6);
        assert_eq!(x, r(2, 3));
        x *= r(3, 4);
        assert_eq!(x, r(1, 2));
        x /= r(1, 4);
        assert_eq!(x, Rational::TWO);
    }

    #[test]
    fn sum_and_product() {
        let values = [r(1, 2), r(1, 3), r(1, 6)];
        assert_eq!(values.iter().sum::<Rational>(), Rational::ONE);
        assert_eq!(values.iter().copied().product::<Rational>(), r(1, 36));
    }

    #[test]
    fn ordering_small_values() {
        assert!(r(1, 3) < r(1, 2));
        assert!(r(-1, 2) < r(-1, 3));
        assert!(r(4, 3) > Rational::ONE);
        assert_eq!(r(2, 4).cmp(&r(1, 2)), Ordering::Equal);
    }

    #[test]
    fn ordering_near_overflow_uses_slow_path() {
        let big = i128::MAX / 2;
        let a = r(big, big - 1);
        let b = r(big - 1, big - 2);
        // a = 1 + 1/(big-1), b = 1 + 1/(big-2) => a < b.
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        // Negative counterparts flip.
        assert!(-a > -b);
    }

    #[test]
    fn slow_path_agrees_with_fast_path_on_small_values() {
        let samples: Vec<Rational> = (-6..=6)
            .flat_map(|n| (1..=6).map(move |d| r(n, d)))
            .collect();
        for &a in &samples {
            for &b in &samples {
                assert_eq!(a.cmp(&b), a.cmp_slow(b), "{a} vs {b}");
            }
        }
    }

    #[test]
    fn floor_ceil_and_floor_div() {
        assert_eq!(r(7, 3).floor(), 2);
        assert_eq!(r(-7, 3).floor(), -3);
        assert_eq!(r(7, 3).ceil(), 3);
        assert_eq!(r(-7, 3).ceil(), -2);
        assert_eq!(r(6, 3).floor(), 2);
        assert_eq!(r(6, 3).ceil(), 2);
        assert_eq!(r(13, 1).floor_div(r(5, 1)), 2);
        assert_eq!(r(-1, 2).floor_div(r(5, 1)), -1);
    }

    #[test]
    fn mod_floor_matches_paper_definition() {
        // a mod b = a - floor(a/b) * b
        let cases = [
            (r(13, 1), r(5, 1), r(3, 1)),
            (r(13, 2), r(5, 1), r(3, 2)),
            (r(10, 1), r(5, 1), Rational::ZERO),
            (r(-1, 1), r(5, 1), r(4, 1)),
            (r(7, 4), r(1, 2), r(1, 4)),
        ];
        for (a, b, want) in cases {
            assert_eq!(a.mod_floor(b), want, "{a} mod {b}");
            // In range [0, b).
            let m = a.mod_floor(b);
            assert!(m >= Rational::ZERO && m < b);
        }
    }

    #[test]
    fn recip_and_abs() {
        assert_eq!(r(-4, 3).recip(), r(-3, 4));
        assert_eq!(r(-4, 3).abs(), r(4, 3));
        assert_eq!(r(4, 3).recip() * r(4, 3), Rational::ONE);
    }

    #[test]
    #[should_panic(expected = "invert zero")]
    fn recip_of_zero_panics() {
        let _ = Rational::ZERO.recip();
    }

    #[test]
    fn lcm_of_rationals() {
        assert_eq!(r(5, 1).lcm(r(10, 1)), Some(r(10, 1)));
        assert_eq!(r(3, 2).lcm(r(5, 4)), Some(r(15, 2)));
        let a = r(1, 2).lcm(r(1, 3)).expect("fits");
        // lcm(1/2, 1/3) = 1: 1 = 2*(1/2) = 3*(1/3).
        assert_eq!(a, Rational::ONE);
    }

    #[test]
    fn checked_ops_report_overflow() {
        let huge = r(i128::MAX - 1, 1);
        assert!(huge.checked_mul(huge).is_err());
        assert!(huge.checked_add(huge).is_err());
        assert!(huge.checked_sub(-huge).is_err());
        assert!(huge.checked_add(Rational::ONE).is_ok());
        assert!(huge.checked_add(Rational::TWO).is_err());
        assert!(huge.checked_sub(Rational::ONE).is_ok());
    }

    #[test]
    fn display_formats() {
        assert_eq!(r(4, 3).to_string(), "4/3");
        assert_eq!(r(-4, 3).to_string(), "-4/3");
        assert_eq!(r(8, 4).to_string(), "2");
        assert_eq!(Rational::ZERO.to_string(), "0");
    }

    #[test]
    fn parse_round_trips() {
        for text in ["4/3", "-4/3", "2", "0", "-17"] {
            let value: Rational = text.parse().expect("valid");
            assert_eq!(value.to_string(), text);
        }
    }

    #[test]
    fn parse_decimals() {
        assert_eq!("1.25".parse::<Rational>().expect("valid"), r(5, 4));
        assert_eq!("-0.5".parse::<Rational>().expect("valid"), r(-1, 2));
        assert_eq!("0.01".parse::<Rational>().expect("valid"), r(1, 100));
        assert_eq!("10.".parse::<Rational>().ok(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in ["", "  ", "a/b", "1/0", "1/ ", "1.2.3", "--3"] {
            assert!(text.parse::<Rational>().is_err(), "{text:?}");
        }
    }

    #[test]
    fn json_round_trip() {
        let value = r(-7, 12);
        let json = rbs_json::to_string(&value);
        assert_eq!(json, r#"{"num":-7,"den":12}"#);
        let back: Rational = rbs_json::from_str(&json).expect("deserialize");
        assert_eq!(back, value);
    }

    #[test]
    fn json_rejects_zero_denominator() {
        let result: Result<Rational, _> = rbs_json::from_str(r#"{"num":1,"den":0}"#);
        assert!(result.is_err());
    }

    #[test]
    fn json_normalizes_unreduced_input() {
        let value: Rational = rbs_json::from_str(r#"{"num":2,"den":4}"#).expect("deserialize");
        assert_eq!(value, r(1, 2));
    }

    #[test]
    fn to_f64_is_close() {
        assert!((r(1, 3).to_f64() - 1.0 / 3.0).abs() < 1e-15);
        assert_eq!(r(5, 1).to_f64(), 5.0);
    }

    #[test]
    fn min_max() {
        assert_eq!(r(1, 3).min(r(1, 2)), r(1, 3));
        assert_eq!(r(1, 3).max(r(1, 2)), r(1, 2));
        assert_eq!(Rational::default(), Rational::ZERO);
    }
}
