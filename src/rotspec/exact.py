"""Exact rational arithmetic with outward rounding.

Every analytic constant that enters a certified error radius is produced
here as a pair of rationals (lower, upper) bracketing the true value, so
that downstream bounds can be rounded outward instead of trusting float
round-off. Quadratic surds a + b*sqrt(d) get exact sign, comparison and
floor operations built on integer square roots; no floating point is
involved in any decision.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Union

from .errors import InvalidInput

Rational = Union[int, Fraction]

# pi truncated to 39 decimal digits; bumping the last digit gives a strict
# upper bound. Width 1e-39 is far below every tolerance in the package.
_PI_39 = 3141592653589793238462643383279502884197
PI_LO = Fraction(_PI_39, 10**39)
PI_HI = Fraction(_PI_39 + 1, 10**39)

_FLOAT_MAX = Fraction(sys.float_info.max)


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def sqrt_enclosure(x: Rational, digits: int = 30) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(x) <= hi with hi - lo <= 10**-digits.

    Scales to an integer square root: with s = isqrt(num * den * 10**2d),
    s <= sqrt(num*den)*10**d < s+1, and dividing by den*10**d brackets
    sqrt(num/den).
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError("sqrt of negative value")
    scale = 10**digits
    s = math.isqrt(x.numerator * x.denominator * scale * scale)
    lo = Fraction(s, x.denominator * scale)
    hi = Fraction(s + 1, x.denominator * scale)
    return lo, hi


def sqrt_lower(x: Rational, digits: int = 30) -> Fraction:
    return sqrt_enclosure(x, digits)[0]


def sqrt_upper(x: Rational, digits: int = 30) -> Fraction:
    return sqrt_enclosure(x, digits)[1]


def _in_float_range(x: Rational) -> Fraction:
    """x as a Fraction; InvalidInput, naming x, when |x| exceeds the
    largest float."""
    x = Fraction(x)
    if abs(x) > _FLOAT_MAX:
        from decimal import Decimal
        value = Decimal(x.numerator) / Decimal(x.denominator)
        raise InvalidInput(f"{value:.6e} is outside the float range")
    return x


def float_up(x: Rational) -> float:
    """Smallest representable float >= x (x exact rational)."""
    x = _in_float_range(x)
    f = x.numerator / x.denominator
    return f if Fraction(f) >= x else math.nextafter(f, math.inf)


def float_down(x: Rational) -> float:
    """Largest representable float <= x (x exact rational)."""
    x = _in_float_range(x)
    f = x.numerator / x.denominator
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)


class Surd:
    """Exact value ra + rb*sqrt(d), ra/rb rational, d a non-square
    positive integer. Immutable. Supports the operations the continued
    fraction layer needs: sign, floor, comparison with rationals, affine
    shifts and reciprocals. All decisions reduce to integer comparisons.
    """

    __slots__ = ("ra", "rb", "d")

    def __init__(self, ra: Rational, rb: Rational, d: int):
        if d < 2 or is_perfect_square(d):
            raise ValueError(f"d must be a non-square integer >= 2, got {d}")
        object.__setattr__(self, "ra", Fraction(ra))
        object.__setattr__(self, "rb", Fraction(rb))
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("Surd is immutable")

    def __repr__(self) -> str:
        return f"Surd({self.ra} + {self.rb}*sqrt({self.d}))"

    def __neg__(self) -> "Surd":
        return Surd(-self.ra, -self.rb, self.d)

    def __add__(self, other: Rational) -> "Surd":
        return Surd(self.ra + Fraction(other), self.rb, self.d)

    __radd__ = __add__

    def __sub__(self, other: Rational) -> "Surd":
        return Surd(self.ra - Fraction(other), self.rb, self.d)

    def __rsub__(self, other: Rational) -> "Surd":
        return Surd(Fraction(other) - self.ra, -self.rb, self.d)

    def __mul__(self, other: Rational) -> "Surd":
        r = Fraction(other)
        return Surd(self.ra * r, self.rb * r, self.d)

    __rmul__ = __mul__

    def reciprocal(self) -> "Surd":
        """1/(ra + rb*sqrt(d)) via conjugate; the norm ra^2 - rb^2*d is
        nonzero whenever the value is (rb != 0 makes it irrational)."""
        norm = self.ra * self.ra - self.rb * self.rb * self.d
        if norm == 0:
            raise ZeroDivisionError("zero norm")
        return Surd(self.ra / norm, -self.rb / norm, self.d)

    def sign(self) -> int:
        """Sign of ra + rb*sqrt(d), exactly. rb*sqrt(d) vs -ra reduces to
        comparing rb^2*d with ra^2 once the easy same-sign cases are out;
        equality cannot occur for rb != 0 since d is non-square."""
        if self.rb == 0:
            return (self.ra > 0) - (self.ra < 0)
        if self.rb > 0:
            if self.ra >= 0:
                return 1
            return 1 if self.rb * self.rb * self.d > self.ra * self.ra else -1
        return -(-self).sign()

    def compare(self, other: Rational) -> int:
        """Sign of self - other, exactly."""
        return (self - other).sign()

    def is_irrational(self) -> bool:
        return self.rb != 0

    def floor(self) -> int:
        """Exact floor. Clears denominators to (e + f*sqrt(d))/g and uses
        isqrt: for f > 0, f*sqrt(d) lies in the open interval (n, n+1)
        with n = isqrt(f^2 d), which contains no integers, so the floor
        of (e + f*sqrt(d))/g equals (e + n)//g."""
        g = math.lcm(self.ra.denominator, self.rb.denominator)
        e = self.ra.numerator * (g // self.ra.denominator)
        f = self.rb.numerator * (g // self.rb.denominator)
        if f == 0:
            return e // g
        n = math.isqrt(f * f * self.d)
        if f > 0:
            return (e + n) // g
        return (e - n - 1) // g

    def enclosure(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, width <= 2*|rb|*10**-digits."""
        lo, hi = sqrt_enclosure(self.d, digits)
        if self.rb >= 0:
            return self.ra + self.rb * lo, self.ra + self.rb * hi
        return self.ra + self.rb * hi, self.ra + self.rb * lo

    def to_float(self) -> float:
        lo, hi = self.enclosure(30)
        return float((lo + hi) / 2)
