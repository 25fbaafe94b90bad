"""Exact rational arithmetic with outward rounding.

Every analytic constant that enters a certified error radius is produced
here as a pair of rationals (lower, upper) bracketing the true value, so
that downstream bounds can be rounded outward instead of trusting float
round-off. Quadratic surds a + b*sqrt(d) (class Surd) are exact numbers
that mix with ints and Fractions as far as the expansion needs: s - x for
an int, a Fraction or a same-radicand surd x, s * r for a rational r,
r / s, abs(s), -s, math.floor(s), the comparisons <, <=, >, >= and == in
either operand order, and hashing consistent with ==. Every decision is
made in exact integer arithmetic; no floating point is involved in any of
them.
"""

from __future__ import annotations

import functools
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


def _surd_sign(ra: Fraction, rb: Fraction, d: int) -> int:
    """Sign of ra + rb*sqrt(d), exactly. When ra and rb have opposite
    signs, the term with the larger square wins: rb^2*d against ra^2,
    never equal for rb != 0 since d is non-square."""
    sa, sb = (ra > 0) - (ra < 0), (rb > 0) - (rb < 0)
    if sa * sb >= 0:
        return sa or sb
    return sb if rb * rb * d > ra * ra else sa


@functools.total_ordering
class Surd:
    """Exact value ra + rb*sqrt(d), ra/rb rational, d a non-square
    integer >= 2. Immutable. Surds with different radicands are not
    compared or subtracted (ValueError); anything but an int, a Fraction
    or a Surd is not a Surd operand (TypeError, or == is False).
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

    def _parts(self, other) -> tuple[Rational, Rational]:
        """(ra, rb) of an int, a Fraction or a surd with this radicand."""
        if isinstance(other, Surd):
            if other.d != self.d:
                raise ValueError(f"surds with radicands {self.d} and {other.d}")
            return other.ra, other.rb
        if isinstance(other, (int, Fraction)):
            return other, 0
        raise TypeError(f"{type(other).__name__} is not a Surd operand")

    def __neg__(self) -> "Surd":
        return Surd(-self.ra, -self.rb, self.d)

    def __abs__(self) -> "Surd":
        return -self if self.sign() < 0 else self

    def __sub__(self, other) -> "Surd":
        ra, rb = self._parts(other)
        return Surd(self.ra - ra, self.rb - rb, self.d)

    def __mul__(self, other: Rational) -> "Surd":
        r = Fraction(other)
        return Surd(self.ra * r, self.rb * r, self.d)

    def __rtruediv__(self, other: Rational) -> "Surd":
        """other/(ra + rb*sqrt(d)) via the conjugate; the norm
        ra^2 - rb^2*d is nonzero whenever the value is (d is non-square)."""
        norm = self.ra * self.ra - self.rb * self.rb * self.d
        if norm == 0:
            raise ZeroDivisionError("zero norm")
        f = Fraction(other) / norm
        return Surd(self.ra * f, -self.rb * f, self.d)

    def sign(self) -> int:
        return _surd_sign(self.ra, self.rb, self.d)

    def compare(self, other) -> int:
        """Sign of self - other, exactly."""
        ra, rb = self._parts(other)
        return _surd_sign(self.ra - ra, self.rb - rb, self.d)

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Fraction, Surd)):
            return NotImplemented
        ra, rb = self._parts(other)
        return self.ra == ra and self.rb == rb

    def __hash__(self) -> int:
        # a surd with rb = 0 equals the rational ra and must hash like it
        return hash(self.ra) if self.rb == 0 else hash((self.ra, self.rb, self.d))

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

    __floor__ = floor

    def enclosure(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        """Rational interval containing the value, width <= 2*|rb|*10**-digits."""
        lo, hi = sqrt_enclosure(self.d, digits)
        if self.rb >= 0:
            return self.ra + self.rb * lo, self.ra + self.rb * hi
        return self.ra + self.rb * hi, self.ra + self.rb * lo
