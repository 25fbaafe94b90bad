"""Exact rational/surd arithmetic and outward rounding.

The pi enclosure is validated against an independent oracle: Machin's
formula pi/4 = 4*arctan(1/5) - arctan(1/239) evaluated in Fraction
arithmetic, where consecutive partial sums of the alternating arctan
series bracket the true value.
"""

import math
import random
import sys
from fractions import Fraction

import pytest

from rotspec.errors import InvalidInput
from rotspec.exact import (
    PI_HI,
    PI_LO,
    Surd,
    float_down,
    float_up,
    is_perfect_square,
    sqrt_enclosure,
    sqrt_lower,
    sqrt_upper,
)


def machin_pi_enclosure(terms: int = 40) -> tuple[Fraction, Fraction]:
    def atan_brackets(x: Fraction) -> tuple[Fraction, Fraction]:
        s = Fraction(0)
        sign = 1
        last_two = []
        for k in range(terms):
            s += sign * x ** (2 * k + 1) / (2 * k + 1)
            sign = -sign
            last_two = (last_two + [s])[-2:]
        lo, hi = sorted(last_two)
        return lo, hi

    a_lo, a_hi = atan_brackets(Fraction(1, 5))
    b_lo, b_hi = atan_brackets(Fraction(1, 239))
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


class TestPiEnclosure:
    def test_machin_oracle_brackets_constants(self):
        lo, hi = machin_pi_enclosure()
        assert hi - lo < Fraction(1, 10 ** 50)
        # PI_LO < pi (certified by lo > PI_LO) and pi < PI_HI
        assert PI_LO < lo
        assert hi < PI_HI

    def test_enclosure_width_is_one_ulp_of_39_digits(self):
        assert PI_HI - PI_LO == Fraction(1, 10 ** 39)

    def test_float_midpoint_matches_math_pi(self):
        assert float((PI_LO + PI_HI) / 2) == math.pi


class TestSquareRoots:
    def test_perfect_square_detection(self):
        squares = {k * k for k in range(100)}
        for n in range(1000):
            assert is_perfect_square(n) == (n in squares)

    def test_enclosure_brackets_value(self):
        random.seed(20240513)
        cases = [Fraction(2), Fraction(5), Fraction(3, 7), Fraction(10 ** 12, 17)]
        cases += [Fraction(random.randint(1, 10 ** 6), random.randint(1, 10 ** 4))
                  for _ in range(50)]
        for x in cases:
            lo, hi = sqrt_enclosure(x, digits=25)
            assert lo <= hi
            assert lo * lo <= x <= hi * hi
            assert hi - lo <= Fraction(1, 10 ** 25)

    def test_exact_square_gives_exact_lower(self):
        lo, hi = sqrt_enclosure(Fraction(49), digits=30)
        assert lo == 7
        assert hi - lo == Fraction(1, 7 * 10 ** 30) * 7  # 1/(den*scale) with den=1

    def test_lower_upper_split(self):
        x = Fraction(2)
        assert sqrt_lower(x) ** 2 <= x <= sqrt_upper(x) ** 2
        assert sqrt_lower(x) < sqrt_upper(x)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            sqrt_enclosure(Fraction(-1))


class TestOutwardFloatRounding:
    CASES = [
        Fraction(1, 3), Fraction(2, 3), Fraction(1, 10), Fraction(22, 7),
        Fraction(3, 4), Fraction(0), Fraction(-1, 3), Fraction(10 ** 20, 3),
        Fraction(1, 10 ** 20),
    ]

    def test_bracketing(self):
        for x in self.CASES:
            up, down = float_up(x), float_down(x)
            assert Fraction(down) <= x <= Fraction(up)

    def test_adjacency(self):
        for x in self.CASES:
            up, down = float_up(x), float_down(x)
            if Fraction(up) == x:
                assert down == up  # exactly representable
            else:
                # up is the smallest float above x: one step down crosses x
                assert Fraction(math.nextafter(up, -math.inf)) < x
                assert Fraction(math.nextafter(down, math.inf)) > x

    def test_exact_values_round_trip(self):
        for x in (Fraction(3, 4), Fraction(0), Fraction(5), Fraction(-7, 8)):
            assert float_up(x) == float_down(x) == float(x)

    def test_outside_the_float_range_is_invalid_input(self):
        top = Fraction(sys.float_info.max)
        assert float_up(top) == float_down(top) == sys.float_info.max
        assert float_up(-top) == float_down(-top) == -sys.float_info.max
        # 10**400 overflows the division; top + 2**-60 rounds to the top float
        for x in (Fraction(10 ** 400), Fraction(-10 ** 400, 3), top + Fraction(1, 2 ** 60)):
            for rounding in (float_up, float_down):
                with pytest.raises(InvalidInput, match="outside the float range"):
                    rounding(x)


def random_surd(rng: random.Random) -> Surd:
    non_squares = [2, 3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 15, 17, 19, 23]
    d = rng.choice(non_squares)
    ra = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
    rb = Fraction(rng.choice([x for x in range(-30, 31) if x != 0]), rng.randint(1, 20))
    return Surd(ra, rb, d)


class TestSurd:
    def test_rejects_square_d(self):
        with pytest.raises(ValueError):
            Surd(1, 1, 9)
        with pytest.raises(ValueError):
            Surd(1, 1, 1)

    def test_sign_floor_against_enclosure(self):
        rng = random.Random(112358)
        for _ in range(300):
            s = random_surd(rng)
            lo, hi = s.enclosure(digits=40)
            assert lo < hi
            # sign agrees with any rational enclosure that excludes zero
            if lo > 0:
                assert s.sign() == 1
            elif hi < 0:
                assert s.sign() == -1
            # floor agrees whenever the enclosure pins the integer part
            import math as _m
            if _m.floor(lo) == _m.floor(hi):
                assert s.floor() == _m.floor(lo)
            f = s.floor()
            assert Fraction(f) <= hi and lo <= Fraction(f + 1)

    def test_floor_matches_integer_definition(self):
        rng = random.Random(271828)
        for _ in range(200):
            s = random_surd(rng)
            f = s.floor()
            # f <= s < f+1, decided exactly
            assert s.compare(f) >= 0
            assert s.compare(f + 1) < 0

    def test_golden_ratio_conjugate(self):
        golden = Surd(Fraction(-1, 2), Fraction(1, 2), 5)  # (sqrt(5)-1)/2
        assert golden.sign() == 1
        assert golden.floor() == 0
        assert golden.compare(Fraction(618, 1000)) == 1
        assert golden.compare(Fraction(619, 1000)) == -1

    def test_reciprocal_exact_algebra(self):
        rng = random.Random(314159)
        for _ in range(100):
            s = random_surd(rng)
            r = 1 / s
            assert r.d == s.d
            # (a + b sqrt d)(x + y sqrt d) = (ax + byd) + (ay + bx) sqrt d = 1
            assert s.ra * r.ra + s.rb * r.rb * s.d == 1
            assert s.ra * r.rb + s.rb * r.ra == 0

    def test_affine_arithmetic(self):
        s = Surd(0, 1, 2)  # sqrt(2)
        t = 3 - s * 2      # 3 - 2*sqrt(2) > 0
        assert t.sign() == 1
        assert t.floor() == 0
        assert (s + 1).floor() == 2
        assert (-s).floor() == -2  # -1.414... floors to -2

    def test_immutable(self):
        s = Surd(0, 1, 2)
        with pytest.raises(AttributeError):
            s.ra = Fraction(1)


class TestSurdProtocol:
    """Surd mixes with ints and Fractions as an exact number: comparisons
    in both operand orders, ==, hashing, abs, math.floor and 1 / s, each
    checked against sign, floor and the enclosure."""

    def test_comparisons_both_orders(self):
        rng = random.Random(141421)
        for _ in range(300):
            s = random_surd(rng)
            for r in (rng.randint(-40, 40), Fraction(rng.randint(-400, 400), rng.randint(1, 30))):
                c = s.compare(r)
                assert c != 0  # an irrational never equals a rational
                assert (s < r, s <= r, s > r, s >= r) == (c < 0, c < 0, c > 0, c > 0)
                assert (r < s, r <= s, r > s, r >= s) == (c > 0, c > 0, c < 0, c < 0)
                assert s != r and r != s and not s == r and not r == s

    def test_same_radicand_surds(self):
        rng = random.Random(173205)
        for _ in range(200):
            s, t = random_surd(rng), random_surd(rng)
            t = Surd(t.ra, t.rb, s.d)
            assert (s < t) == ((s - t).sign() < 0) == (t > s)
            assert (s == t) == (s.ra == t.ra and s.rb == t.rb)
            assert s - t + t == s and t + (s - t) == s
        golden = Surd(Fraction(-1, 2), Fraction(1, 2), 5)
        assert golden < Surd(0, Fraction(1, 2), 5) and Surd(0, 1, 5) > golden
        with pytest.raises(ValueError):
            golden < Surd(0, 1, 2)  # different radicands
        with pytest.raises(TypeError):
            golden < 0.5  # a float is not an exact operand
        assert golden != "golden" and golden != 0.5

    def test_equal_values_hash_equal(self):
        a = Surd(Fraction(1, 2), Fraction(3, 4), 7)
        b = Surd(Fraction(2, 4), Fraction(6, 8), 7)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, Surd(1, 1, 7) - Fraction(1, 2) - Fraction(1, 4) * Surd(0, 1, 7)}) == 1
        # rb = 0 leaves a rational, which equals and hashes like the int or Fraction
        for r in (3, Fraction(-5, 7)):
            z = Surd(r, 0, 7)
            assert z == r and r == z and hash(z) == hash(r)
        assert Surd(0, 1, 2) - Surd(0, 1, 2) == 0

    def test_abs_floor_and_division(self):
        rng = random.Random(223606)
        for _ in range(300):
            s = random_surd(rng)
            a = abs(s)
            assert a.sign() == 1 and a in (s, -s)
            assert math.floor(s) == s.floor()
            lo, hi = s.enclosure(40)
            assert math.floor(s) <= hi and lo < math.floor(s) + 1
            r = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            q = r / s
            assert q.d == s.d
            assert q.ra * s.ra + q.rb * s.rb * s.d == r  # rational part of q*s
            assert q.ra * s.rb + q.rb * s.ra == 0        # sqrt(d) part of q*s
            assert 3 / s == (1 / s) * 3
        with pytest.raises(ZeroDivisionError):
            1 / Surd(0, 0, 2)
