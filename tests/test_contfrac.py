"""Continued-fraction expansion, certified gaps, and convergent tests.

Oracle strategy: quotient sequences for the golden conjugate
(sqrt(5)-1)/2 = [0;1,1,1,...], sqrt(2)-1 = [0;2,2,2,...] and
1/sqrt(2) = [0;1,2,2,2,...] are classical closed forms asserted
directly; every quantitative claim (gaps, bounds, Fibonacci growth) is
re-derived in exact Fraction arithmetic inside the test.
"""

import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from rotspec.contfrac import (
    BigRational,
    DecimalString,
    QuadraticSurd,
    convergent_gap,
    expand,
    fibonacci,
    fibonacci_growth_check,
    is_convergent,
    parse_theta,
    round_nearest,
    sufficient_condition_check,
    tail_constant_enclosure,
    tail_sum_bound,
    theta_float,
)
from rotspec.errors import (
    CertificateViolation,
    IndexOutOfRange,
    InsufficientTerms,
    InvalidInput,
    PrecisionExhausted,
)

GOLDEN = "surd:(-1+1*sqrt(5))/2"
SQRT2M1 = "surd:(-1+1*sqrt(2))/1"
INV_SQRT2 = "surd:(0+1*sqrt(2))/2"


class TestParseTheta:
    def test_rational(self):
        th = parse_theta("rational:7/10")
        assert isinstance(th, BigRational)
        assert (th.numerator, th.denominator) == (7, 10)
        assert str(th) == "rational:7/10"

    def test_rational_reduces(self):
        th = parse_theta("rational:14/20")
        assert (th.numerator, th.denominator) == (7, 10)

    def test_surd(self):
        th = parse_theta(GOLDEN)
        assert isinstance(th, QuadraticSurd)
        assert (th.a, th.b, th.d, th.c) == (-1, 1, 5, 2)
        assert str(th) == GOLDEN

    def test_decimal(self):
        th = parse_theta("decimal:0.6180339887")
        assert isinstance(th, DecimalString)
        assert th.precision == 10
        lo, hi = th.interval()
        assert hi - lo == 2 * Fraction(1, 10 ** 10)

    @pytest.mark.parametrize("bad", [
        "rational:7/0", "rational:x/2", "surd:(1+0*sqrt(2))/2",
        "surd:(1+1*sqrt(4))/2", "surd:(1+1*sqrt(2))/0", "decimal:5",
        "decimal:.5x", "golden", "", "rational:7/10 ",
    ])
    def test_rejects(self, bad):
        with pytest.raises(InvalidInput):
            parse_theta(bad)


class TestExpansion:
    def test_golden_quotients_all_one(self):
        e = expand(parse_theta(GOLDEN), 40)
        assert e.partial_quotients == (1,) * 40
        assert e.periodic_part == (0, 1)
        assert e.exact and not e.terminated

    def test_golden_convergents_are_fibonacci(self):
        e = expand(parse_theta(GOLDEN), 40)
        assert e.convergents[:7] == ((0, 1), (1, 1), (1, 2), (2, 3), (3, 5),
                                     (5, 8), (8, 13))
        assert e.q(40) == 165580141

    def test_sqrt2_minus_1(self):
        e = expand(parse_theta(SQRT2M1), 20)
        assert e.partial_quotients == (2,) * 20
        assert e.periodic_part == (0, 1)
        assert e.convergents[:4] == ((0, 1), (1, 2), (2, 5), (5, 12))

    def test_inv_sqrt2_has_preperiod(self):
        e = expand(parse_theta(INV_SQRT2), 20)
        assert e.partial_quotients == (1,) + (2,) * 19
        assert e.periodic_part == (1, 1)

    def test_rational_terminates(self):
        e = expand(parse_theta("rational:7/10"), 10)
        assert e.partial_quotients == (1, 2, 3)
        assert e.convergents == ((0, 1), (1, 1), (2, 3), (7, 10))
        assert e.terminated

    def test_rational_truncated_by_budget(self):
        e = expand(parse_theta("rational:7/10"), 2)
        assert e.partial_quotients == (1, 2)
        assert not e.terminated

    def test_convergent_recursion_and_determinant(self):
        # the dataclass re-asserts these; re-derive here independently
        e = expand(parse_theta(SQRT2M1), 25)
        a = e.partial_quotients
        p = [0, a[0] * 0 + 1]
        q = [1, a[0] * 1 + 0]
        for k in range(2, len(a) + 1):
            p.append(a[k - 1] * p[k - 1] + p[k - 2])
            q.append(a[k - 1] * q[k - 1] + q[k - 2])
        assert list(e.convergents) == list(zip(p, q))
        for k in range(1, len(e.convergents)):
            pk, qk = e.convergents[k]
            pm, qm = e.convergents[k - 1]
            assert pk * qm - pm * qk == (-1) ** (k - 1)
            assert math.gcd(pk, qk) == 1

    def test_decimal_prefix_agrees_with_surd_route(self):
        dec = parse_theta("decimal:0.6180339887")
        surd = expand(parse_theta(GOLDEN), 30)
        # find how deep the decimal certifies, then check the full prefix
        try:
            e = expand(dec, 30)
            certified = e.n_terms
        except PrecisionExhausted as exc:
            certified = exc.certified_terms
        assert certified >= 8
        e = expand(dec, certified)
        assert e.partial_quotients == surd.partial_quotients[:certified]
        assert not e.exact

    def test_decimal_one_half_exhausts_immediately(self):
        with pytest.raises(PrecisionExhausted) as err:
            expand(parse_theta("decimal:0.5"), 5)
        assert err.value.certified_terms == 0

    def test_unit_interval_enforced(self):
        for text in ("rational:3/2", "rational:0/1", "rational:-1/3",
                     "surd:(0+1*sqrt(2))/1", "decimal:0.0"):
            with pytest.raises(InvalidInput):
                expand(parse_theta(text), 5)

    def test_convergent_accessors(self):
        e = expand(parse_theta(GOLDEN), 5)
        assert e.convergent(0) == (0, 1)
        assert e.p(4) == 3 and e.q(4) == 5
        with pytest.raises(IndexOutOfRange):
            e.convergent(6)
        with pytest.raises(IndexOutOfRange):
            e.convergent(-1)


class TestGapBound:
    def test_golden_gap_values(self):
        e = expand(parse_theta(GOLDEN), 12)
        g1 = convergent_gap(e, 1)
        # |theta - 1| = 1 - (sqrt(5)-1)/2 = (3-sqrt(5))/2 = 0.3819660...
        assert abs(g1.gap_float - 0.38196601125010515) < 1e-15
        assert g1.bound == Fraction(1, 1 * 2)
        g4 = convergent_gap(e, 4)
        # |theta - 3/5| = (sqrt(5)-1)/2 - 3/5 = (5*sqrt(5)-11)/10
        assert abs(g4.gap_float - 0.018033988749894848) < 1e-15
        assert g4.bound == Fraction(1, 5 * 8)
        assert g4.strict and g4.squared_bound_holds and g4.certified

    def test_sqrt2_gap_value(self):
        e = expand(parse_theta(SQRT2M1), 8)
        g2 = convergent_gap(e, 2)
        # |sqrt(2)-1 - 2/5| = sqrt(2) - 7/5 = 0.0142135...
        assert abs(g2.gap_float - (math.sqrt(2) - 1.4)) < 1e-15
        assert g2.bound == Fraction(1, 5 * 12)

    def test_enclosure_brackets_bound(self):
        for text in (GOLDEN, SQRT2M1, INV_SQRT2):
            e = expand(parse_theta(text), 15)
            for n in range(0, 14):
                g = convergent_gap(e, n)
                assert g.gap_lower <= g.gap_upper
                assert g.gap_upper < g.bound  # strict inequality, certified
                if n >= 1:
                    assert g.bound < Fraction(1, g.q) ** 2
                    assert g.squared_bound_holds

    def test_rational_equality_at_last_interior_index(self):
        e = expand(parse_theta("rational:7/10"), 10)
        g = convergent_gap(e, 2)  # |7/10 - 2/3| = 1/30 = 1/(3*10) exactly
        assert g.exact_gap == Fraction(1, 30) == g.bound
        assert not g.strict
        g1 = convergent_gap(e, 1)
        assert g1.exact_gap == Fraction(3, 10) < g1.bound
        assert g1.strict

    @staticmethod
    def tampered(text: str):
        """Expansion whose q_6 is 10 times too large, set past the
        dataclass's own recursion checks."""
        e = expand(parse_theta(text), 12)
        conv = list(e.convergents)
        conv[6] = (conv[6][0], 10 * conv[6][1])
        object.__setattr__(e, "convergents", tuple(conv))
        return e

    @pytest.mark.parametrize("text", [GOLDEN, "rational:89/144"])
    def test_violated_gap_raises(self, text):
        with pytest.raises(CertificateViolation):
            convergent_gap(self.tampered(text), 5)

    def test_violated_gap_raises_without_asserts(self):
        # python -O strips assert statements; the certificate must not
        # depend on them
        code = textwrap.dedent("""
            from rotspec.contfrac import convergent_gap, expand, parse_theta
            from rotspec.errors import CertificateViolation
            for text in ("surd:(-1+1*sqrt(5))/2", "rational:89/144"):
                e = expand(parse_theta(text), 12)
                conv = list(e.convergents)
                conv[6] = (conv[6][0], 10 * conv[6][1])
                object.__setattr__(e, "convergents", tuple(conv))
                try:
                    convergent_gap(e, 5)
                except CertificateViolation:
                    continue
                raise SystemExit("no violation raised for " + text)
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stdout + run.stderr

    def test_needs_next_convergent(self):
        e = expand(parse_theta(GOLDEN), 5)
        with pytest.raises(IndexOutOfRange):
            convergent_gap(e, 5)

    def test_decimal_gap_certified_when_interval_allows(self):
        dec = parse_theta("decimal:0.6180339887")
        e = expand(dec, 8)
        g = convergent_gap(e, 4)
        assert g.certified
        assert g.gap_lower <= Fraction(1, 10 ** 9) + g.gap_upper


class TestTailBounds:
    def test_tail_constant_value(self):
        lo, hi = tail_constant_enclosure()
        # 2*sqrt(5)/(sqrt(5)-1) = (5+sqrt(5))/2 = 3.6180339887...
        target = (5 + math.sqrt(5)) / 2
        assert float(lo) == pytest.approx(target, abs=1e-12)
        assert float(hi) == pytest.approx(target, abs=1e-12)
        assert lo < hi
        # independent check: T = (5+sqrt(5))/2 means (2T-5)^2 = 5
        assert (2 * lo - 5) ** 2 < 5 < (2 * hi - 5) ** 2

    def test_tail_sum_bound_dominates_true_tail(self):
        e = expand(parse_theta(GOLDEN), 40)
        for n in (2, 5, 8):
            bound = tail_sum_bound(e, n)
            true_tail = sum(Fraction(1, e.q(n + k)) for k in range(0, 30))
            assert true_tail < bound
        assert abs(float(tail_sum_bound(e, 5)) - 3.6180339887498949 / 8) < 1e-12

    def test_fibonacci_convention(self):
        assert [fibonacci(k) for k in range(8)] == [1, 1, 2, 3, 5, 8, 13, 21]

    def test_fibonacci_growth_sweep(self):
        for text in (GOLDEN, SQRT2M1, INV_SQRT2, "rational:355/452"):
            e = expand(parse_theta(text), 12)
            top = len(e.convergents) - 1
            for n in range(0, top):
                for k in range(0, top - n):
                    assert fibonacci_growth_check(e, n, k)

    def test_growth_check_range(self):
        e = expand(parse_theta(GOLDEN), 5)
        with pytest.raises(IndexOutOfRange):
            fibonacci_growth_check(e, 3, 10)


class TestConvergentDetection:
    def test_is_convergent_hits(self):
        e = expand(parse_theta(GOLDEN), 10)
        assert is_convergent(2, 3, e) == 3
        assert is_convergent(1, 2, e) == 2
        assert is_convergent(3, 7, e) is None

    def test_insufficient_terms(self):
        e = expand(parse_theta(GOLDEN), 4)  # q_4 = 5
        with pytest.raises(InsufficientTerms):
            is_convergent(8, 13, e)

    def test_rejects_unreduced_or_out_of_range(self):
        e = expand(parse_theta(GOLDEN), 10)
        with pytest.raises(InvalidInput):
            is_convergent(2, 4, e)  # gcd 2
        with pytest.raises(InvalidInput):
            is_convergent(3, 2, e)  # p >= q

    def test_sufficient_condition_pins(self):
        th = parse_theta(GOLDEN)
        assert sufficient_condition_check(2, 3, th)
        assert sufficient_condition_check(1, 2, th)
        assert not sufficient_condition_check(3, 7, th)

    def test_sufficient_condition_implies_convergent(self):
        # Legendre direction: any p/q passing the check must appear among
        # the convergents
        for text in (GOLDEN, SQRT2M1, INV_SQRT2):
            th = parse_theta(text)
            e = expand(th, 25)
            for q in range(2, 40):
                for p in range(1, q):
                    if math.gcd(p, q) != 1:
                        continue
                    if sufficient_condition_check(p, q, th):
                        assert is_convergent(p, q, e) is not None

    def test_golden_convergents_satisfy_sufficient_condition(self):
        # for the golden conjugate the gap is ~1/(sqrt(5) q^2), and
        # sqrt(5) > 2, so every convergent n >= 1 passes
        th = parse_theta(GOLDEN)
        e = expand(th, 15)
        for n in range(2, 15):
            p, q = e.convergent(n)
            assert sufficient_condition_check(p, q, th)


class TestRoundNearest:
    def test_golden_cases(self):
        th = parse_theta(GOLDEN)
        assert round_nearest(th, 10) == (6, False)   # 6.18...
        assert round_nearest(th, 1) == (1, False)    # 0.618 rounds to 1
        assert round_nearest(th, 50) == (31, False)  # 30.9...
        assert round_nearest(th, 200) == (124, False)

    def test_exact_integer_no_tie(self):
        th = parse_theta("rational:1/3")
        assert round_nearest(th, 3) == (1, False)
        assert round_nearest(th, 6) == (2, False)

    def test_half_integer_tie_breaks_to_even(self):
        th = parse_theta("rational:1/2")
        assert round_nearest(th, 1) == (0, True)   # 0.5 -> 0 (even)
        assert round_nearest(th, 3) == (2, True)   # 1.5 -> 2 (even)
        th4 = parse_theta("rational:1/4")
        assert round_nearest(th4, 2) == (0, True)  # 0.5 -> 0

    def test_decimal_midpoint(self):
        th = parse_theta("decimal:0.6180339887")
        assert round_nearest(th, 10) == (6, False)

    def test_rejects_bad_n(self):
        with pytest.raises(InvalidInput):
            round_nearest(parse_theta(GOLDEN), 0)


class TestThetaFloat:
    def test_values(self):
        assert theta_float(parse_theta(GOLDEN)) == pytest.approx(
            (math.sqrt(5) - 1) / 2, abs=1e-15)
        assert theta_float(parse_theta("rational:7/10")) == 0.7
        assert theta_float(parse_theta("decimal:0.25")) == 0.25
