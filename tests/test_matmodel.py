"""Clock and shift matrices, the four-term models, and spec handling.

Oracle strategy: tiny orders are pinned as exact literals; structural
claims (commutation, unitarity, hermiticity) are re-verified by dense
numpy products so the structured formulas never check themselves.
"""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from rotspec.errors import EmptySpec, InvalidInput, InvalidOrder
from rotspec.matmodel import (
    MatrixModel,
    OperatorSpec,
    _clock_diagonal,
    build_operator,
    spec_norm_bound,
)
from dense_oracle import clock, clock_shift_defects, dense_matrix, shift

CANONICAL = OperatorSpec.canonical(1, 1, 1, 1)


class TestSpec:
    def test_canonical_flags(self):
        assert CANONICAL.is_canonical
        assert CANONICAL.is_hermitian
        assert spec_norm_bound(CANONICAL) == 4.0

    def test_almost_mathieu_norm_bound(self):
        am = OperatorSpec.canonical(1, 1, 1.5, 1.5)
        assert spec_norm_bound(am) == 5.0

    def test_single_complex_term(self):
        s = OperatorSpec.general([(2, -1, 1 + 1j)])
        assert not s.is_canonical
        assert spec_norm_bound(s) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_general_merges_duplicates_and_drops_zeros(self):
        s = OperatorSpec.general([(1, 0, 2), (1, 0, -1), (0, 1, 0)])
        assert s.terms == ((1, 0, (1 + 0j)),)

    def test_u_plus_2v_detected_canonical(self):
        s = OperatorSpec.general([(1, 0, 1), (0, 1, 2)])
        assert s.is_canonical
        assert s.canonical_four_term == (1 + 0j, 0j, 2 + 0j, 0j)
        assert not s.is_hermitian

    def test_empty_rejected(self):
        with pytest.raises(EmptySpec):
            OperatorSpec.general([(1, 0, 0.0)])
        with pytest.raises(EmptySpec):
            OperatorSpec.general([])

    def test_canonical_keeps_zero_slots(self):
        s = OperatorSpec.canonical(1, 1, 0, 0)
        assert s.is_canonical
        assert s.canonical_four_term == (1 + 0j, 1 + 0j, 0j, 0j)
        assert s.is_hermitian

    def test_hermitian_detection(self):
        assert OperatorSpec.canonical(2j, -2j, 1, 1).is_hermitian
        assert not OperatorSpec.canonical(2j, 2j, 1, 1).is_hermitian
        # axis-supported pairs are hermitian at every model
        assert OperatorSpec.general([(2, 0, 1 + 2j), (-2, 0, 1 - 2j)]).is_hermitian
        assert OperatorSpec.general([(0, 3, 1j), (0, -3, -1j)]).is_hermitian
        # mixed terms pick up the omega^(jk) phase under the adjoint, so
        # conjugate pairing does not give hermitian matrices
        mixed = OperatorSpec.general([(1, 1, 1 + 1j), (-1, -1, 1 - 1j)])
        assert not mixed.is_hermitian
        a = dense_matrix(build_operator(mixed, 1, 3))
        assert not np.allclose(a, a.conj().T)

    def test_json_round_trip(self):
        for s in (CANONICAL, OperatorSpec.canonical(1j, -1j, 0.5, 0.5),
                  OperatorSpec.general([(2, -1, 1 + 1j), (0, 3, -2)])):
            doc = json.loads(json.dumps(s.to_json()))
            back = OperatorSpec.from_json(doc)
            assert back == s

    def test_non_finite_coefficients_rejected(self):
        for bad in (math.inf, -math.inf, math.nan, complex(0, math.inf)):
            with pytest.raises(InvalidInput):
                OperatorSpec.general([(1, 0, 1), (0, 1, bad)])
            with pytest.raises(InvalidInput):
                OperatorSpec.canonical(bad, 1, 1, 1)
        with pytest.raises(InvalidInput):  # inf - inf merges to nan
            OperatorSpec.general([(1, 0, math.inf), (1, 0, -math.inf)])
        for doc in ('{"canonical": {"a+": [Infinity, 0], "a-": [Infinity, 0]}}',
                    '{"canonical": {"a+": [NaN, 0]}}',
                    '{"terms": [{"u": 1, "v": 0, "re": 1, "im": Infinity}]}'):
            with pytest.raises(InvalidInput):
                OperatorSpec.from_json(json.loads(doc))

    def test_no_terms_is_the_canonical_zero_operator(self):
        for zero in (OperatorSpec.canonical(0, 0, 0, 0), OperatorSpec.from_json({"canonical": {}})):
            assert zero.terms == () and zero.canonical_four_term == (0j,) * 4
            assert spec_norm_bound(zero) == 0.0
            assert not build_operator(zero, 1, 3).values.size

    def test_powers_past_int64_reduce_mod_q(self):
        for j in (2 ** 64 + 5, -(2 ** 70) - 1):
            big = build_operator(OperatorSpec.general([(j, 3, 1j)]), 3, 7)
            small = build_operator(OperatorSpec.general([(j % 7, 3, 1j)]), 3, 7)
            assert np.array_equal(big.columns, small.columns)
            assert np.array_equal(big.values, small.values)

    def test_from_json_rejects_inconsistent_canonical_block(self):
        doc = CANONICAL.to_json()
        doc["canonical"]["a+"] = [2.0, 0.0]
        with pytest.raises(InvalidInput):
            OperatorSpec.from_json(doc)


class TestGenerators:
    def test_shift_2x2(self):
        u = dense_matrix(shift(2))
        assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_clock_1_2(self):
        v = dense_matrix(clock(1, 2))
        # exp(i*pi) in floats: real part rounds to exactly -1, the
        # imaginary part keeps the sin(pi) residual of about 1.2e-16
        assert v[0, 0] == 1.0
        assert v[1, 1].real == -1.0
        assert abs(v[1, 1].imag) < 1.3e-16
        assert v[0, 1] == 0 and v[1, 0] == 0

    def test_uv_pinned_2x2(self):
        u = dense_matrix(shift(2))
        v = dense_matrix(clock(1, 2))
        prod = u @ v
        assert prod[0, 0] == 0 and prod[1, 1] == 0
        assert prod[1, 0] == 1.0
        assert abs(prod[0, 1] - (-1.0)) < 1e-15

    def test_shift_is_cyclic_permutation(self):
        for q in (1, 2, 3, 7, 16):
            u = dense_matrix(shift(q))
            expect = np.zeros((q, q), dtype=complex)
            for i in range(q):
                expect[i, (i + 1) % q] = 1.0
            assert np.array_equal(u, expect)

    def test_clock_diagonal_phases(self):
        for p, q in ((1, 3), (2, 5), (3, 7), (5, 8)):
            v = dense_matrix(clock(p, q))
            diag = np.diag(v)
            oracle = np.exp(2j * np.pi * (np.arange(q) * p % q) / q)
            assert np.max(np.abs(diag - oracle)) < 1e-15
            assert np.count_nonzero(v - np.diag(diag)) == 0

    def test_column_major_storage(self):
        for m in (shift(5), clock(2, 5),
                  build_operator(CANONICAL, 2, 5)):
            assert m.entries.flags["F_CONTIGUOUS"]
            assert not m.entries.flags["WRITEABLE"]
            assert m.entries.tobytes() == dense_matrix(m).tobytes()

    def test_invalid_orders(self):
        with pytest.raises(InvalidOrder):
            shift(0)
        with pytest.raises(InvalidOrder):
            clock(1, -3)
        with pytest.raises(InvalidOrder):
            build_operator(CANONICAL, 1, 0)
        for p in (-1, 5):  # 0 <= p < q
            with pytest.raises(InvalidOrder, match=f"need 0 <= p < q, got p={p}, q=5"):
                build_operator(CANONICAL, p, 5)


# criterion 2's bounds on the defects of the shift and clock models
COMMUTATION_BOUND, UNITARITY_BOUND = 1e-12, 1e-13
GOLDEN_PAIRS = ((2, 3), (55, 89), (987, 1597))  # (q_{n-1}, q_n)


def omega(p: int, q: int) -> complex:
    return np.exp(2j * np.pi * p / q)


class TestCommutation:
    def test_defect_against_dense_product(self):
        for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8), (7, 16)):
            u = dense_matrix(shift(q))
            v = dense_matrix(clock(p, q))
            dense = np.linalg.norm(u @ v - omega(p, q) * (v @ u), 2)
            structural, _ = clock_shift_defects(shift(q), clock(p, q), omega(p, q))
            assert structural <= 1e-15
            # scaled permutation: 2-norm equals max modulus, and the
            # structural value reproduces the dense one exactly
            assert structural == pytest.approx(dense, abs=1e-16)

    def test_p_zero_exact(self):
        for q in (1, 2, 5, 9):
            assert clock_shift_defects(shift(q), clock(0, q), 1.0)[0] == 0.0

    def test_conjugated_clock_phases_break_the_bound(self, monkeypatch):
        # v* u = conj(omega) u v*, so a clock built with conjugated phases
        # misses omega by |omega - conj(omega)| = 2 |sin(2 pi p/q)|
        monkeypatch.setattr("rotspec.matmodel._clock_diagonal",
                            lambda p, q, power=1: np.conj(_clock_diagonal(p, q, power)))
        for p, q in GOLDEN_PAIRS:
            comm, unit = clock_shift_defects(shift(q), clock(p, q), omega(p, q))
            assert comm > COMMUTATION_BOUND
            assert unit <= UNITARITY_BOUND


class TestUnitarity:
    def test_shift_exact(self):
        for q in (1, 2, 3, 8, 51):
            assert clock_shift_defects(shift(q), clock(0, q), 1.0)[1] == 0.0

    def test_clock_near_machine(self):
        for p, q in ((1, 2), (2, 5), (3, 7), (13, 21)):
            _, d = clock_shift_defects(shift(q), clock(p, q), omega(p, q))
            assert d <= 1e-15
            a = dense_matrix(clock(p, q))
            dense = np.linalg.norm(a.conj().T @ a - np.eye(q), 2)
            assert abs(d - dense) <= 1e-15

    def test_one_term_model_is_a_scaled_permutation(self):
        # (2+i) u^2 v^3 has one entry of modulus sqrt(5) per row and
        # column, so A*A - I = 4 I up to rounding
        spec = OperatorSpec.general([(2, 3, 2 + 1j)])
        for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8), (8, 13)):
            model = build_operator(spec, p, q)
            a = dense_matrix(model)
            dense = np.linalg.norm(a.conj().T @ a - np.eye(q), 2)
            _, d = clock_shift_defects(model, clock(p, q), omega(p, q))
            assert d == pytest.approx(dense, abs=1e-14)
            assert d == pytest.approx(4.0, abs=1e-14)

    def test_one_scaled_value_breaks_the_bound(self):
        for p, q in GOLDEN_PAIRS:
            u, v = shift(q), clock(p, q)
            assert clock_shift_defects(u, v, omega(p, q))[1] <= UNITARITY_BOUND
            scale = np.ones(q)
            scale[q // 2] = 1 + 1e-9
            for pair in ((dataclasses.replace(u, values=u.values * scale), v),
                         (u, dataclasses.replace(v, values=v.values * scale))):
                assert clock_shift_defects(*pair, omega(p, q))[1] > UNITARITY_BOUND

class TestBuildOperator:
    def test_pinned_half_model(self):
        h = dense_matrix(build_operator(CANONICAL, 1, 2))
        assert np.array_equal(h, np.array([[2, 2], [2, -2]], dtype=complex))

    def test_exact_hermiticity_of_hermitian_specs(self):
        specs = [
            CANONICAL,
            OperatorSpec.canonical(1, 1, 1.5, 1.5),
            OperatorSpec.canonical(2j, -2j, 0.25 + 1j, 0.25 - 1j),
            OperatorSpec.general([(2, 0, 1 + 2j), (-2, 0, 1 - 2j),
                                  (0, 2, 0.5j), (0, -2, -0.5j)]),
        ]
        for spec in specs:
            for p, q in ((1, 3), (2, 5), (3, 8), (5, 13), (8, 21)):
                a = dense_matrix(build_operator(spec, p, q))
                assert np.array_equal(a, a.conj().T)

    def test_against_dense_power_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(8):
            q = int(rng.integers(2, 9))
            p = int(rng.integers(0, q))
            terms = []
            for _ in range(int(rng.integers(1, 5))):
                j = int(rng.integers(-3, 4))
                k = int(rng.integers(-3, 4))
                c = complex(rng.standard_normal(), rng.standard_normal())
                terms.append((j, k, c))
            try:
                spec = OperatorSpec.general(terms)
            except EmptySpec:
                continue
            u = dense_matrix(shift(q))
            v = dense_matrix(clock(p, q))
            dense = np.zeros((q, q), dtype=complex)
            for j, k, c in spec.terms:
                uj = np.linalg.matrix_power(u, j % q)
                vk = np.linalg.matrix_power(v, k % q)
                dense += c * (uj @ vk)
            built = dense_matrix(build_operator(spec, p, q))
            assert np.max(np.abs(built - dense)) < 1e-12

    def test_negative_power_is_exact_adjoint(self):
        # v^-1 must be the exact elementwise conjugate of v so that
        # hermitian specs produce exactly hermitian matrices
        for p, q in ((1, 3), (2, 5), (4, 9)):
            plus = dense_matrix(build_operator(OperatorSpec.general([(0, 1, 1)]), p, q))
            minus = dense_matrix(build_operator(OperatorSpec.general([(0, -1, 1)]), p, q))
            assert np.array_equal(minus, plus.conj().T)
            uplus = dense_matrix(build_operator(OperatorSpec.general([(1, 0, 1)]), p, q))
            uminus = dense_matrix(build_operator(OperatorSpec.general([(-1, 0, 1)]), p, q))
            assert np.array_equal(uminus, uplus.conj().T)

    def test_trace_vanishes(self):
        for p, q in ((1, 3), (2, 5), (3, 8)):
            h = dense_matrix(build_operator(CANONICAL, p, q))
            assert abs(np.trace(h)) < 1e-13

    def test_coefficient_near_the_float_range(self):
        # |c| = sum |c| = 1.41e308, so every c * omega^m is finite, but
        # numpy's vector complex multiply flagged an overflow at odd q
        c = complex(1e308, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = build_operator(OperatorSpec.general([(1, 1, c)]), 3, 5)
        assert np.isfinite(model.values).all()
        assert np.max(np.abs(np.abs(model.values) / abs(c) - 1)) <= 4 * np.finfo(float).eps

    def test_value_rounding_past_the_float_range_is_refused(self):
        # |c| rounds to the largest float, and the real part of c * omega^9
        # at q = 10 rounds past it
        c = 1.4543642967747877e308 + 1.056657512819493e308j
        spec = OperatorSpec.general([(0, 1, c)])
        assert math.isfinite(spec_norm_bound(spec))
        with pytest.raises(InvalidInput, match="at q=10 is outside the float range"):
            build_operator(spec, 1, 10)



class TestStructuralNormality:
    """OperatorSpec.is_normal, decided on the coefficients alone, against
    the dense normality test ||A A* - A* A||_2 <= 1e-10 * ||A||_2^2 of the
    model."""

    # exact binary values and values whose products round
    POOL = (0, 1, -2, 0.5, 0.1, 1 / 3, 0.1 + 1j / 3, -0.75 + 0.25j, 1j, 1.5 - 0.1j)
    # rotations whose products with a conjugate pair stay an exact pair
    ROTATIONS = (1, -1, 1j, 1 + 1j, 1 - 1j, -0.5 + 0.5j)

    def pattern(self, rng: np.random.Generator) -> OperatorSpec:
        x, y = (complex(self.POOL[i]) for i in rng.integers(len(self.POOL), size=2))
        kind = int(rng.integers(5))
        if kind == 0:  # (i) no V terms
            return OperatorSpec.canonical(x, y, 0, 0)
        if kind == 1:  # (ii) no U terms
            return OperatorSpec.canonical(0, 0, x, y)
        if kind == 2:  # (iii) a rotated Hermitian spec
            r = self.ROTATIONS[int(rng.integers(len(self.ROTATIONS)))]
            return OperatorSpec.canonical(r * x, r * x.conjugate(), r * y, r * y.conjugate())
        return OperatorSpec.canonical(*(self.POOL[i] for i in rng.integers(len(self.POOL), size=4)))

    def test_classes(self):
        assert CANONICAL.is_normal
        assert OperatorSpec.canonical(1, 2, 0, 0).is_normal
        assert OperatorSpec.canonical(0, 0, 1j, 3).is_normal
        assert OperatorSpec.canonical(0.25 + 0.75j, 0.75 + 0.25j, 1.5 + 0.5j, 0.5 + 1.5j).is_normal
        assert not OperatorSpec.canonical(1, 0, 2, 0).is_normal
        assert not OperatorSpec.general([(1, 1, 1.0)]).is_normal  # not canonical
        # normal within rounding only: e^{0.3i} times a Hermitian spec
        r, h, g = complex(math.cos(0.3), math.sin(0.3)), 0.7 - 0.2j, 1.3 + 0.4j
        spec = OperatorSpec.canonical(r * h, r * h.conjugate(), r * g, r * g.conjugate())
        assert not spec.is_normal

    def test_matches_the_dense_test_for_every_coprime_p(self):
        def is_normal(a: np.ndarray) -> bool:
            defect = a @ a.conj().T - a.conj().T @ a
            return np.linalg.norm(defect, 2) <= 1e-10 * np.linalg.norm(a, 2) ** 2

        rng = np.random.default_rng(2024)
        both = set()
        for q in range(3, 65):
            specs = [self.pattern(rng) for _ in range(4)]
            for p in (p for p in range(1, q) if math.gcd(p, q) == 1):
                for spec in specs:
                    dense = is_normal(dense_matrix(build_operator(spec, p, q)))
                    assert spec.is_normal == dense, (spec.canonical_four_term, p, q)
                    both.add(dense)
        assert both == {True, False}
