"""Clock and shift matrices, the four-term models, and spec handling.

Oracle strategy: tiny orders are pinned as exact literals; structural
claims (commutation, unitarity, hermiticity) are re-verified by dense
numpy products so the structured formulas never check themselves.
"""

import json
import math

import numpy as np
import pytest

from rotspec.errors import EmptySpec, InvalidInput, InvalidOrder
from rotspec.matmodel import (
    MatrixModel,
    OperatorSpec,
    build_operator,
    clock_matrix,
    commutation_defect,
    shift_matrix,
    spec_norm_bound,
    unitarity_defect,
)

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
        a = build_operator(mixed, 1, 3).entries
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

    def test_from_json_rejects_inconsistent_canonical_block(self):
        doc = CANONICAL.to_json()
        doc["canonical"]["a+"] = [2.0, 0.0]
        with pytest.raises(InvalidInput):
            OperatorSpec.from_json(doc)


class TestGenerators:
    def test_shift_2x2(self):
        u = shift_matrix(2).entries
        assert np.array_equal(u, np.array([[0, 1], [1, 0]], dtype=complex))

    def test_clock_1_2(self):
        v = clock_matrix(1, 2).entries
        # exp(i*pi) in floats: real part rounds to exactly -1, the
        # imaginary part keeps the sin(pi) residual of about 1.2e-16
        assert v[0, 0] == 1.0
        assert v[1, 1].real == -1.0
        assert abs(v[1, 1].imag) < 1.3e-16
        assert v[0, 1] == 0 and v[1, 0] == 0

    def test_uv_pinned_2x2(self):
        u = shift_matrix(2).entries
        v = clock_matrix(1, 2).entries
        prod = u @ v
        assert prod[0, 0] == 0 and prod[1, 1] == 0
        assert prod[1, 0] == 1.0
        assert abs(prod[0, 1] - (-1.0)) < 1e-15

    def test_shift_is_cyclic_permutation(self):
        for q in (1, 2, 3, 7, 16):
            u = shift_matrix(q).entries
            expect = np.zeros((q, q), dtype=complex)
            for i in range(q):
                expect[i, (i + 1) % q] = 1.0
            assert np.array_equal(u, expect)

    def test_clock_diagonal_phases(self):
        for p, q in ((1, 3), (2, 5), (3, 7), (5, 8)):
            v = clock_matrix(p, q).entries
            diag = np.diag(v)
            oracle = np.exp(2j * np.pi * (np.arange(q) * p % q) / q)
            assert np.max(np.abs(diag - oracle)) < 1e-15
            assert np.count_nonzero(v - np.diag(diag)) == 0

    def test_column_major_storage(self):
        for m in (shift_matrix(5), clock_matrix(2, 5),
                  build_operator(CANONICAL, 2, 5)):
            assert m.entries.flags["F_CONTIGUOUS"]
            assert not m.entries.flags["WRITEABLE"]

    def test_invalid_orders(self):
        with pytest.raises(InvalidOrder):
            shift_matrix(0)
        with pytest.raises(InvalidOrder):
            clock_matrix(1, -3)
        with pytest.raises(InvalidOrder):
            build_operator(CANONICAL, 1, 0)


class TestCommutation:
    def test_defect_against_dense_product(self):
        for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8), (7, 16)):
            u = shift_matrix(q).entries
            v = clock_matrix(p, q).entries
            omega = np.exp(2j * np.pi * p / q)
            dense = np.linalg.norm(u @ v - omega * (v @ u), 2)
            structural = commutation_defect(p, q)
            assert structural <= 1e-15
            # scaled permutation: 2-norm equals max modulus, and the
            # structural value reproduces the dense one exactly
            assert structural == pytest.approx(dense, abs=1e-16)

    def test_p_zero_exact(self):
        for q in (1, 2, 5, 9):
            assert commutation_defect(0, q) == 0.0


class TestUnitarity:
    def test_shift_exact(self):
        for q in (1, 2, 3, 8, 51):
            assert unitarity_defect(shift_matrix(q)) == 0.0

    def test_clock_near_machine(self):
        for p, q in ((1, 2), (2, 5), (3, 7), (13, 21)):
            d = unitarity_defect(clock_matrix(p, q))
            assert d <= 1e-15
            a = clock_matrix(p, q).entries
            dense = np.linalg.norm(a.conj().T @ a - np.eye(q), 2)
            assert abs(d - dense) <= 1e-15

    def test_one_term_model_is_a_scaled_permutation(self):
        # (2+i) u^2 v^3 has one entry of modulus sqrt(5) per row and
        # column, so A*A - I = 4 I up to rounding
        spec = OperatorSpec.general([(2, 3, 2 + 1j)])
        for p, q in ((0, 1), (1, 2), (1, 3), (2, 5), (3, 8), (8, 13)):
            model = build_operator(spec, p, q)
            a = model.entries
            dense = np.linalg.norm(a.conj().T @ a - np.eye(q), 2)
            assert unitarity_defect(model) == pytest.approx(dense, abs=1e-14)
            assert unitarity_defect(model) == pytest.approx(4.0, abs=1e-14)


class TestBuildOperator:
    def test_pinned_half_model(self):
        h = build_operator(CANONICAL, 1, 2).entries
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
                a = build_operator(spec, p, q).entries
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
            u = shift_matrix(q).entries
            v = clock_matrix(p, q).entries
            dense = np.zeros((q, q), dtype=complex)
            for j, k, c in spec.terms:
                uj = np.linalg.matrix_power(u, j % q)
                vk = np.linalg.matrix_power(v, k % q)
                dense += c * (uj @ vk)
            built = build_operator(spec, p, q).entries
            assert np.max(np.abs(built - dense)) < 1e-12

    def test_negative_power_is_exact_adjoint(self):
        # v^-1 must be the exact elementwise conjugate of v so that
        # hermitian specs produce exactly hermitian matrices
        for p, q in ((1, 3), (2, 5), (4, 9)):
            plus = build_operator(OperatorSpec.general([(0, 1, 1)]), p, q).entries
            minus = build_operator(OperatorSpec.general([(0, -1, 1)]), p, q).entries
            assert np.array_equal(minus, plus.conj().T)
            uplus = build_operator(OperatorSpec.general([(1, 0, 1)]), p, q).entries
            uminus = build_operator(OperatorSpec.general([(-1, 0, 1)]), p, q).entries
            assert np.array_equal(uminus, uplus.conj().T)

    def test_trace_vanishes(self):
        for p, q in ((1, 3), (2, 5), (3, 8)):
            h = build_operator(CANONICAL, p, q).entries
            assert abs(np.trace(h)) < 1e-13

