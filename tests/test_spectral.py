"""Eigensolvers and the banded smallest-singular-value kernels.

Oracle strategy: closed forms for circulants and clock diagonals, dense
LAPACK eigvalsh against the banded Hermitian route and against rotated
Hermitian models, and np.linalg.eigvals of the dense entries against the
routes a spec picks (normal_eigenvalues).
No route takes an SVD: the grid routes (distances, the banded
Gram-Cholesky test) are checked point by point against np.linalg.svd in
test_pseudospectra.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import rotspec.spectral as spectral
from rotspec.approx import hausdorff_distance
from rotspec.errors import ConvergenceFailure, ModelsNotNormal, NotHermitian
from rotspec.matmodel import (
    MatrixModel,
    OperatorSpec,
    _clock_diagonal,
    build_operator,
    spec_norm_bound,
)
from rotspec.pseudospectra import compute_grid
from rotspec.spectral import (
    _circulant_eigenvalues,
    _interleaved_band,
    hermitian_eigenvalues,
    normal_eigenvalues,
)
from dense_oracle import dense_matrix, shift


def sort_complex(values) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    return v[np.lexsort((v.imag, v.real))]


class SpyLapack:
    """A stand-in for spectral._lapack(): records the name of each LAPACK
    function read from it, and hands out the replacement given for that
    name or else the real function."""

    def __init__(self, **replacements):
        self.real = spectral._lapack()
        self.replacements = replacements
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return self.replacements.get(name) or getattr(self.real, name)


def assert_multiset_close(got, expected, tol=1e-10):
    """Greedy nearest matching: robust when floating noise in tied real
    parts makes the lexicographic order of exact ties unpredictable."""
    got = list(np.asarray(got, dtype=complex))
    expected = list(np.asarray(expected, dtype=complex))
    assert len(got) == len(expected)
    for e in expected:
        idx = int(np.argmin([abs(g - e) for g in got]))
        assert abs(got[idx] - e) < tol, f"no match for {e}: nearest {got[idx]}"
        got.pop(idx)


class TestRoutesReturnArrays:
    def test_each_route_returns_its_eigenvalues_as_an_array(self):
        normal = build_operator(OperatorSpec.canonical(1j, 1j, 2j, 2j), 3, 7)
        hermitian = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 3, 8)
        spec_routes = [(normal_eigenvalues(build_operator(OperatorSpec.canonical(*c), p, 8)),
                        np.complex128, 8)
                       for c in ((1, 2, 0, 0), (0, 0, 1, 2j), (1j, 1j, 2j, 2j)) for p in (2, 3)]
        for got, dtype, n in ((hermitian_eigenvalues(hermitian), np.float64, 8),
                              (normal_eigenvalues(hermitian), np.float64, 8),
                              (normal_eigenvalues(build_operator(hermitian.spec, 1, 2)),
                               np.float64, 2),
                              (normal_eigenvalues(normal), np.complex128, 7),
                              (_circulant_eigenvalues(1, 2j, 9), np.complex128, 9),
                              *spec_routes):
            assert type(got) is np.ndarray and got.dtype == dtype and got.shape == (n,)
            if dtype is np.float64:
                assert np.all(np.diff(got) >= 0)
            else:
                assert np.array_equal(got, sort_complex(got))


class TestHermitian:
    def test_pinned_half_model(self):
        h = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 1, 2)
        ev = hermitian_eigenvalues(h)
        r = 2 * math.sqrt(2)
        assert np.allclose(ev, [-r, r], atol=1e-12)

    def test_identity(self):
        ev = spectral._band_eigenvalues(np.eye(4, dtype=complex))
        assert np.array_equal(ev, np.ones(4))

    def test_u_plus_ustar_q3(self):
        h = build_operator(OperatorSpec.general([(1, 0, 1), (-1, 0, 1)]), 0, 3)
        ev = hermitian_eigenvalues(h)
        assert np.allclose(ev, [-1, -1, 2], atol=1e-12)

    def test_values_ascending(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        a = (z + z.conj().T) / 2
        ev = spectral._band_eigenvalues(a)
        assert np.all(np.diff(ev) >= 0)
        assert np.allclose(ev, np.linalg.eigvalsh(a), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues(shift(3))

    def test_model_of_a_non_hermitian_spec_is_refused_before_densifying(self):
        # the spec decides at every order: U's model at q = 2 is a Hermitian
        # matrix, but U is not a Hermitian operator
        shift = build_operator(OperatorSpec.general([(1, 0, 1)]), 1, 2)
        for model in (build_operator(OperatorSpec.canonical(1, 0, 2, 0), 377, 610), shift):
            with pytest.raises(NotHermitian, match="spec is not Hermitian"):
                hermitian_eigenvalues(model)
            assert "entries" not in vars(model)
        assert np.array_equal(dense_matrix(shift), dense_matrix(shift).conj().T)

    def test_weyl_stability(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        a = (z + z.conj().T) / 2
        e = rng.standard_normal((10, 10))
        e = (e + e.T) / 2 * 1e-6
        va = spectral._band_eigenvalues(a)
        vb = spectral._band_eigenvalues(a + e)
        assert np.max(np.abs(va - vb)) <= np.linalg.norm(e, 2) + 1e-12


def random_phase(rng: np.random.Generator, modulus: float = 1.0) -> complex:
    return modulus * complex(np.exp(2j * np.pi * rng.random()))


def hermitian_axis_spec(rng: np.random.Generator, u_powers, v_powers) -> OperatorSpec:
    """Hermitian general spec: conjugate pairs c U^j + conj(c) U^-j and
    d V^k + conj(d) V^-k with random-phase coefficients."""
    terms = []
    for j in u_powers:
        c = random_phase(rng, 1 + rng.random())
        terms += [(j, 0, c), (-j, 0, c.conjugate())]
    for k in v_powers:
        d = random_phase(rng, 1 + rng.random())
        terms += [(0, k, d), (0, -k, d.conjugate())]
    return OperatorSpec.general(terms)


class TestBandedHermitian:
    """The banded route, as grids of Hermitian arrays take it, against dense
    eigvalsh, within 1e-12 * max(1, ||A||)."""

    GOLDEN_Q = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)

    @staticmethod
    def assert_matches_eigvalsh(a: np.ndarray) -> None:
        expect = np.linalg.eigvalsh(a)
        got = spectral._band_eigenvalues(a)
        norm = float(np.max(np.abs(expect)))  # ||A||_2 of a Hermitian A
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, norm)

    def test_canonical_random_phases_small_q(self):
        rng = np.random.default_rng(41)
        for q in range(1, 41):
            a, b = random_phase(rng), random_phase(rng, 2.0)
            spec = OperatorSpec.canonical(a, a.conjugate(), b, b.conjugate())
            h = build_operator(spec, int(rng.integers(q)), q)
            assert _interleaved_band(dense_matrix(h)).shape == (2 * min(3, q) - 1, q)
            self.assert_matches_eigvalsh(dense_matrix(h))

    def test_canonical_golden_convergents(self):
        rng = np.random.default_rng(42)
        for p, q in zip((0,) + self.GOLDEN_Q, self.GOLDEN_Q):
            a, b = random_phase(rng), random_phase(rng)
            spec = OperatorSpec.canonical(a, a.conjugate(), b, b.conjugate())
            self.assert_matches_eigvalsh(dense_matrix(build_operator(spec, p % q, q)))

    def test_general_specs_bandwidth_2j(self):
        rng = np.random.default_rng(43)
        for u_powers in ((1, 2), (2,), (1, 3), (3,)):
            spec = hermitian_axis_spec(rng, u_powers, (1, 2))
            j = max(u_powers)
            for q in (7, 13, 34, 89):
                h = dense_matrix(build_operator(spec, int(rng.integers(1, q)), q))
                assert _interleaved_band(h).shape == (4 * j + 1, q)
                self.assert_matches_eigvalsh(h)

    def test_clock_part_alone_is_diagonal(self):
        h = dense_matrix(build_operator(OperatorSpec.canonical(0, 0, 1, 1), 21, 34))
        assert _interleaved_band(h).shape == (1, 34)
        self.assert_matches_eigvalsh(h)

    def test_dense_matrix_full_bandwidth(self):
        rng = np.random.default_rng(44)
        z = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        a = (z + z.conj().T) / 2
        assert _interleaved_band(a).shape == (79, 40)
        self.assert_matches_eigvalsh(a)

    def test_zero_matrix(self):
        assert np.array_equal(spectral._band_eigenvalues(np.zeros((3, 3))), np.zeros(3))


def dense_slotwise_build(spec: OperatorSpec, p: int, q: int) -> np.ndarray:
    """The dense builder that stored models replaced, kept as their
    oracle: every term accumulated slot-wise into a q x q array, in term
    order."""
    entries = np.zeros((q, q), dtype=np.complex128, order="F")
    rows = np.arange(q)
    for j, k, c in spec.terms:
        cols = (rows + j) % q
        entries[rows, cols] += c * _clock_diagonal(p, q, power=k)[cols]
    return entries


def colliding_terms(rng: np.random.Generator, q: int, count: int) -> list:
    """count random terms, each with a partner at (j +- q, k +- q): the
    partner shares its slots (u-powers agree mod q) and its phases (v-powers
    agree mod q)."""
    terms = []
    for _ in range(count):
        j, k = (int(x) for x in rng.integers(-3, 4, size=2))
        shift = q * int(rng.choice((-1, 1)))
        terms += [(j, k, complex(*rng.standard_normal(2))),
                  (j + shift, k + shift, complex(*rng.standard_normal(2)))]
    return terms


class TestModelNonzeros:
    """Models are stored as nonzeros; their dense entries and their band
    must reproduce the dense slot-wise builder bit for bit."""

    def test_entries_and_band_match_dense_builder(self):
        rng = np.random.default_rng(61)
        cases = [(int(rng.integers(q)), q) for q in range(1, 8) for _ in range(20)]
        golden = TestBandedHermitian.GOLDEN_Q
        cases += [(p % q, q) for p, q in zip((0,) + golden, golden)]
        for p, q in cases:
            spec = OperatorSpec.general(colliding_terms(rng, q, 3))
            model = build_operator(spec, p, q)
            assert "entries" not in vars(model)
            dense = dense_slotwise_build(spec, p, q)
            assert dense_matrix(model).tobytes() == dense.tobytes()
            # entries, the dense view that bench/check.py reads, is the same matrix
            assert model.entries.tobytes() == dense.tobytes()
            band, dense_band = _interleaved_band(model), _interleaved_band(dense)
            assert band.shape == dense_band.shape
            assert band.tobytes() == dense_band.tobytes()

    def test_exact_cancellation_leaves_no_band_rows(self):
        # i U^2 - i U^-2 vanishes at q = 4, where U^2 = U^-2
        spec = OperatorSpec.general([(2, 0, 1j), (-2, 0, -1j), (0, 1, 1), (0, -1, 1)])
        model = build_operator(spec, 1, 4)
        assert _interleaved_band(model).tobytes() == \
            _interleaved_band(dense_slotwise_build(spec, 1, 4)).tobytes()
        assert _interleaved_band(model).shape == (1, 4)

    def test_hermitian_specs_whose_entries_are_not_bit_hermitian(self):
        # colliding powers sum in different orders above and below the
        # diagonal, so some entries are Hermitian only up to a few ulps;
        # the spec decides, and the band solve still matches eigvalsh
        rng = np.random.default_rng(62)
        not_bit_hermitian = 0
        for q in range(1, 8):
            for _ in range(30):
                u_powers = rng.choice(np.arange(1, 2 * q + 1), size=min(2, 2 * q),
                                      replace=False)
                v_powers = rng.choice(np.arange(1, 2 * q + 1), size=min(2, 2 * q),
                                      replace=False)
                spec = hermitian_axis_spec(rng, u_powers.tolist(), v_powers.tolist())
                assert spec.is_hermitian
                model = build_operator(spec, int(rng.integers(q)), q)
                got = hermitian_eigenvalues(model)
                assert "entries" not in vars(model)
                a = dense_matrix(model)
                not_bit_hermitian += not np.array_equal(a, a.conj().T)
                expect = np.linalg.eigvalsh(a)
                assert np.max(np.abs(got - expect)) <= \
                    1e-12 * max(1.0, float(np.max(np.abs(expect))))
        assert not_bit_hermitian > 0

    def test_hermitian_route_never_builds_dense_entries(self):
        import tracemalloc

        spectral._lapack()  # loaded outside the measured window

        tracemalloc.start()
        try:
            model = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 1597, 2584)
            values = hermitian_eigenvalues(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "entries" not in vars(model)
        assert values.shape == (2584,)
        assert peak < 16 << 20  # the dense matrix alone is 107 MB


def assert_same_spectrum(got, want, tol):
    """By Hausdorff distance, and by the sorted real parts, imaginary parts
    and moduli, which carry the multiplicities. (Elementwise, exact ties
    on paper flip their lexicographic order.)"""
    assert got.shape == want.shape
    assert hausdorff_distance(got, want) <= tol
    for part in (np.real, np.imag, np.abs):
        assert np.max(np.abs(np.sort(part(got)) - np.sort(part(want)))) <= tol


class TestCirculant:
    def test_shift_only_roots_of_unity(self):
        ev = _circulant_eigenvalues(1.0, 0.0, 4)
        assert np.allclose(sort_complex(ev),
                           sort_complex(np.exp(2j * np.pi * np.arange(4) / 4)),
                           atol=1e-14)

    def test_matches_matrix_route(self):
        for ap, am, q in ((1, 1, 4), (1, 1, 7), (2j, -0.5, 5), (1 + 1j, 0, 6)):
            analytic = _circulant_eigenvalues(ap, am, q)
            spec_terms = [(1, 0, ap)] + ([(-1, 0, am)] if am != 0 else [])
            h = build_operator(OperatorSpec.general(spec_terms), 0, q)
            numeric = np.linalg.eigvals(dense_matrix(h))
            assert_same_spectrum(analytic, numeric, 1e-12 * max(1.0, abs(ap) + abs(am)))


class TestSpecRoutes:
    """normal_eigenvalues on classes (i), (ii) and (iii) against
    np.linalg.eigvals of the dense entries, within 1e-12 * max(1, sum |c|)
    (assert_same_spectrum)."""

    def test_classes_match_the_normal_route_at_every_p(self):
        rng = np.random.default_rng(11)
        rotations = (1j, -1j, 1 + 1j, 1 - 1j, 0.5 + 0.5j, -0.5 + 0.5j, -1 - 1j)
        for q in range(1, 25):  # u = u* at q <= 2, and the routes hold there too
            # dyadic parts keep a rotated conjugate pair an exact pair
            x, y = (complex(*rng.integers(-16, 17, size=2) / 8) or 1 for _ in range(2))
            r = rotations[q % len(rotations)]
            u, v = (complex(*rng.standard_normal(2)) for _ in range(2))
            specs = [OperatorSpec.canonical(u, v, 0, 0), OperatorSpec.canonical(0, 0, u, v),
                     OperatorSpec.canonical(r * x, r * x.conjugate(), r * y, r * y.conjugate())]
            for spec in specs:
                assert spec.is_normal and not spec.is_hermitian
                scale = max(1.0, spec_norm_bound(spec))
                for p in range(q):  # p sharing a factor with q too, as in one_sided
                    model = build_operator(spec, p, q)
                    got = normal_eigenvalues(model)
                    want = np.linalg.eigvals(dense_matrix(model))
                    assert got.shape == (q,)
                    assert_same_spectrum(got, want, 1e-12 * scale)

    def test_no_u_terms_is_the_model_diagonal_bit_for_bit(self):
        for q in (13, 21, 89):
            for p in (1, 5, q - 1):
                spec = OperatorSpec.canonical(0, 0, 1.3 - 0.2j, 0.1 + 1j / 3)
                model = build_operator(spec, p, q)
                diagonal = np.sort(np.diag(dense_matrix(model)), kind="stable")
                assert np.array_equal(normal_eigenvalues(model), diagonal)

    def test_non_normal_spec_builds_no_model(self, monkeypatch):
        model = build_operator(OperatorSpec.canonical(1, 0, 2, 0), 3, 8)
        monkeypatch.setattr(spectral, "build_operator", None)  # any build would fail
        with pytest.raises(ModelsNotNormal):
            normal_eigenvalues(model)


class TestModelAtHand:
    """normal_eigenvalues and compute_grid solve the model they are handed:
    a Hermitian or class (i) spec's model makes them build nothing, and a
    class (iii) model makes them build its rotated Hermitian model once."""

    @staticmethod
    def spy(monkeypatch):
        built, real = [], spectral.build_operator

        def build(spec, p, q):
            built.append((spec, p, q))
            return real(spec, p, q)

        monkeypatch.setattr(spectral, "build_operator", build)
        return built

    def test_hermitian_and_class_i_models_build_nothing(self, monkeypatch):
        models = [build_operator(OperatorSpec.canonical(*c), 34, 55)
                  for c in ((1, 1, 1, 1), (1, 2, 0, 0))]
        built = self.spy(monkeypatch)
        for model in models:
            normal_eigenvalues(model)
            compute_grid(model, (-4, 4, -1, 1), (5, 3))
            assert "entries" not in vars(model)
        assert built == []

    def test_class_iii_builds_only_its_rotated_model(self, monkeypatch):
        model = build_operator(OperatorSpec.canonical(1j, 1j, 2j, 2j), 34, 55)
        built = self.spy(monkeypatch)
        rotated = (OperatorSpec.canonical(1, 1, 2, 2), 34, 55)
        normal_eigenvalues(model)
        assert built == [rotated]
        compute_grid(model, (-4, 4, -4, 4), (5, 3))
        assert built == [rotated] * 2 and "entries" not in vars(model)


# exact rotations: their products with a conjugate pair stay an exact pair
ROTATIONS = (1j, -1, -1j, 1 + 1j)


class TestNormal:
    """normal_eigenvalues of a model takes the route its spec picks, and
    refuses a model of a spec that is not normal."""

    def test_shift4_roots(self):
        ev = normal_eigenvalues(shift(4))
        expect = sort_complex([1, -1, 1j, -1j])
        assert np.allclose(ev, expect, atol=1e-12)

    def test_diagonal(self):
        # (1 + 2i) v + 3 v* at p/q = 1/2 is diag(4 + 2i, -4 - 2i)
        ev = normal_eigenvalues(build_operator(OperatorSpec.canonical(0, 0, 1 + 2j, 3), 1, 2))
        assert np.allclose(ev, [-4 - 2j, 4 + 2j], atol=1e-15)

    def test_planted_with_repeated_eigenvalue(self):
        # v takes each cube root of unity twice at p/q = 2/6
        model = build_operator(OperatorSpec.canonical(0, 0, 1 + 1j, 0), 2, 6)
        roots = (1 + 1j) * np.exp(2j * np.pi * np.arange(3) / 3)
        assert_multiset_close(normal_eigenvalues(model), np.repeat(roots, 2), tol=1e-15)

    def test_ordering_lexicographic(self):
        for spec in (OperatorSpec.canonical(1, 1j, 0, 0), OperatorSpec.canonical(0, 0, 2, 1j),
                     OperatorSpec.canonical(1j, 1j, 2j, 2j)):
            for p, q in ((1, 2), (3, 8), (5, 12)):
                ev = normal_eigenvalues(build_operator(spec, p, q))
                assert ev.dtype == np.complex128 and np.array_equal(ev, sort_complex(ev))

    def test_stable_sort_is_the_lexsort_bit_for_bit(self):
        # numpy orders complex values by real part, then imaginary part,
        # and the stable sort keeps exact ties (-0.0 == 0.0 among them) in
        # input order, as a lexsort on (imag, real) does
        rng = np.random.default_rng(31)
        parts = np.array([-1.0, -0.0, 0.0, 0.5, 2.0])
        for size in (1, 2, 7, 40, 300):
            for _ in range(20):
                v = np.empty(size, dtype=complex)
                v.real, v.imag = rng.choice(parts, size), rng.choice(parts, size)
                got = np.sort(v, kind="stable")
                assert got.tobytes() == v[np.lexsort((v.imag, v.real))].tobytes()
        # the circulant oracle's real parts 2cos(2 pi k/q) tie in pairs
        ev = _circulant_eigenvalues(1, 1, 12)
        assert ev.tobytes() == sort_complex(ev).tobytes()

    def test_trace_and_determinant_invariants(self):
        rng = np.random.default_rng(13)
        for q in (3, 6):
            x, y = (complex(*rng.integers(-8, 9, size=2) / 8) or 1 for _ in range(2))
            r = ROTATIONS[q % len(ROTATIONS)]
            for spec in (OperatorSpec.canonical(x, y, 0, 0), OperatorSpec.canonical(0, 0, x, y),
                         OperatorSpec.canonical(r * x, r * x.conjugate(),
                                                r * y, r * y.conjugate())):
                a = build_operator(spec, 1, q)
                ev = normal_eigenvalues(a)
                assert np.sum(ev) == pytest.approx(np.trace(dense_matrix(a)), abs=1e-9)
                assert np.prod(ev) == pytest.approx(np.linalg.det(dense_matrix(a)), abs=1e-8)

    def test_rotated_hermitian_golden_models(self):
        # e^{i phi} H is normal with spectrum e^{i phi} sigma(H): class
        # (iii), solved on its rotated Hermitian model
        rng = np.random.default_rng(47)
        for i, (p, q) in enumerate(zip((0,) + TestBandedHermitian.GOLDEN_Q[:12],
                                       TestBandedHermitian.GOLDEN_Q[:13])):
            a, b = random_phase(rng), random_phase(rng)
            r = ROTATIONS[i % len(ROTATIONS)]
            spec = OperatorSpec.canonical(r * a, r * a.conjugate(), r * b, r * b.conjugate())
            assert spec.is_normal
            h = dense_matrix(build_operator(
                OperatorSpec.canonical(a, a.conjugate(), b, b.conjugate()), p % q, q))
            expect = np.linalg.eigvalsh(h)
            got = normal_eigenvalues(build_operator(spec, p % q, q)) / r  # onto the real line
            norm = float(np.max(np.abs(expect)))
            assert got.shape == expect.shape
            got = got[np.argsort(got.real)]
            assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, norm)

    def test_hermitian_input_agrees_with_hermitian_route(self):
        for p, q in ((0, 1), (1, 2), (3, 8), (55, 89)):
            model = build_operator(OperatorSpec.canonical(1, 1, 1, 1), p, q)
            assert np.array_equal(normal_eigenvalues(model), hermitian_eigenvalues(model))

    def test_non_normal_spec_is_refused(self):
        # U + 2V is not normal, though its models at q <= 2 are Hermitian
        for p, q in ((0, 1), (1, 2), (3, 8)):
            with pytest.raises(ModelsNotNormal):
                normal_eigenvalues(build_operator(OperatorSpec.canonical(1, 0, 2, 0), p, q))


class TestBandCholesky:
    """The band kernel's layout, against dense oracles: a stack of P
    Hermitian band matrices G_p of half-bandwidth w, held as a real
    diagonal[c, p] = G_p[c, c] and complex off[c, d - 1, p] = G_p[c + d, c],
    factored as inv[c, p] = 1/L[c, c] and f (laid out like off).

    Rounding margin: a Cholesky factor of a band of half-bandwidth w at
    order q has a backward error below about (w + 2) q eps ||G|| (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, thm 10.3), under
    4e-14 ||G|| here, and eigvalsh's values are as close; MARGIN is 1e-12
    ||G||, ||G|| the largest |eigenvalue|."""

    MARGIN = 1e-12
    POINTS = 5
    SIZES = [(q, w) for w in (2, 6) for q in (1, 2, 8, 40)]

    @staticmethod
    def stack(q: int, w: int, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(diagonal, off, dense) of random Hermitian band matrices with
        smallest eigenvalues between 1e-3 and 1 (from a random band H,
        less its own smallest eigenvalue); off is 0 past the matrix."""
        points = TestBandCholesky.POINTS
        dense = np.zeros((points, q, q), dtype=complex)
        for d in range(1, min(w, q - 1) + 1):
            c, shape = np.arange(q - d), (points, q - d)
            values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            dense[:, c + d, c], dense[:, c, c + d] = values, values.conj()
        dense[:, np.arange(q), np.arange(q)] = rng.standard_normal((points, q))
        lift = 10.0 ** rng.uniform(-3, 0, points) - np.linalg.eigvalsh(dense)[:, 0]
        dense[:, np.arange(q), np.arange(q)] += lift[:, None]
        off = np.zeros((q, w, points), dtype=complex)
        for d in range(1, min(w, q - 1) + 1):
            off[:q - d, d - 1] = dense[:, np.arange(d, q), np.arange(q - d)].T
        return dense.diagonal(axis1=1, axis2=2).real.T.copy(), off, dense

    @staticmethod
    def lower(inv: np.ndarray, f: np.ndarray, p: int) -> np.ndarray:
        """Point p's dense factor L."""
        q, w, _ = f.shape
        low = np.diag(1 / inv[:, p]).astype(complex)
        for d in range(1, min(w, q - 1) + 1):
            low[np.arange(d, q), np.arange(q - d)] = f[:q - d, d - 1, p]
        return low

    @pytest.mark.parametrize("q, w", SIZES)
    def test_ok_decides_the_sign_of_the_smallest_eigenvalue(self, q, w):
        rng = np.random.default_rng(q * 10 + w)
        diagonal, off, dense = self.stack(q, w, rng)
        eigs = np.linalg.eigvalsh(dense)
        margin = self.MARGIN * np.abs(eigs).max(axis=1)
        factor = spectral._band_cholesky(diagonal, off)
        for shift, passes in ((eigs[:, 0] - 2 * margin, True), (eigs[:, 0] + 2 * margin, False),
                              (eigs[:, 0] - 1, True), (eigs[:, -1] + 1, False)):
            inv, f, ok = factor(shift)
            assert (ok == passes).all(), (shift - eigs[:, 0], ok)
            for p in range(self.POINTS) if passes else ():
                low = self.lower(inv, f, p)
                target = dense[p] - shift[p] * np.eye(q)
                assert np.abs(low @ low.conj().T - target).max() <= margin[p]

    @pytest.mark.parametrize("q, w", SIZES)
    def test_band_solve_inverts_the_factor(self, q, w):
        rng = np.random.default_rng(q * 10 + w + 1)
        diagonal, off, dense = self.stack(q, w, rng)
        shift = np.linalg.eigvalsh(dense)[:, 0] - 0.5
        inv, f, ok = spectral._band_cholesky(diagonal, off)(shift)
        assert ok.all()
        x = rng.standard_normal((q, self.POINTS)) + 1j * rng.standard_normal((q, self.POINTS))
        y = spectral._band_solve(inv, f, x)
        for p in range(self.POINTS):
            expect = np.linalg.solve(dense[p] - shift[p] * np.eye(q), x[:, p])
            assert np.linalg.norm(y[:, p] - expect) <= 1e-10 * np.linalg.norm(expect)

    @pytest.mark.parametrize("q, w", SIZES)
    def test_an_indefinite_point_fails_alone(self, q, w):
        # a negative pivot at one point turns only that point's ok false,
        # and leaves every other point's factor the same bit for bit
        rng = np.random.default_rng(q * 10 + w + 2)
        diagonal, off, dense = self.stack(q, w, rng)
        shift = np.linalg.eigvalsh(dense)[:, 0] - 0.5
        inv, f, ok = (a.copy() for a in spectral._band_cholesky(diagonal, off)(shift))
        assert ok.all()
        planted, row = int(rng.integers(self.POINTS)), int(rng.integers(q))
        diagonal[row, planted] = shift[planted] - 1  # G_p - shift_p I has -1 on its diagonal
        inv_2, f_2, ok_2 = spectral._band_cholesky(diagonal, off)(shift)
        assert np.flatnonzero(~ok_2).tolist() == [planted]
        others = np.arange(self.POINTS) != planted
        assert np.array_equal(inv_2[:, others], inv[:, others])
        assert np.array_equal(f_2[:, :, others], f[:, :, others])


class TestLapackHandle:
    """spectral._lapack() is scipy's own LAPACK module, and the routes call
    it exactly as scipy.linalg's public functions do: these tests hold the
    routes to those functions bit for bit, so a relayout of scipy fails
    here."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def test_hermitian_route_is_eig_banded_bit_for_bit(self):
        rng = np.random.default_rng(71)
        arrays = []
        for p, q in ((0, 1), (1, 2), (2, 3), (55, 89), (610, 987)):
            a, b = random_phase(rng), random_phase(rng, 2.0)
            for spec in (OperatorSpec.canonical(1, 1, 1, 1),
                         OperatorSpec.canonical(a, a.conjugate(), b, b.conjugate())):
                arrays.append(build_operator(spec, p, q))
        for n in (1, 2, 7, 40):
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            arrays.append((z + z.conj().T) / 2)
        for a in arrays:
            band = _interleaved_band(a)
            expect = scipy.linalg.eig_banded(band[band.shape[0] // 2:], lower=True,
                                             eigvals_only=True)
            # a model's entry, or the solve a grid of a Hermitian array takes
            got = (hermitian_eigenvalues(a) if isinstance(a, MatrixModel)
                   else spectral._band_eigenvalues(a))
            assert got.dtype == expect.dtype and np.array_equal(got, expect)

    def test_handle_is_scipy_linalgs_module(self):
        lapack = spectral._lapack()
        assert lapack is spectral._lapack()
        assert lapack is sys.modules["scipy.linalg._flapack"]
        assert scipy.linalg.lapack.zhbevd is lapack.zhbevd

    def test_loaded_first_then_shared_with_scipy_linalg(self):
        # a fresh interpreter, so the handle loads the file itself
        code = "\n".join([
            "import sys",
            "import numpy as np",
            "import rotspec.spectral as spectral",
            "from rotspec.matmodel import OperatorSpec, build_operator",
            "lapack = spectral._lapack()",
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))",
            "import scipy.linalg",
            "print(scipy.linalg.lapack.zhbevd is lapack.zhbevd,",
            "      sys.modules['scipy.linalg._flapack'] is lapack)",
            "model = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 34, 55)",
            "band = spectral._interleaved_band(model)",
            "expect = scipy.linalg.eig_banded(band[2:], lower=True, eigvals_only=True)",
            "print(np.array_equal(spectral.hermitian_eigenvalues(model), expect))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(self.SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["['scipy.linalg._flapack']", "True True", "True"]

    def test_missing_extension_names_the_path(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(spectral.importlib.util, "find_spec",
                            lambda name: SimpleNamespace(submodule_search_locations=[str(tmp_path)]))
        with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
            spectral._lapack.__wrapped__()

    def test_nonzero_info_from_zhbevd_is_a_convergence_failure(self, monkeypatch):
        lapack = SpyLapack(zhbevd=lambda ab, **kwargs: (np.zeros(ab.shape[1]), None, 2))
        monkeypatch.setattr(spectral, "_lapack", lambda: lapack)
        model = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 2, 3)
        with pytest.raises(ConvergenceFailure, match=r"zhbevd.*info=2"):
            hermitian_eigenvalues(model)
        assert lapack.calls == ["zhbevd"]

