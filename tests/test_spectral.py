"""Eigensolvers and smallest singular values.

Oracle strategy: planted-spectrum constructions (unitary conjugations of
known diagonals), closed forms for circulants and 2x2 Jordan blocks,
and dense LAPACK eigvalsh against the banded Hermitian route and against
the normal route on rotated Hermitian models. sigma_min has one route,
the SVD; its grid values are checked point by point against
np.linalg.svd in test_pseudospectra.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from rotspec.errors import NotHermitian, NotNormal
from rotspec.matmodel import OperatorSpec, _clock_diagonal, build_operator, shift_matrix
from rotspec.spectral import (
    _interleaved_band,
    circulant_four_term_eigenvalues,
    hermitian_eigenvalues,
    is_normal,
    normal_eigenvalues,
    operator_norm,
    sigma_min_stack,
    smallest_singular_value,
)


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def sort_complex(values) -> np.ndarray:
    v = np.asarray(values, dtype=complex)
    return v[np.lexsort((v.imag, v.real))]


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


class TestHermitian:
    def test_pinned_half_model(self):
        h = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 1, 2)
        ev = hermitian_eigenvalues(h)
        r = 2 * math.sqrt(2)
        assert np.allclose(ev.values, [-r, r], atol=1e-12)
        assert ev.method_tag == "hermitian"

    def test_identity(self):
        ev = hermitian_eigenvalues(np.eye(4, dtype=complex))
        assert np.array_equal(ev.values, np.ones(4))

    def test_u_plus_ustar_q3(self):
        h = build_operator(OperatorSpec.general([(1, 0, 1), (-1, 0, 1)]), 0, 3)
        ev = hermitian_eigenvalues(h)
        assert np.allclose(ev.values, [-1, -1, 2], atol=1e-12)

    def test_values_ascending(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        a = (z + z.conj().T) / 2
        ev = hermitian_eigenvalues(a)
        assert np.all(np.diff(ev.values) >= 0)
        assert np.allclose(ev.values, np.linalg.eigvalsh(a), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(NotHermitian):
            hermitian_eigenvalues(shift_matrix(3))

    def test_weyl_stability(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
        a = (z + z.conj().T) / 2
        e = rng.standard_normal((10, 10))
        e = (e + e.T) / 2 * 1e-6
        va = hermitian_eigenvalues(a).values
        vb = hermitian_eigenvalues(a + e).values
        assert np.max(np.abs(va - vb)) <= operator_norm(e) + 1e-12


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
    """The banded route against dense eigvalsh, within 1e-12 * max(1, ||A||)."""

    GOLDEN_Q = (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987)

    @staticmethod
    def assert_matches_eigvalsh(a: np.ndarray) -> None:
        expect = np.linalg.eigvalsh(a)
        got = hermitian_eigenvalues(a).values
        norm = float(np.max(np.abs(expect)))  # ||A||_2 of a Hermitian A
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, norm)

    def test_canonical_random_phases_small_q(self):
        rng = np.random.default_rng(41)
        for q in range(1, 41):
            a, b = random_phase(rng), random_phase(rng, 2.0)
            spec = OperatorSpec.canonical(a, a.conjugate(), b, b.conjugate())
            h = build_operator(spec, int(rng.integers(q)), q)
            assert _interleaved_band(h.entries).shape == (min(3, q), q)
            self.assert_matches_eigvalsh(h.entries)

    def test_canonical_golden_convergents(self):
        rng = np.random.default_rng(42)
        for p, q in zip((0,) + self.GOLDEN_Q, self.GOLDEN_Q):
            a, b = random_phase(rng), random_phase(rng)
            spec = OperatorSpec.canonical(a, a.conjugate(), b, b.conjugate())
            self.assert_matches_eigvalsh(build_operator(spec, p % q, q).entries)

    def test_general_specs_bandwidth_2j(self):
        rng = np.random.default_rng(43)
        for u_powers in ((1, 2), (2,), (1, 3), (3,)):
            spec = hermitian_axis_spec(rng, u_powers, (1, 2))
            j = max(u_powers)
            for q in (7, 13, 34, 89):
                h = build_operator(spec, int(rng.integers(1, q)), q).entries
                assert _interleaved_band(h).shape == (2 * j + 1, q)
                self.assert_matches_eigvalsh(h)

    def test_clock_part_alone_is_diagonal(self):
        h = build_operator(OperatorSpec.canonical(0, 0, 1, 1), 21, 34).entries
        assert _interleaved_band(h).shape == (1, 34)
        self.assert_matches_eigvalsh(h)

    def test_dense_matrix_full_bandwidth(self):
        rng = np.random.default_rng(44)
        z = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
        a = (z + z.conj().T) / 2
        assert _interleaved_band(a).shape == (40, 40)
        self.assert_matches_eigvalsh(a)

    def test_zero_and_empty(self):
        assert np.array_equal(hermitian_eigenvalues(np.zeros((3, 3))).values, np.zeros(3))
        assert hermitian_eigenvalues(np.zeros((0, 0))).values.shape == (0,)


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
            assert model.entries.flags["F_CONTIGUOUS"]
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

    def test_hermitian_specs_pass_the_check_they_skip(self):
        # colliding powers sum in different orders above and below the
        # diagonal, so some entries are Hermitian only up to a few ulps;
        # the numeric check must still accept every one of them
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
                got = hermitian_eigenvalues(model).values
                assert "entries" not in vars(model)
                a = model.entries
                not_bit_hermitian += not np.array_equal(a, a.conj().T)
                assert np.array_equal(hermitian_eigenvalues(a).values, got)
                expect = np.linalg.eigvalsh(a)
                assert np.max(np.abs(got - expect)) <= \
                    1e-12 * max(1.0, float(np.max(np.abs(expect))))
        assert not_bit_hermitian > 0

    def test_hermitian_route_never_builds_dense_entries(self):
        import tracemalloc

        import scipy.linalg  # noqa: F401  (imported outside the measured window)

        tracemalloc.start()
        try:
            model = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 1597, 2584)
            values = hermitian_eigenvalues(model).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "entries" not in vars(model)
        assert values.shape == (2584,)
        assert peak < 16 << 20  # the dense matrix alone is 107 MB


class TestCirculant:
    def test_shift_only_roots_of_unity(self):
        ev = circulant_four_term_eigenvalues(1.0, 0.0, 4)
        assert np.allclose(sort_complex(ev.values),
                           sort_complex(np.exp(2j * np.pi * np.arange(4) / 4)),
                           atol=1e-14)

    def test_matches_matrix_route(self):
        for ap, am, q in ((1, 1, 4), (1, 1, 7), (2j, -0.5, 5), (1 + 1j, 0, 6)):
            analytic = circulant_four_term_eigenvalues(ap, am, q)
            spec_terms = [(1, 0, ap)] + ([(-1, 0, am)] if am != 0 else [])
            h = build_operator(OperatorSpec.general(spec_terms), 0, q)
            numeric = normal_eigenvalues(h)
            assert np.allclose(analytic.values, numeric.values, atol=1e-12)


class TestNormal:
    def test_shift4_roots(self):
        ev = normal_eigenvalues(shift_matrix(4))
        expect = sort_complex([1, -1, 1j, -1j])
        assert np.allclose(ev.values, expect, atol=1e-12)

    def test_diagonal(self):
        ev = normal_eigenvalues(np.diag([1 + 2j, 3 + 0j]))
        assert np.allclose(ev.values, [1 + 2j, 3 + 0j], atol=1e-15)

    def test_planted_spectrum(self):
        rng = np.random.default_rng(101)
        for trial in range(6):
            n = int(rng.integers(3, 12))
            lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = random_unitary(rng, n)
            a = u @ np.diag(lam) @ u.conj().T
            ev = normal_eigenvalues(a)
            assert np.allclose(ev.values, sort_complex(lam), atol=1e-10)

    def test_planted_with_clustered_real_parts(self):
        # eigenvalues sharing a real part force the two-stage solver to
        # split the H1 cluster using H2
        rng = np.random.default_rng(77)
        lam = np.array([1 + 1j, 1 - 1j, 1 + 0.5j, 2.0 + 0j])
        u = random_unitary(rng, 4)
        a = u @ np.diag(lam) @ u.conj().T
        ev = normal_eigenvalues(a)
        assert_multiset_close(ev.values, lam)

    def test_planted_with_repeated_eigenvalue(self):
        rng = np.random.default_rng(78)
        lam = np.array([1 + 1j, 1 + 1j, -2 + 0j])
        u = random_unitary(rng, 3)
        a = u @ np.diag(lam) @ u.conj().T
        ev = normal_eigenvalues(a)
        assert_multiset_close(ev.values, lam)

    def test_ordering_lexicographic(self):
        ev = normal_eigenvalues(np.diag([1 + 1j, 1 - 1j, 0 + 0j]))
        assert np.allclose(ev.values, [0, 1 - 1j, 1 + 1j], atol=1e-15)

    def test_trace_and_determinant_invariants(self):
        rng = np.random.default_rng(13)
        u = random_unitary(rng, 6)
        lam = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        a = u @ np.diag(lam) @ u.conj().T
        ev = normal_eigenvalues(a)
        assert np.sum(ev.values) == pytest.approx(np.trace(a), abs=1e-9)
        assert np.prod(ev.values) == pytest.approx(np.linalg.det(a), abs=1e-8)

    def test_empty_matrix(self):
        ev = normal_eigenvalues(np.zeros((0, 0)))
        assert ev.order == 0 and ev.method_tag == "normal"
        assert ev.values.size == 0

    def test_rejects_jordan(self):
        with pytest.raises(NotNormal):
            normal_eigenvalues(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rotated_hermitian_golden_models(self):
        # e^{i phi} H is normal with spectrum e^{i phi} sigma(H); the H1
        # clusters are H's eigenvalue clusters, mostly singletons
        rng = np.random.default_rng(47)
        for p, q in zip((0,) + TestBandedHermitian.GOLDEN_Q[:12],
                        TestBandedHermitian.GOLDEN_Q[:13]):
            a, b = random_phase(rng), random_phase(rng)
            spec = OperatorSpec.canonical(a, a.conjugate(), b, b.conjugate())
            h = build_operator(spec, p % q, q).entries
            phase = random_phase(rng)
            expect = np.linalg.eigvalsh(h)
            got = normal_eigenvalues(phase * h).values / phase  # back onto the real line
            norm = float(np.max(np.abs(expect)))
            assert got.shape == expect.shape
            got = got[np.argsort(got.real)]
            assert np.max(np.abs(got - expect)) <= 1e-12 * max(1.0, norm)

    def test_planted_large_cluster_and_triple(self, monkeypatch):
        # 16 eigenvalues share one real part (a 16 x 16 H1 cluster) and a
        # triple eigenvalue makes a 3 x 3 cluster with a scalar H2 block
        rng = np.random.default_rng(48)
        lam = np.concatenate([
            0.3 + 1j * rng.uniform(-2, 2, 16),
            np.full(3, -1.1 + 0.5j),
            rng.uniform(-2, 2, 21) + 1j * rng.uniform(-2, 2, 21),
        ])
        u = random_unitary(rng, 40)
        a = u @ np.diag(lam) @ u.conj().T
        sizes = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m: sizes.append(m.shape[0]) or real_eigh(m))
        ev = normal_eigenvalues(a)
        monkeypatch.undo()
        assert sizes[0] == 40 and 16 in sizes[1:] and 3 in sizes[1:]
        assert_multiset_close(ev.values, lam, tol=1e-12 * max(1.0, np.max(np.abs(lam))))

    def test_hermitian_input_agrees_with_hermitian_route(self):
        rng = np.random.default_rng(19)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = (z + z.conj().T) / 2
        hv = hermitian_eigenvalues(a).values
        nv = normal_eigenvalues(a).values
        assert np.allclose(nv.imag, 0, atol=1e-10)
        assert np.allclose(np.sort(nv.real), hv, atol=1e-10)


class TestIsNormal:
    def test_classes(self):
        assert is_normal(shift_matrix(5).entries)
        assert is_normal(np.diag([1 + 1j, 2 - 3j]))
        assert not is_normal(np.array([[0, 1], [0, 0]], dtype=complex))
        assert not is_normal(np.array([[1, 1], [0, 1]], dtype=complex))

    def test_near_normal_perturbation(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        a = (z + z.conj().T) / 2
        assert is_normal(a)
        assert not is_normal(a + 1e-3 * np.array([[0] * 5 + [1]] + [[0] * 6] * 5))


class TestSigmaMin:
    def test_diagonal(self):
        a = np.diag([3.0, 0.5, 2.0]).astype(complex)
        assert smallest_singular_value(a) == pytest.approx(0.5, abs=1e-14)

    def test_jordan_closed_form(self):
        # sigma_min([[a,1],[0,a]])^2 = (1 + 2a^2 - sqrt(1 + 4a^2)) / 2
        for a_val in (0.09, 0.5, 2.0):
            m = np.array([[a_val, 1], [0, a_val]], dtype=complex)
            closed = math.sqrt((1 + 2 * a_val ** 2 - math.sqrt(1 + 4 * a_val ** 2)) / 2)
            assert smallest_singular_value(m) == pytest.approx(closed, rel=1e-12)

    def test_singular_matrix(self):
        a = np.array([[1, 0], [0, 0]], dtype=complex)
        assert smallest_singular_value(a) == 0.0

    def test_retry_uses_a_different_driver(self, monkeypatch):
        # numpy's batched SVD is divide-and-conquer (gesdd); the retry
        # must switch to QR iteration (gesvd), not rerun gesdd
        rng = np.random.default_rng(9)
        stack = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
        expect = np.linalg.svd(stack, compute_uv=False)[..., -1]
        drivers = []
        real_svd = scipy.linalg.svd

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        def spy(*args, **kwargs):
            drivers.append(kwargs.get("lapack_driver"))
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", failing)
        monkeypatch.setattr(scipy.linalg, "svd", spy)
        got = sigma_min_stack(stack)
        assert drivers == ["gesvd"] * 5
        assert np.max(np.abs(got - expect) / expect) <= 1e-12

    def test_stack(self):
        rng = np.random.default_rng(8)
        stack = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
        out = sigma_min_stack(stack)
        for i in range(7):
            assert out[i] == pytest.approx(
                np.linalg.svd(stack[i], compute_uv=False)[-1], rel=1e-12)


class TestOperatorNorm:
    def test_values(self):
        assert operator_norm(np.zeros((3, 3))) == 0.0
        assert operator_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)
        assert operator_norm(np.diag([1, -7, 3])) == pytest.approx(7.0, abs=1e-12)
        h = build_operator(OperatorSpec.canonical(1, 1, 1, 1), 1, 2).entries
        assert operator_norm(h) == pytest.approx(2 * math.sqrt(2), rel=1e-12)
