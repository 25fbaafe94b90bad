"""Grids, level sets, sandwich verification, and serialization.

Oracle strategy: for normal matrices sigma_min(lambda*I - A) equals the
distance from lambda to the nearest eigenvalue, which pins every grid
value; both routes (distances, the banded Gram-Cholesky test) are
checked point by point against np.linalg.svd of the dense matrix;
PGM bytes are checked against the documented gray mapping computed by
hand.
"""

import cmath
import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

import rotspec.pseudospectra as psp
import rotspec.spectral as spectral
from rotspec.errors import ConvergenceFailure, InvalidInput, NotHermitian
from rotspec.exact import float_up
from rotspec.matmodel import OperatorSpec, build_operator, spec_norm_bound
from rotspec.pseudospectra import (
    PseudospectrumGrid,
    cloud_to_csv,
    compute_grid,
    default_region,
    grid_to_csv,
    grid_to_pgm,
    level_set,
    matrix_fingerprint,
    sandwich_check,
)
from rotspec.spectral import _banded_sigma_min
from dense_oracle import dense_matrix, grid_nodes

CANONICAL = OperatorSpec.canonical(1, 1, 1, 1)
U_PLUS_2V = OperatorSpec.canonical(1, 0, 2, 0)
# normal classes (i) no V terms, (ii) no U terms, (iii) (1 + i) times a
# Hermitian spec, whose dyadic parts keep the products exact
CLASS_I = OperatorSpec.canonical(1 + 0.5j, -0.7j, 0, 0)
CLASS_II = OperatorSpec.canonical(0, 0, 1.3 - 0.2j, 0.1 + 1j / 3)
CLASS_III = OperatorSpec.canonical(*((1 + 1j) * c for c in (0.5 - 0.25j, 0.5 + 0.25j,
                                                             1.25 + 0.5j, 1.25 - 0.5j)))
NORMAL_CLASSES = (CLASS_I, CLASS_II, CLASS_III)


def make_grid(sigma: np.ndarray, region=(0.0, 1.0, 0.0, 1.0)) -> PseudospectrumGrid:
    sigma = np.asarray(sigma, dtype=float)
    return PseudospectrumGrid(
        region=region,
        resolution=sigma.shape,
        sigma_min_values=sigma,
    )


class TestComputeGrid:
    def test_values_equal_distance_for_normal_matrix(self):
        # a model of V terms alone is diagonal: its eigenvalues are its diagonal
        model = build_operator(CLASS_II, 2, 5)
        eigs = np.diag(dense_matrix(model))
        grid = compute_grid(model, (-2, 2, -2, 2), (13, 9))
        re, im = grid.lambda_axes()
        for i in range(13):
            for j in range(9):
                lam = re[i] + 1j * im[j]
                expect = np.min(np.abs(lam - eigs))
                assert grid.sigma_min_values[i, j] == pytest.approx(expect, abs=1e-12)

    def test_axes_and_steps(self):
        grid = compute_grid(build_operator(CANONICAL, 1, 3), (-2, 2, -1, 1), (5, 3))
        re, im = grid.lambda_axes()
        assert np.allclose(re, [-2, -1, 0, 1, 2])
        assert np.allclose(im, [-1, 0, 1])

    def test_values_match_pointwise_svd(self):
        model = build_operator(U_PLUS_2V, 55, 89)
        grid = compute_grid(model, (-3.5, 3.5, -3.5, 3.5), (10, 10))
        h = dense_matrix(model)
        lam = grid_nodes(grid)
        for i, j in np.ndindex(*grid.resolution):
            ref = np.linalg.svd(lam[i, j] * np.eye(89) - h, compute_uv=False)[-1]
            assert grid.sigma_min_values[i, j] == pytest.approx(ref, rel=1e-12)

    def test_chunk_stacks_stay_within_4_mib(self, monkeypatch):
        # WIDE's Gram band at q = 144 has 7 diagonals: its stacks hold 260
        # points of a real diagonal of 144 and 144 x 6 complex off-diagonals,
        # two chunks here
        sizes = []
        real_cholesky = spectral._band_cholesky

        def recording(diagonal, off):
            sizes.append(diagonal.nbytes + off.nbytes)
            return real_cholesky(diagonal, off)

        monkeypatch.setattr(spectral, "_band_cholesky", recording)
        compute_grid(build_operator(WIDE, 89, 144), (-3, 3, -3, 3), (20, 15))
        # 300 points: a chunk of 260 (the 4 MiB budget), then one of 40;
        # fallbacks factor smaller stacks
        point = 144 * 8 + 144 * 6 * 16
        assert max(sizes) == 260 * point <= 4 << 20
        assert 40 * point in sizes

    def test_arrays_are_refused_before_any_eigensolve(self, monkeypatch):
        # a grid takes a model only: an array, Hermitian or not, a model's
        # dense entries included, is refused before any eigensolve or band pass
        calls = TestDistanceRoute.spy(monkeypatch)
        for a in (np.eye(2), np.array([[0, 1], [0, 0]]), np.diag([1j, 2]),
                  dense_matrix(build_operator(CANONICAL, 3, 8)),
                  dense_matrix(build_operator(U_PLUS_2V, 3, 8))):
            with pytest.raises(InvalidInput, match="a grid takes a MatrixModel, got ndarray"):
                compute_grid(a, (-1, 1, -1, 1), (4, 4))
        assert calls == []

    def test_validation(self):
        model = build_operator(CANONICAL, 1, 3)
        with pytest.raises(InvalidInput, match="degenerate region"):
            compute_grid(model, (1, -1, 0, 1), (8, 8))
        with pytest.raises(InvalidInput, match="resolution must be >= 2"):
            compute_grid(model, (-1, 1, 0, 1), (1, 8))
        for region in ((0, np.inf, -1, 1), (-1, 1, np.nan, 1)):
            with pytest.raises(InvalidInput, match="region must be finite"):
                compute_grid(model, region, (4, 4))

    def test_nodes_past_the_float_range_are_refused(self):
        # an overflowing axis step, and a |lambda| + ||A|| past the float
        # range, gave NaN or inf values or a failed Cholesky factor; the
        # sandwich's arrays meet the same node check with their norm
        models = [build_operator(spec, 5, 8) for spec in (CANONICAL, U_PLUS_2V)]
        for region, message in (((-1e308, 1e308, -1, 1), "axis spans"),
                                ((0, 1.5e308, 0, 1.5e308), "max \\|lambda\\| \\+ \\|\\|A\\|\\|")):
            for a in models:
                with pytest.raises(InvalidInput, match=message):
                    compute_grid(a, region, (3, 3))
            with pytest.raises(InvalidInput, match=message):
                sandwich_check(np.diag([1.0, -1.0]), np.eye(2), 0.5, region=region,
                               resolution=(3, 3))
        # nodes within the range, but not once ||A|| is added
        model = build_operator(OperatorSpec.canonical(1e308, 0, 0, 0), 0, 1)
        huge = dict(region=(0, 1e308, 0, 1e308), resolution=(2, 2))
        with pytest.raises(InvalidInput, match="outside the float range"):
            compute_grid(model, **huge)
        with pytest.raises(InvalidInput, match="outside the float range"):
            sandwich_check(np.array([[1e308]]), np.array([[1e308]]), 0.5, **huge)
        assert np.isfinite(compute_grid(model, (0, 1e307, 0, 1e307), (2, 2)).sigma_min_values).all()
        assert sandwich_check(np.array([[1e308]]), np.array([[1e308]]), 0.5,
                              region=(0, 1e307, 0, 1e307), resolution=(2, 2)).passed

    def test_non_finite_and_empty_arrays_are_refused(self):
        # LAPACK runs without a finiteness check, so a NaN or inf entry
        # would give a silent wrong sandwich
        for bad in (np.nan, np.inf):
            for a in (np.array([[bad]]), np.diag([1, bad]), np.array([[0, bad], [0, 1]])):
                with pytest.raises(InvalidInput, match="must be finite"):
                    sandwich_check(a, np.eye(a.shape[0]), 0.5)
                with pytest.raises(InvalidInput, match="must be finite"):
                    sandwich_check(np.eye(a.shape[0]), a, 0.5)
        empty = np.zeros((0, 0))
        with pytest.raises(InvalidInput, match="empty matrix"):
            sandwich_check(empty, empty, 0.5)

    def test_scalar_matrix(self):
        # the model of (0.5 + 0.5i) U at q = 1 is the 1 x 1 matrix [0.5 + 0.5i]
        model = build_operator(OperatorSpec.canonical(0.5 + 0.5j, 0, 0, 0), 0, 1)
        grid = compute_grid(model, (0, 1, 0, 1), (3, 3))
        re, im = grid.lambda_axes()
        for i in range(3):
            for j in range(3):
                assert grid.sigma_min_values[i, j] == pytest.approx(
                    abs(re[i] + 1j * im[j] - (0.5 + 0.5j)), abs=1e-14)

    def test_fingerprint_tells_nearby_models_apart(self):
        # a grid carries no fingerprint: certify_pseudospectrum, the one
        # reader, hashes its two models itself
        h = build_operator(CANONICAL, 2, 5)
        grid = compute_grid(h, (-1, 1, -1, 1), (4, 4))
        assert not hasattr(grid, "matrix_fingerprint")
        nearby = build_operator(OperatorSpec.canonical(1, 1, 1, 1 + 1e-12), 2, 5)
        assert matrix_fingerprint(nearby) != matrix_fingerprint(h)

    def test_fingerprint_of_a_model_is_the_stored_term_formula(self):
        # u-powers 1, -1 and 3 share slots at q = 1 and 2; the fingerprint
        # hashes each term's stored columns and values in term order, so
        # it never sums them and never forms the dense matrix
        spec = OperatorSpec.general([(1, 0, 0.1), (-1, 0, 0.2), (3, 2, 0.3),
                                     (0, 1, 1 / 3), (-3, -2, 0.3 + 1j)])
        for p, q in ((0, 1), (1, 2), (89, 144)):
            model = build_operator(spec, p, q)
            got = matrix_fingerprint(model)
            assert "entries" not in vars(model)
            stored = b"".join(cols.astype("<i8").tobytes() + vals.astype("<c16").tobytes()
                              for cols, vals in zip(model.columns, model.values))
            expect = hashlib.sha256(b"rotspec-model-terms/1" + q.to_bytes(8, "little")
                                    + stored).hexdigest()
            assert got == expect

    def test_fingerprint_tells_apart_terms_that_share_a_slot(self):
        # at q = 1, U + V and 2U are both the matrix [2]: equal dense bytes,
        # different stored terms, different digests
        one_slot, two_terms = (build_operator(OperatorSpec.general(terms), 0, 1)
                               for terms in ([(1, 0, 2)], [(1, 0, 1), (0, 1, 1)]))
        assert np.array_equal(dense_matrix(one_slot), dense_matrix(two_terms))
        assert matrix_fingerprint(one_slot) != matrix_fingerprint(two_terms)

    def test_fingerprint_holds_no_row_block(self):
        # the stored terms of U+2V at q = 4181 are 2 x 4181 x 24 bytes; a
        # dense row block of 62 rows would be 4 MiB
        model = build_operator(U_PLUS_2V, 2584, 4181)
        tracemalloc.start()
        try:
            digest = matrix_fingerprint(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert digest == matrix_fingerprint(build_operator(U_PLUS_2V, 2584, 4181))

    def test_model_grid_builds_no_dense_matrix(self):
        for spec in (U_PLUS_2V, CANONICAL):
            model = build_operator(spec, 89, 144)
            compute_grid(model, (-3, 3, -3, 3), (4, 4))
            assert "entries" not in model.__dict__


def sigma_tolerance(lam, spec: OperatorSpec) -> np.ndarray:
    """The absolute part of the band route's tolerance, 1e-13 of the
    scale |lambda| + sum |c| at which it works; the tests add 1e-10
    relative."""
    return 1e-13 * (np.abs(lam) + spec_norm_bound(spec))


def pointwise_svd(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
    eye = np.eye(a.shape[0])
    return np.array([np.linalg.svd(z * eye - a, compute_uv=False)[-1] for z in lam])


FOUR_TERM = OperatorSpec.canonical(1, 0.5j, 2, -0.3 + 0.1j)
WIDE = OperatorSpec.general([(2, 0, 1), (0, 1, 1j), (-1, 1, 0.5), (1, -2, 0.25)])
GOLDEN_ORDERS = ((0, 1), (1, 2), (2, 5), (3, 8), (55, 89), (89, 144))


class TestBandRoute:
    """Models of non-Hermitian specs take the banded Gram-Cholesky test;
    every value must agree with a pointwise SVD of the dense matrix."""

    @staticmethod
    def banded(model, lam):
        return _banded_sigma_min(model, np.asarray(lam, dtype=complex))

    def assert_matches_svd(self, model, lam, got):
        ref = pointwise_svd(dense_matrix(model), lam)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref + sigma_tolerance(lam, model.spec))

    def test_grids_match_pointwise_svd(self):
        for spec in (U_PLUS_2V, FOUR_TERM, WIDE):
            assert not spec.is_hermitian
            for p, q in GOLDEN_ORDERS:
                model = build_operator(spec, p, q)
                grid = compute_grid(model, (-3.7, 3.1, -3.3, 3.5), (7, 6))
                self.assert_matches_svd(model, grid_nodes(grid).ravel(),
                                        grid.sigma_min_values.ravel())

    def test_at_and_near_eigenvalues(self):
        for spec in (U_PLUS_2V, FOUR_TERM):
            for p, q in GOLDEN_ORDERS:
                model = build_operator(spec, p, q)
                eigs = np.linalg.eigvals(dense_matrix(model))[::max(1, q // 30)]
                lam = np.concatenate([eigs, eigs + 1e-6 * np.exp(1j * np.arange(eigs.size))])
                got = self.banded(model, lam)
                self.assert_matches_svd(model, lam, got)
                assert np.all(got[:eigs.size] <= 1e-12 * spec_norm_bound(spec))

    def test_shift_against_roots_of_unity(self):
        spec = OperatorSpec.general([(1, 0, 1)])
        for p, q in GOLDEN_ORDERS:
            model = build_operator(spec, p, q)
            roots = np.exp(2j * np.pi * np.arange(q) / q)
            grid = compute_grid(model, (-1.5, 1.5, -1.2, 1.2), (9, 7))
            on_grid = grid.sigma_min_values.ravel()
            lam = np.concatenate([grid_nodes(grid).ravel(), roots, 1.000001 * roots])
            exact = np.min(np.abs(lam[:, None] - roots[None, :]), axis=1)
            got = np.concatenate([on_grid, self.banded(model, lam[on_grid.size:])])
            assert np.all(np.abs(got - exact) <= 1e-10 * exact + sigma_tolerance(lam, spec))

    def test_coefficient_scale_of_1e150_either_way(self):
        for scale in (1e150, 1e-150):
            big = OperatorSpec.canonical(scale, 0.5j * scale, 2 * scale, -0.3 * scale)
            small = OperatorSpec.canonical(1, 0.5j, 2, -0.3)
            for p, q in ((2, 5), (55, 89)):
                model = build_operator(big, p, q)
                region = tuple(scale * x for x in (-3.7, 3.1, -3.3, 3.5))
                grid = compute_grid(model, region, (6, 5))
                lam = grid_nodes(grid).ravel()
                ref = scale * pointwise_svd(dense_matrix(build_operator(small, p, q)), lam / scale)
                got = grid.sigma_min_values.ravel()
                assert np.all(np.isfinite(got)) and np.all(got > 0)
                assert np.all(np.abs(got - ref) <= 1e-10 * ref + sigma_tolerance(lam, big))

    def test_sum_of_moduli_outside_the_normal_floats_is_refused(self):
        # the band is scaled by 1/sum|c|: a subnormal sum overflows it to
        # inf/nan, so it never reaches the band; an infinite sum would
        # zero it, and no spec has one
        model = build_operator(OperatorSpec.general([(1, 1, 1e-320)]), 1, 2)
        with pytest.raises(InvalidInput, match="sum \\|c\\| = 1e-320, which is not a normal"):
            compute_grid(model, (-1, 1, -1, 1), (3, 3))
        with pytest.raises(InvalidInput, match="sum \\|c\\| = inf of the spec is outside"):
            OperatorSpec.general([(1, 1, 1e308), (2, 0, 1e308)])

    def test_chunk_boundaries_match_pointwise_svd(self, monkeypatch):
        # 2112 points at q = 8 are chunks of 2048 + 64 (the point cap);
        # 625 points at q = 144 are 606 + 19 (the 4 MiB array budget). The
        # chunks' coarse passes take the nodes in order, the fallback
        # passes follow them, and the two points on either side of each
        # boundary, and the grid's first and last, must land in their own
        # slots of the one output
        passes = self.spy_passes(monkeypatch)
        for p, q, resolution, sizes in ((3, 8, (64, 33), [2048, 64]),
                                        (89, 144, (25, 25), [606, 19])):
            model = build_operator(U_PLUS_2V, p, q)
            passes.clear()
            grid = compute_grid(model, (-3.5, 3.5, -3.5, 3.5), resolution)
            nodes = grid_nodes(grid).ravel()
            chunks = [lam for _, lam in passes[:len(sizes)]]
            assert [lam.size for lam in chunks] == sizes
            assert np.array_equal(np.concatenate(chunks), nodes)
            coarse = spectral._coarse_halvings(q)
            rest = spectral._HALVINGS - coarse
            assert [h for h, _ in passes] == ([("coarse", coarse)] * len(sizes)
                                              + [("fallback", rest)] * (len(passes) - len(sizes)))
            at = np.array([0, sizes[0] - 2, sizes[0] - 1, sizes[0], sizes[0] + 1,
                           sum(sizes) - 1])
            ref = pointwise_svd(dense_matrix(model), nodes[at])
            got = grid.sigma_min_values.ravel()[at]
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_value_outside_the_bracket_is_a_convergence_failure(self, monkeypatch):
        # with no inverse iteration the start vector's ||Bx||/||x|| is
        # reported, far above the bracket; the check must catch it
        monkeypatch.setattr(spectral, "_INVERSE_STEPS", 0)
        with pytest.raises(ConvergenceFailure, match="outside its bisection bracket"):
            compute_grid(build_operator(U_PLUS_2V, 3, 8), (-1, 1, -1, 1), (3, 3))

    @staticmethod
    def spy_passes(monkeypatch):
        """((kind, halvings), lambdas) of every bisection pass: the coarse
        pass of each chunk, then the fallback of the points that failed to
        verify. The bracket tells them apart, not the halvings, which are
        equal (22) at q = 144 and 233: a coarse pass starts from hi = inf,
        a fallback from the finite hi its coarse pass left."""
        passes = []
        real = spectral._bisect_and_iterate

        def recording(gb, lam, lo, hi, halvings):
            kind = ("fallback" if np.isfinite(hi).all()
                    else "coarse" if np.isinf(hi).all() else "mixed")
            passes.append(((kind, halvings), lam.copy()))
            return real(gb, lam, lo, hi, halvings)

        monkeypatch.setattr(spectral, "_bisect_and_iterate", recording)
        return passes

    @classmethod
    def full_bisection(cls, monkeypatch, model, lam):
        """The values of a run whose coarse passes are the whole bisection.
        Its fallbacks run no halving, so they redo the same inverse
        iteration on the same brackets and keep the same values."""
        with monkeypatch.context() as m:
            m.setattr(spectral, "_coarse_halvings", lambda q: spectral._HALVINGS)
            return cls.banded(model, lam)

    @pytest.mark.parametrize("planted", (1.01, 0.99))
    def test_planted_value_fails_verification_then_the_bracket(self, monkeypatch, planted):
        # A1'x -> planted * A1'x + (1 - planted) * (lam / norm) * x makes
        # Bx = mu x - kappa A1'x exactly `planted` times the true Bx, as
        # kappa * lam / norm = mu: a value 1% high fails the lower test,
        # one 1% low the upper test, and the fallback's full bracket then
        # refuses it
        model, lam = build_operator(U_PLUS_2V, 3, 8), 0.4 + 0.3j
        coarse = spectral._coarse_halvings(8)
        rest = spectral._HALVINGS - coarse
        passes = self.spy_passes(monkeypatch)
        self.banded(model, [lam])
        assert [h for h, _ in passes] == [("coarse", coarse)]
        real_matvec = spectral._band_matvec
        ratio = lam / spec_norm_bound(U_PLUS_2V)
        monkeypatch.setattr(spectral, "_band_matvec", lambda band, x: (
            planted * real_matvec(band, x) + (1 - planted) * ratio * x))
        passes.clear()
        with pytest.raises(ConvergenceFailure, match="outside its bisection bracket"):
            self.banded(model, [lam])
        assert [h for h, _ in passes] == [("coarse", coarse), ("fallback", rest)]

    @pytest.mark.parametrize("spec", (U_PLUS_2V, FOUR_TERM, WIDE),
                             ids=("U+2V", "four-term", "wide"))
    def test_fallback_equals_the_full_bisection_bit_for_bit(self, monkeypatch, spec):
        # at and near eigenvalues the verifying tests sit at rounding level
        # and fail, while grid points beside them verify. A point that
        # falls back, with others or alone, must get the value of a run
        # whose coarse pass is the whole bisection, bit for bit
        passes = self.spy_passes(monkeypatch)
        partial = lone = False
        for p, q in GOLDEN_ORDERS[2:]:
            coarse = spectral._coarse_halvings(q)
            model = build_operator(spec, p, q)
            eigs = np.linalg.eigvals(dense_matrix(model))[::max(1, q // 30)]
            grid = grid_nodes(compute_grid(model, (-3.7, 3.1, -3.3, 3.5), (7, 6))).ravel()
            near = eigs + 1e-6 * np.exp(1j * np.arange(eigs.size))
            for lam in (np.concatenate([grid, eigs, near]), np.append(grid, eigs[0])):
                passes.clear()
                got = self.banded(model, lam)
                # one chunk: its coarse pass, then at most one fallback
                chunk, fallback = ("coarse", coarse), ("fallback", spectral._HALVINGS - coarse)
                assert [h for h, _ in passes] in ([chunk], [chunk, fallback])
                redone = np.isin(lam, passes[1][1] if len(passes) > 1 else [])
                partial |= 1 < redone.sum() < lam.size
                lone |= redone.sum() == 1
                full = self.full_bisection(monkeypatch, model, lam)
                assert np.array_equal(got[redone], full[redone])
        assert partial and lone

    def test_one_fallback_pass_for_the_failures_of_every_chunk(self, monkeypatch):
        # q = 8 takes chunks of 2048 points: a node list of three chunks
        # with eigenvalues (whose verifying tests sit at rounding level
        # and fail) in each runs three coarse passes and one fallback pass
        # over the failures of all three; each redone value is the full
        # bisection's, bit for bit, and the pointwise SVD's
        model = build_operator(U_PLUS_2V, 3, 8)
        eigs = np.linalg.eigvals(dense_matrix(model))
        re = np.linspace(-3.7, 3.1, 96)
        lam = (re[:, None] + 1j * np.linspace(-3.3, 3.5, 64)[None, :]).ravel()
        at = np.arange(eigs.size) * 733 + 5  # 5, 738, ..., 5136: chunks 0, 0, 0, 1, 1, 1, 2, 2
        lam[at] = eigs
        passes = self.spy_passes(monkeypatch)
        got = self.banded(model, lam)
        coarse = spectral._coarse_halvings(8)
        assert [h for h, _ in passes] == ([("coarse", coarse)] * 3
                                          + [("fallback", spectral._HALVINGS - coarse)])
        redone = np.flatnonzero(np.isin(lam, passes[3][1]))
        assert np.isin(at, redone).all() and np.unique(redone // 2048).size == 3
        assert np.array_equal(got[redone], self.full_bisection(monkeypatch, model, lam)[redone])
        self.assert_matches_svd(model, lam[redone], got[redone])

    @pytest.mark.parametrize("p, q, coarse, cap", ((3, 5, 10, 51), (5, 8, 12, 31),
                                                   (8, 13, 12, 147)))
    def test_coarse_halvings_and_fallbacks_below_64(self, monkeypatch, p, q, coarse, cap):
        # U+2V on a 64x64 grid of [-4, 4]^2 is two chunks of 2048 points;
        # 2 * bits + 4 coarse halvings left 51 / 31 / 147 of its 4096
        # points to fall back at q = 5 / 8 / 13, in one pass: a retune
        # that multiplies the fallbacks fails here
        passes = self.spy_passes(monkeypatch)
        compute_grid(build_operator(U_PLUS_2V, p, q), (-4, 4, -4, 4), (64, 64))
        assert spectral._coarse_halvings(q) == coarse
        assert [h for h, _ in passes] == [("coarse", coarse)] * 2 + [
            ("fallback", spectral._HALVINGS - coarse)]
        assert passes[2][1].size <= cap

    def test_band_arrays_stay_within_4_mib(self, monkeypatch):
        passes = self.spy_passes(monkeypatch)
        sizes, stacks = [], []
        real_cholesky, real_stack = spectral._band_cholesky, spectral._gram_stack

        def recording(diagonal, off):
            cholesky = real_cholesky(diagonal, off)

            def factor(shift):
                inv, f, ok = cholesky(shift)
                sizes.append(max(diagonal.nbytes + off.nbytes, inv.nbytes + f.nbytes))
                return inv, f, ok

            return factor

        def stack(gb, mu, kappa):
            stacks.append(mu.size)
            return real_stack(gb, mu, kappa)

        monkeypatch.setattr(spectral, "_band_cholesky", recording)
        monkeypatch.setattr(spectral, "_gram_stack", stack)
        # 625 points at q = 144 are two chunks (606 + 19); 88 points at
        # q = 987 are one full chunk
        for p, q, resolution, chunk, chunks in ((89, 144, (25, 25), 606, 2),
                                                (610, 987, (11, 8), 88, 1)):
            model = build_operator(U_PLUS_2V, p, q)
            passes.clear()
            sizes.clear()
            stacks.clear()
            tracemalloc.start()
            try:
                compute_grid(model, (-3, 3, -3, 3), resolution)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # per chunk, the coarse halvings, the factor for inverse
            # iteration and the two verifying tests; per fallback pass, the
            # remaining halvings and its own factor, one pass per chunk of
            # the points that failed to verify in any chunk
            coarse = spectral._coarse_halvings(q)
            rest = spectral._HALVINGS - coarse
            fallbacks = sum(lam.size for _, lam in passes[chunks:])
            fallback_passes = -(-fallbacks // chunk)
            assert [h for h, _ in passes] == ([("coarse", coarse)] * chunks
                                              + [("fallback", rest)] * fallback_passes)
            assert len(sizes) == chunks * (coarse + 1 + 2) + fallback_passes * (rest + 1)
            # one Gram stack per pass: the verifying pair runs on the
            # stack of its chunk's halvings
            assert stacks == [lam.size for _, lam in passes]
            assert max(sizes) <= 4 << 20
            # the Gram stack, one factor and the iteration vectors; one
            # dense matrix at q = 987 alone is 14.9 MiB
            assert peak <= 12 << 20


def fourier_dual(spec: OperatorSpec, conjugated: bool = False) -> OperatorSpec:
    """b- U + b+ U* + a+ V + a- V* for spec = a+ U + a- U* + b+ V + b- V*;
    conjugated plants a wrong dual, with b- conjugated."""
    a1, am, b1, bm = spec.canonical_four_term
    return OperatorSpec.canonical(bm.conjugate() if conjugated else bm, b1, a1, am)


class TestFourierDuality:
    """F = (omega^(-jk) / sqrt(q)), omega = e^(2 pi i p/q), is unitary for
    coprime p and q, with F u F* = v and F v F* = u*, so the models of a
    canonical spec and of its fourier_dual at the same p/q are unitarily
    similar: an oracle at orders where a dense SVD is out of reach. 1e-12
    relative is twice the 4.6e-13 that _VERIFY_GAP allows each band value."""

    NODES = np.array([0.3 + 0.2j, -1.1 + 0.7j, 2.2 - 0.4j, -0.5 - 2.5j, 1.7 + 1.9j, 3.5j])
    HERMITIAN = (OperatorSpec.canonical(1, 1, 1.5, 1.5),
                 OperatorSpec.canonical(1 + 0.5j, 1 - 0.5j, 2 - 0.3j, 2 + 0.3j))

    @classmethod
    def spread(cls, spec, dual, p, q, p_dual=None):
        """The largest relative difference of the band values at NODES
        between the model of spec at p/q and that of dual at p_dual/q."""
        a = _banded_sigma_min(build_operator(spec, p, q), cls.NODES)
        b = _banded_sigma_min(build_operator(dual, (p if p_dual is None else p_dual) % q, q),
                              cls.NODES)
        return np.max(np.abs(a - b) / a)

    @pytest.mark.parametrize("p, q", ((3, 5), (144, 233), (987, 1597)))
    @pytest.mark.parametrize("spec", (U_PLUS_2V, FOUR_TERM), ids=("U+2V", "four-term"))
    def test_band_values_of_dual_models_agree(self, spec, p, q):
        assert not spec.is_normal
        assert self.spread(spec, fourier_dual(spec), p, q) <= 1e-12

    @pytest.mark.parametrize("p, q", ((8, 13), (144, 233)))
    def test_a_wrong_dual_breaks_the_agreement(self, p, q):
        # at q = 5, p + 1 = q - p for p = 2, whose model matches; from q =
        # 13 on a dual at p + 1 and one with a conjugated coefficient miss
        # by 2e-3 or more
        for spec in (U_PLUS_2V, FOUR_TERM):
            assert self.spread(spec, fourier_dual(spec), p, q, p + 1) > 1e-12
        assert self.spread(FOUR_TERM, fourier_dual(FOUR_TERM, conjugated=True), p, q) > 1e-12

    @pytest.mark.parametrize("p, q", ((3, 5), (8, 13), (144, 233), (987, 1597)))
    def test_hermitian_spectra_of_dual_models_agree(self, p, q):
        for spec in self.HERMITIAN:
            dual = fourier_dual(spec)
            assert spec.is_hermitian and dual.is_hermitian
            ours, theirs, wrong = (spectral.hermitian_eigenvalues(build_operator(s, r, q))
                                   for s, r in ((spec, p), (dual, p), (dual, (p + 1) % q)))
            tolerance = 1e-12 * spec_norm_bound(spec)
            assert np.max(np.abs(ours - theirs)) <= tolerance
            assert np.max(np.abs(ours - wrong)) > tolerance


def random_hermitian(n: int) -> np.ndarray:
    """Equal to its conjugate transpose bit for bit: z + z* sums the same
    two numbers in either order."""
    rng = np.random.default_rng(12)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


class TestDistanceRoute:
    """Models of Hermitian specs, and the sandwich's Hermitian arrays, take
    one eigensolve and distances to its values."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real_eigs, real_band = spectral._band_eigenvalues, psp._banded_sigma_min

        def eigs(a):
            calls.append("eig")
            return real_eigs(a)

        def band(model, lam):
            calls.append("band")
            return real_band(model, lam)

        # the zhbevd solve behind every Hermitian eigensolve: of a model (in
        # spectral._model_spectrum) or of an array (in sandwich_check)
        monkeypatch.setattr(spectral, "_band_eigenvalues", eigs)
        monkeypatch.setattr(psp, "_band_eigenvalues", eigs)
        monkeypatch.setattr(psp, "_banded_sigma_min", band)
        return calls

    def test_hermitian_spec_model(self, monkeypatch):
        calls = self.spy(monkeypatch)
        model = build_operator(CANONICAL, 55, 89)
        grid = compute_grid(model, (-4.5, 4.5, -1, 1), (19, 7))
        assert calls == ["eig"] and "entries" not in vars(model)
        ref = pointwise_svd(dense_matrix(model), grid_nodes(grid).ravel())
        # both sides err by a few ulps of ||A|| <= 4
        assert np.max(np.abs(grid.sigma_min_values.ravel() - ref)) <= 1e-12 * 4

    def test_exactly_hermitian_dense_matrix(self):
        # the sandwich's grid values: the band eigensolve of the array and
        # the sorted-neighbour distances to its ascending values
        h = random_hermitian(9)
        eigs = spectral._band_eigenvalues(h)
        assert eigs.dtype == float and np.all(np.diff(eigs) >= 0)
        lam = psp._grid_nodes(np.linalg.norm(h, 2), (-4, 4, -2, 2), (9, 5))[:]  # all the nodes, as an array
        ref = pointwise_svd(h, lam)
        assert np.max(np.abs(psp._distances(lam, eigs) - ref)) <= 1e-12 * np.linalg.norm(h, 2)

    def test_one_ulp_defect_is_refused(self, monkeypatch):
        calls = self.spy(monkeypatch)
        h = random_hermitian(9)
        defect = h.copy()
        defect[2, 5] = complex(np.nextafter(h[2, 5].real, np.inf), h[2, 5].imag)
        for pair in ((defect, h), (h, defect)):
            with pytest.raises(NotHermitian):
                sandwich_check(*pair, 0.5, region=(-4, 4, -2, 2), resolution=(9, 5))
        assert calls == []
        assert sandwich_check(h, h, 0.5, region=(-4, 4, -2, 2), resolution=(9, 5)).passed
        assert calls == ["eig"] * 3

    def test_hermitian_array_near_the_float_range(self):
        # a Frobenius norm of these entries overflows; the exact test is the
        # only Hermitian test an array meets, so the eigensolve, the
        # distances and the sandwich run under warnings-as-errors, and the
        # grid is the distance to the eigenvalues +-sqrt(a^2 + b^2)
        h, t = near_range_pair()
        a, b = h[0, 0], h[0, 1]
        r = math.hypot(a, b)
        eigs = spectral._band_eigenvalues(h)
        assert eigs == pytest.approx([-r, r], rel=1e-12)
        lam = psp._grid_nodes(r, (-2 * a, 2 * a, -a, a), (9, 5))[:]
        expect = np.minimum(np.abs(lam - r), np.abs(lam + r))
        assert np.max(np.abs(psp._distances(lam, eigs) - expect)) <= 1e-12 * r
        rep = sandwich_check(h, t, 0.5 * a, resolution=(8, 8))
        assert rep.passed and rep.delta == pytest.approx(0.1 * a, rel=1e-12)
        # within a factor of the same range, a non-Hermitian array is refused
        skew = np.array([[a, 0], [2 * a, -a]])
        with pytest.raises(NotHermitian):
            sandwich_check(skew, skew, 0.5 * a)


class TestNormalRoute:
    """Models of any order of a normal spec, classes (i) no V terms,
    (ii) no U terms and (iii) e^(i phi) times a Hermitian spec, take
    distances to their eigenvalues: never the band, never the dense
    matrix."""

    @staticmethod
    def distances(spec, p, q, lam):
        """compute_grid's values at any points: distances to the values,
        for class (iii) from the points rotated by conj(r)."""
        values, r = spectral._model_spectrum(build_operator(spec, p, q))
        return psp._distances(lam if r == 1 else lam * r.conjugate(), values)

    def test_classes_match_pointwise_svd(self):
        # grid points, points on an eigenvalue and points 1e-6 from one,
        # compared absolutely: near an eigenvalue both sides err by an
        # absolute few ulps of sum |c| + |lambda|
        for spec in NORMAL_CLASSES:
            assert spec.is_normal and not spec.is_hermitian
            for p, q in ((2, 3), (3, 5), (55, 89), (144, 233), (0, 5), (0, 89)):
                model = build_operator(spec, p, q)
                grid = compute_grid(model, (-3.7, 3.1, -3.3, 3.5), (7, 6))
                eigs = spectral.normal_eigenvalues(model)[::max(1, q // 12)]
                near = eigs + 1e-6 * np.exp(1j * np.arange(eigs.size))
                lam = np.concatenate([grid_nodes(grid).ravel(), eigs, near])
                got = np.concatenate([grid.sigma_min_values.ravel(),
                                      self.distances(spec, p, q, lam[grid.sigma_min_values.size:])])
                ref = pointwise_svd(dense_matrix(model), lam)
                tol = 1e-12 * (spec_norm_bound(spec) + np.abs(lam))
                assert np.all(np.abs(got - ref) <= tol), (spec, q)

    def test_builds_no_dense_matrix_and_no_band(self, monkeypatch):
        def refused(*args):
            raise AssertionError("band route taken")

        monkeypatch.setattr(psp, "_banded_sigma_min", refused)
        monkeypatch.setattr(spectral, "_gram_band", refused)
        for spec in NORMAL_CLASSES:
            for p, q in ((2, 3), (89, 144), (0, 8), (4, 8)):  # 2p = q: omega = -1
                model = build_operator(spec, p, q)
                compute_grid(model, (-3, 3, -3, 3), (5, 4))
                assert "entries" not in vars(model)

    def test_orders_below_3_of_a_normal_spec_take_distances(self, monkeypatch):
        # the spec decides normality at every order, so q = 1 and 2 take
        # distances as q >= 3 does (class (iii) solves its rotated Hermitian
        # model); U + 2V's models there are Hermitian, but the spec is not
        # normal, and they keep the band
        calls = TestDistanceRoute.spy(monkeypatch)
        for spec in NORMAL_CLASSES:
            for p, q in ((0, 1), (1, 2)):
                model = build_operator(spec, p, q)
                grid = compute_grid(model, (-3, 3, -3, 3), (4, 4))
                assert "entries" not in vars(model)
                lam = grid_nodes(grid).ravel()
                ref = pointwise_svd(dense_matrix(model), lam)
                tol = 1e-12 * (spec_norm_bound(spec) + np.abs(lam))
                assert np.all(np.abs(grid.sigma_min_values.ravel() - ref) <= tol), (spec, q)
        assert calls == ["eig"] * 2
        calls.clear()
        for p, q in ((0, 1), (1, 2)):
            compute_grid(build_operator(U_PLUS_2V, p, q), (-3, 3, -3, 3), (4, 4))
        assert calls == ["band"] * 2

    def test_sum_of_moduli_past_the_float_range_is_refused(self):
        # sum |c| = inf made the Hermitian grid all NaN and the eigenvalues
        # [-1e308, -1e308, inf]; the class (ii) closed form met inf as
        # well: the spec is refused before any model exists
        for coefficients in ((1e308, 1e308, 0, 0), (0, 0, 1e308, 1e308j)):
            with pytest.raises(InvalidInput, match="outside the float range"):
                OperatorSpec.canonical(*coefficients)

    def test_distance_blocks_stay_within_12_mib(self):
        # 256 points against 4181 complex eigenvalues are 17 MB of
        # differences in one pass; the blocks hold about 4 MiB
        for spec in (CLASS_I, CLASS_II):
            model = build_operator(spec, 2584, 4181)
            tracemalloc.start()
            try:
                grid = compute_grid(model, (-3, 3, -3, 3), (16, 16))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 12 << 20
            eigs = spectral.normal_eigenvalues(model)
            lam = grid_nodes(grid).ravel()[::37]
            direct = np.min(np.abs(lam[:, None] - eigs[None, :]), axis=1)
            assert np.array_equal(grid.sigma_min_values.ravel()[::37], direct)


class TestOrderTwoClosedForm:
    """At order 2 sigma_min has a closed form that takes no SVD: for
    M = lambda*I - A with F = ||M||_F^2 and d = |det M|, the squared
    singular values are the roots of s^2 - F s + d^2, so sigma_min^2 =
    2 d^2 / (F + sqrt(F^2 - 4 d^2)). Both routes meet it: the band route
    for U + 2V and the other non-normal specs, distances for the
    Hermitian spec and the normal classes."""

    @staticmethod
    def closed_form(a: np.ndarray, lam: np.ndarray) -> np.ndarray:
        m = lam[:, None, None] * np.eye(2) - a
        f = np.sum(np.abs(m) ** 2, axis=(1, 2))
        d = np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        return np.sqrt(2 * d ** 2 / (f + np.sqrt(np.maximum(f ** 2 - 4 * d ** 2, 0))))

    @pytest.mark.parametrize("spec", [U_PLUS_2V, FOUR_TERM, WIDE, CANONICAL, *NORMAL_CLASSES],
                             ids=["u_plus_2v", "four_term", "wide", "canonical",
                                  "class_i", "class_ii", "class_iii"])
    def test_grid_and_eigenvalues_meet_the_closed_form(self, spec):
        model = build_operator(spec, 1, 2)
        a = dense_matrix(model)
        grid = compute_grid(model, (-3.7, 3.1, -3.3, 3.5), (7, 6))
        lam = grid_nodes(grid).ravel()
        exact = self.closed_form(a, lam)
        got = grid.sigma_min_values.ravel()
        assert np.all(np.abs(got - exact) <= 1e-10 * exact + sigma_tolerance(lam, spec))
        # on the eigenvalues, where lambda*I - A is singular, by the route
        # compute_grid picks
        eigs = np.linalg.eigvals(a)
        spectrum = spectral._model_spectrum(model)
        if spectrum is None:
            on_eigs = _banded_sigma_min(model, eigs)
        else:
            values, r = spectrum
            on_eigs = psp._distances(eigs * r.conjugate(), values)
        assert np.all(on_eigs <= 1e-12 * spec_norm_bound(spec))
        assert np.all(np.abs(on_eigs - self.closed_form(a, eigs)) <= sigma_tolerance(eigs, spec))


def whole_distances(lam: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The distance kernel on a whole array of nodes at once, as the grids
    took it when they built all of their nodes: the oracle of the blocks."""
    if not np.iscomplexobj(values):
        idx = np.searchsorted(values, lam.real)
        below = values[np.maximum(idx - 1, 0)]
        above = values[np.minimum(idx, values.size - 1)]
        return np.hypot(np.minimum(np.abs(lam.real - below), np.abs(above - lam.real)), lam.imag)
    rows = max(1, psp._CHUNK_BUDGET // len(values))
    return np.concatenate([np.min(np.abs(lam[s:s + rows, None] - values[None, :]), axis=1)
                           for s in range(0, len(lam), rows)])


ODD_REGION = (-3.7, 3.1, -3.3, 3.5)


class TestNodeSource:
    """A grid's nodes are built for each slice or index array read, never
    all at once, and hold the bits of the whole row-major array; so do the
    grid values of both routes, and a grid's peak memory is its output
    plus one chunk's working set."""

    @staticmethod
    def whole(region, resolution) -> np.ndarray:
        re, im = psp._axes(region, resolution)
        return (re[:, None] + 1j * im[None, :]).reshape(-1)

    @staticmethod
    def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("resolution", ((257, 130), (2, 3), (130, 2)))
    def test_reads_equal_the_whole_array(self, resolution):
        nodes = psp._grid_nodes(4.0, ODD_REGION, resolution)
        whole = self.whole(ODD_REGION, resolution)
        assert nodes.size == whole.size
        assert nodes.reach == np.abs(whole).max()
        for at in (slice(None), slice(0, 1), slice(5, 5), slice(3, 4099),
                   slice(whole.size - 7, whole.size + 9)):
            assert self.same_bits(nodes[at], whole[at]), at
        index = np.random.default_rng(7).integers(0, whole.size, 50)
        for at in (index, index[:1], index[:0], np.arange(whole.size)[::-3]):
            assert self.same_bits(nodes[at], whole[at])
        # class (iii)'s rotated frame, read in the distance blocks
        r = cmath.exp(0.7j)
        nodes.rotation = r
        blocks = [nodes[s:s + psp._NODE_BLOCK] for s in range(0, nodes.size, psp._NODE_BLOCK)]
        assert self.same_bits(np.concatenate(blocks), whole * r)

    @pytest.mark.parametrize("p, q, resolution", ((3, 5, (257, 130)), (5, 8, (257, 130)),
                                                  (89, 144, (37, 29))))
    def test_band_values_equal_those_of_the_whole_array(self, monkeypatch, p, q, resolution):
        # 17 chunks of 2048 points at q = 5 and 8, two of 606 at q = 144,
        # each grid with a fallback stage that reads its nodes by index
        model = build_operator(U_PLUS_2V, p, q)
        passes = TestBandRoute.spy_passes(monkeypatch)
        grid = compute_grid(model, ODD_REGION, resolution)
        kinds = [kind for (kind, _), _ in passes]
        assert kinds.count("coarse") == -(-grid.sigma_min_values.size
                                          // (2048 if q < 144 else 606))
        assert kinds[-1] == "fallback"
        whole = _banded_sigma_min(model, self.whole(ODD_REGION, resolution))
        assert self.same_bits(grid.sigma_min_values.ravel(), whole)

    @pytest.mark.parametrize("spec", (CANONICAL, *NORMAL_CLASSES),
                             ids=("hermitian", "class_i", "class_ii", "class_iii"))
    def test_distance_values_equal_those_of_the_whole_array(self, spec):
        # 257 x 130 nodes are three real blocks, and 12 complex row blocks
        # against 89 eigenvalues
        for p, q in ((3, 5), (55, 89)):
            values, r = spectral._model_spectrum(build_operator(spec, p, q))
            grid = compute_grid(build_operator(spec, p, q), ODD_REGION, (257, 130))
            lam = self.whole(ODD_REGION, (257, 130))
            expect = whole_distances(lam if r == 1 else lam * r.conjugate(), values)
            assert self.same_bits(grid.sigma_min_values.ravel(), expect), (spec, q)

    @staticmethod
    def traced_peak(model, resolution) -> tuple[int, int]:
        tracemalloc.start()
        try:
            grid = compute_grid(model, (-4, 4, -4, 4), resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, grid.sigma_min_values.nbytes

    def test_band_grid_peak_is_its_output_and_one_chunk(self):
        # 512 x 512 nodes would be 4 MiB, their |lambda| 2 MiB more
        peak, output = self.traced_peak(build_operator(U_PLUS_2V, 5, 8), (512, 512))
        assert peak <= output + (4 << 20), peak

    @pytest.mark.parametrize("spec", (CANONICAL, CLASS_I), ids=("hermitian", "class_i"))
    def test_distance_grid_peak_is_its_output_and_one_block(self, spec):
        # 1024 x 1024 nodes would be 16 MiB, the real route's temporaries
        # 40 MiB more; one complex block's differences and their abs are 6 MiB
        peak, output = self.traced_peak(build_operator(spec, 5, 8), (1024, 1024))
        assert peak <= output + (8 << 20), peak

    def test_unallocatable_resolution_is_refused(self):
        # 10^7 x 10^7 values are 728 TiB, past any address space; 10^10 x
        # 10^10 are past intp
        models = [build_operator(spec, 5, 8) for spec in (U_PLUS_2V, CANONICAL, CLASS_I)]
        s = np.diag([1.0, -1.0])
        for n, size in ((10**7, "800000000000000"), (10**10, "800000000000000000000")):
            message = f"resolution {n}x{n} needs {size} bytes"
            for model in models:
                with pytest.raises(InvalidInput, match=message):
                    compute_grid(model, (-4, 4, -4, 4), (n, n))
            with pytest.raises(InvalidInput, match=message):
                sandwich_check(s, s, 0.5, resolution=(n, n))


class TestLevelSets:
    def test_monotone_in_epsilon(self):
        h = build_operator(CANONICAL, 1, 3)
        grid = compute_grid(h, (-4, 4, -2, 2), (16, 8))
        m1 = level_set(grid, 0.3)
        m2 = level_set(grid, 0.9)
        assert np.all(m2 | ~m1)  # m1 subset of m2
        assert m1.sum() <= m2.sum()

    def test_closed_sublevel_convention(self):
        grid = make_grid(np.array([[0.5, 0.25], [1.0, 0.75]]))
        mask = level_set(grid, 0.5)
        assert mask.tolist() == [[True, True], [False, False]]

    def test_rejects_nonpositive(self):
        # nan would give an all-False mask and inf an all-True one
        grid = make_grid(np.ones((2, 2)))
        for epsilon in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInput, match="finite and > 0"):
                level_set(grid, epsilon)


def random_pair() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(9)
    z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    s = (z + z.conj().T) / 2
    t = s + 0.05 * np.diag(rng.standard_normal(6))
    return s, (t + t.conj().T) / 2


def near_range_pair() -> tuple[np.ndarray, np.ndarray]:
    a, b = 1e300, 2e299
    return np.array([[a, b], [b, -a]]), np.array([[a, b], [b, -0.9 * a]])


class TestSandwich:
    PAIRS = {
        "identical": lambda: (dense_matrix(build_operator(CANONICAL, 1, 3)),) * 2,
        "diagonal": lambda: (np.diag([0.0, 2.0]).astype(complex),
                             np.diag([0.1, 2.1]).astype(complex)),
        "random": random_pair,
        "near_range": near_range_pair,
    }

    def test_identical_matrices(self):
        h, _ = self.PAIRS["identical"]()
        rep = sandwich_check(h, h, 0.5, resolution=(20, 20))
        assert rep.passed and rep.delta == 0.0
        assert rep.hard_violations == ()
        assert rep.inner_count <= rep.middle_count <= rep.outer_count

    def test_diagonal_shift_pair(self):
        s, t = self.PAIRS["diagonal"]()
        rep = sandwich_check(s, t, 0.5, resolution=(24, 24))
        assert rep.passed
        assert rep.delta == pytest.approx(0.1, abs=1e-12)

    def test_random_hermitian_pair(self):
        s, t = random_pair()
        rep = sandwich_check(s, t, 0.4, resolution=(28, 28))
        assert rep.passed
        assert rep.grid_too_coarse == (rep.advisory_count > 0)

    def test_detects_corrupted_sigma(self, monkeypatch):
        # corrupt one sigma_min value beyond slack: the middle-mask point
        # must be flagged as a hard violation
        real_distances = psp._distances
        calls = []

        def corrupting(points, values):
            sig = real_distances(points, values)
            calls.append(values)
            if len(calls) == 2:  # second call = grid of T in sandwich_check
                sig[np.argmax(sig)] = 1e-9  # claims lambda is nearly singular for T
            return sig

        monkeypatch.setattr(psp, "_distances", corrupting)
        s = np.diag([0.0, 2.0]).astype(complex)
        rep = psp.sandwich_check(s, s, 0.5, resolution=(16, 16))
        assert len(calls) == 2
        assert not rep.passed
        assert len(rep.hard_violations) >= 1

    def test_takes_no_svd_and_no_grid(self, monkeypatch):
        # the norms and both grids come from the three eigensolves alone
        # (no function under src/ takes an SVD: test_source)
        monkeypatch.setattr(psp, "compute_grid", lambda *args: pytest.fail("compute_grid called"))
        monkeypatch.setattr(psp, "PseudospectrumGrid",
                            lambda *args, **kwargs: pytest.fail("PseudospectrumGrid built"))
        rep = sandwich_check(*random_pair(), 0.4, resolution=(28, 28))
        assert rep.passed and rep.inner_count > 0

    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_norms_match_the_svd(self, monkeypatch, pair):
        # delta is the report's; ||S|| and ||T|| are the norm that
        # sandwich_check(S, S) and (T, T) hand default_region
        s, t = self.PAIRS[pair]()
        norms = []
        real_region = psp.default_region

        def recording(norm_bound, *args):
            norms.append(norm_bound)
            return real_region(norm_bound, *args)

        monkeypatch.setattr(psp, "default_region", recording)
        rep = sandwich_check(s, t, 0.5, resolution=(4, 4))
        sandwich_check(s, s, 0.5, resolution=(4, 4))
        sandwich_check(t, t, 0.5, resolution=(4, 4))
        for got, a in ((rep.delta, s - t), (norms[1], s), (norms[2], t)):
            assert got == pytest.approx(np.linalg.norm(a, 2), rel=1e-12, abs=0)
        assert norms[0] == max(norms[1:])

    @pytest.mark.parametrize("difference, delta", [
        (np.zeros((3, 3)), 0.0),
        (np.eye(5), 1.0),
        (np.diag([1.0, -7.0, 3.0]), 7.0),
        # U + U* + V + V* at theta = 1/2 is [[2, 2], [2, -2]], eigenvalues +-2 sqrt 2
        (dense_matrix(build_operator(CANONICAL, 1, 2)), 2 * math.sqrt(2)),
    ], ids=["zero", "identity", "diagonal", "canonical_q2"])
    def test_delta_closed_forms(self, difference, delta):
        # delta = ||S - T||, the largest |eigenvalue| of the difference
        rep = sandwich_check(difference, np.zeros_like(difference), 0.5, resolution=(4, 4))
        assert rep.delta == pytest.approx(delta, rel=1e-12, abs=0)
        assert rep.passed

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            sandwich_check(np.eye(2), np.eye(3), 0.5)

    def test_non_hermitian_array_is_refused_before_any_eigensolve(self, monkeypatch):
        def no_eigensolve(a):
            raise AssertionError("_band_eigenvalues called")

        monkeypatch.setattr(psp, "_band_eigenvalues", no_eigensolve)
        s = np.diag([0.0, 2.0]).astype(complex)
        jordan = np.array([[0, 1], [0, 0]], dtype=complex)
        for pair in ((s, jordan), (jordan, s)):
            with pytest.raises(NotHermitian):
                sandwich_check(*pair, 0.5)
        # a model is refused before any eigensolve or grid: it is never made dense
        monkeypatch.setattr(psp, "_grid_nodes", lambda *args: pytest.fail("_grid_nodes called"))
        model = build_operator(U_PLUS_2V, 3, 8)
        for pair in ((model, model), (s, model), (model, s)):
            with pytest.raises(InvalidInput, match="never made dense"):
                sandwich_check(*pair, 0.5)
        assert "entries" not in vars(model)

    def test_difference_outside_the_float_range_is_refused_before_any_eigensolve(self,
                                                                                 monkeypatch):
        # S and T are finite, but S - T overflows: no overflow warning, and
        # no message that blames the entries the caller gave
        def no_eigensolve(a):
            raise AssertionError("_band_eigenvalues called")

        monkeypatch.setattr(psp, "_band_eigenvalues", no_eigensolve)
        s = np.diag([1e308, 0.0]).astype(complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"S - T .*float range"):
                sandwich_check(s, -s, 0.5)

    def test_default_region_outside_the_float_range_is_refused(self, monkeypatch):
        # with no region given, the derived half-width max(||S||, ||T||) +
        # epsilon + 2 delta + 1/2 is inf at 1e308, and at 4e307 its span
        # and corners are past the floats: the refusal names the norms, not
        # a region the caller never gave, before any grid is computed
        zero = np.zeros((2, 2))
        with monkeypatch.context() as m:
            m.setattr(psp, "_grid_nodes", lambda *args: pytest.fail("_grid_nodes called"))
            for big in (1e308, 4e307):
                message = f"||S|| = {big:.6e}, ||T|| = 0.000000e+00, delta = {big:.6e}"
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(InvalidInput, match="default region") as refused:
                        sandwich_check(np.diag([big, 0.0]), zero, 0.5)
                assert message in str(refused.value)
        # the same operators on a given region, and a derived one that fits
        assert sandwich_check(np.diag([4e307, 0.0]), zero, 0.5, region=(-1, 1, -1, 1),
                              resolution=(4, 4)).passed
        assert sandwich_check(np.diag([2e307, 0.0]), zero, 0.5, resolution=(4, 4)).passed

    def test_default_region_bounds_the_largest_eigenvalue(self, monkeypatch):
        # the symmetric Hadamard matrix H has ||H|| = 2 and row sums 4: the
        # grid adds the norm, the largest |eigenvalue|, to max |lambda|, so
        # at 2.7e307 H, where twice the half-width plus the norm fits the
        # floats, the derived region gives a finite report; at 4e307 H it
        # is refused, naming the norms, before any grid
        h = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
        derived = dict(resolution=(4, 4))
        with monkeypatch.context() as m:
            m.setattr(psp, "_grid_nodes", lambda *args: pytest.fail("_grid_nodes called"))
            with pytest.raises(InvalidInput, match=r"the default region is outside the float "
                               r"range: \|\|S\|\| = 8\.000000e\+307, \|\|T\|\| = 8\.0"):
                sandwich_check(4e307 * h, 4e307 * h, 0.5, **derived)
        big = sandwich_check(2.7e307 * h, 2.7e307 * h, 0.5, **derived)
        assert big.passed and big.region == pytest.approx((-5.4e307, 5.4e307) * 2, rel=1e-12)
        assert big.inner_count == 0 and big.delta == 0.0
        report = sandwich_check(h, h, 0.5, **derived)
        # ||H|| + epsilon + 2 delta + 1/2, not the row sum 4 + 1
        assert report.region == pytest.approx((-3, 3, -3, 3), rel=1e-12)

    def test_levels_outside_the_float_range_are_refused_before_any_grid(self, monkeypatch):
        # on a given region, epsilon + 2 delta = 2e308 is refused before
        # the grids of S and T are computed, not after
        monkeypatch.setattr(psp, "_grid_nodes", lambda *args: pytest.fail("_grid_nodes called"))
        with pytest.raises(InvalidInput, match=r"2\.000000e\+308 is outside the float range"):
            sandwich_check(np.diag([1e308, 0.0]), np.zeros((2, 2)), 0.5,
                           region=(-1, 1, -1, 1), resolution=(4, 4))

    def test_epsilon_must_be_finite(self):
        for epsilon in (np.inf, np.nan):
            with pytest.raises(InvalidInput):
                sandwich_check(np.eye(2), np.eye(2), epsilon)

    def test_levels_are_rounded_up(self, monkeypatch):
        # 0.7 + 0.1 and 0.7 + 2*0.1 both round to nearest below the exact
        # sums; sigma_min values equal to the rounded-up sums must pass
        # both inclusions without even an advisory
        epsilon, delta = 0.7, 0.1
        middle = Fraction(epsilon) + Fraction(delta)
        outer = Fraction(epsilon) + 2 * Fraction(delta)
        assert Fraction(epsilon + delta) < middle
        assert Fraction(epsilon + 2 * delta) < outer
        n = 8
        sig_s = np.zeros((n, n))
        sig_t = np.zeros((n, n))
        sig_t[:, : n // 2] = float_up(middle)  # inner (sig_s = 0) within middle
        sig_s[:, n // 2:] = float_up(outer)    # middle (sig_t = 0) within outer
        grids = iter((sig_s, sig_t))
        monkeypatch.setattr(psp, "_distances", lambda points, values: next(grids).ravel())
        s, t = np.zeros((1, 1)), np.full((1, 1), delta)
        rep = psp.sandwich_check(s, t, epsilon, resolution=(n, n))
        assert rep.delta == delta
        assert rep.middle_count == rep.outer_count == n * n
        assert rep.advisory_count == 0 and not rep.grid_too_coarse
        assert rep.passed
        assert next(grids, None) is None  # both planted grids were read


class TestHermitianArray:
    """sandwich_check's one array check, _hermitian_array: LAPACK runs
    without a finiteness check, so a NaN or inf entry is refused instead
    of answered wrong, as are a model (never made dense), a non-square or
    empty array and one that is not exactly Hermitian."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_entries_are_refused(self, bad):
        for a in ([[bad, 0], [0, 1]], [[1, bad], [bad, 1]], [[bad]]):
            with pytest.raises(InvalidInput, match="must be finite"):
                psp._hermitian_array(np.array(a, dtype=complex))

    def test_every_refusal_names_its_cause(self):
        model = build_operator(U_PLUS_2V, 3, 8)
        for a, error, message in (
                (model, InvalidInput, "never made dense"),
                (np.zeros((2, 3)), InvalidInput, r"expected a square matrix, got shape \(2, 3\)"),
                (np.zeros(4), InvalidInput, "expected a square matrix"),
                (np.zeros((0, 0)), InvalidInput, "empty matrix"),
                (np.array([[0, 1], [0, 0]]), NotHermitian, "conjugate transpose")):
            with pytest.raises(error, match=message):
                psp._hermitian_array(a)
        assert "entries" not in vars(model)
        h = np.array([[1, 2j], [-2j, 3]])
        a = psp._hermitian_array(h)
        assert a.dtype == np.complex128 and np.array_equal(a, h)


class TestSerialization:
    def test_cloud_round_trip(self):
        pts = np.array([0.1 + 0.2j, -1.5 + 0j, 1 / 3 - 2 / 7j])
        lines = "".join(cloud_to_csv(pts)).splitlines()
        assert lines[0] == "re,im"
        back = np.array([complex(*map(float, line.split(","))) for line in lines[1:]])
        assert np.array_equal(back, pts)  # 17 digits round-trip exactly

    def test_grid_round_trip_row_major(self):
        sigma = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # (nx=2, ny=3)
        grid = make_grid(sigma, region=(0, 1, 0, 2))
        text = "".join(grid_to_csv(grid))
        lines = text.strip().splitlines()
        assert lines[0] == "re,im,sigma_min"
        assert len(lines) == 1 + 6
        # row-major: i (re) outer, j (im) inner
        assert lines[1].startswith("0,0,1")
        assert lines[2].startswith("0,1,2")
        assert lines[4].startswith("1,0,4")
        sig = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert np.array_equal(sig.reshape(2, 3), sigma)

    def test_grid_csv_bytes_match_per_cell_formula(self):
        # non-square, so swapped axes fail; sigma covers zero, the
        # smallest subnormal, a huge value and values needing 17 digits
        rng = np.random.default_rng(5)
        sigma = rng.random((7, 5))
        sigma[0, :4] = [0.0, 5e-324, 1e300, 0.1]
        sigma[6, 4] = 1 / 3
        grid = make_grid(sigma, region=(-1 / 3, 2 / 7, -0.1, 0.7))
        re_ax, im_ax = grid.lambda_axes()
        expect = "re,im,sigma_min\n" + "".join(
            f"{re_ax[i]:.17g},{im_ax[j]:.17g},{sigma[i, j]:.17g}\n"
            for i in range(7) for j in range(5))
        text = "".join(grid_to_csv(grid))
        assert text == expect
        assert "0.10000000000000001" in text and "4.9406564584124654e-324" in text

    def test_pgm_gray_mapping(self):
        # sigma = 1 -> (0+8)/10*65535 = 52428; >= 100 clips to 65535;
        # <= 1e-8 (and exact zero) clip to 0; 1e-3 -> 32767.5 rounds
        # half-to-even to 32768
        sigma = np.array([[1.0, 100.0], [1e-8, 1e-3]])
        grid = make_grid(sigma)
        data = b"".join(grid_to_pgm(grid))
        header = b"P5\n2 2\n65535\n"
        assert data.startswith(header)
        pix = np.frombuffer(data[len(header):], dtype=">u2").reshape(2, 2)
        # image rows run from max imaginary down: pixel[r, c] = gray[c, ny-1-r]
        assert pix[1, 0] == 52428   # sigma[0, 0] lands in the bottom row
        assert pix[1, 1] == 0       # sigma[1, 0] = 1e-8
        assert pix[0, 0] == 65535   # sigma[0, 1] = 100
        assert pix[0, 1] == 32768   # sigma[1, 1] = 1e-3

    def test_pgm_zero_sigma(self):
        grid = make_grid(np.array([[0.0, 1.0], [1.0, 1.0]]))
        data = b"".join(grid_to_pgm(grid))
        pix = np.frombuffer(data[-8:], dtype=">u2").reshape(2, 2)
        assert pix[1, 0] == 0

    @pytest.mark.parametrize("resolution", ((257, 130), (3, 20000), (20000, 3), (2, 2)))
    def test_pgm_blocks_equal_the_whole_buffer(self, resolution):
        # the same elementwise steps on one whole-grid buffer; 257 columns
        # are 63 image rows per block, 20000 one
        rng = np.random.default_rng(11)
        sigma = 10.0 ** rng.uniform(-10, 4, resolution)
        sigma.flat[::97] = 0.0
        with np.errstate(divide="ignore"):
            gray = np.log10(sigma)
        np.clip(gray, -8.0, 2.0, out=gray)
        gray += 8.0
        gray /= 10.0
        gray *= 65535.0
        np.rint(gray, out=gray)
        nx, ny = resolution
        expect = f"P5\n{nx} {ny}\n65535\n".encode() + gray.T[::-1, :].astype(">u2").tobytes()
        assert b"".join(grid_to_pgm(make_grid(sigma))) == expect

    def test_pgm_memory_is_one_block(self):
        # whole, the 1024 x 1024 pixels were an 8 MiB float buffer and two
        # 2 MiB byte copies, 12 MiB beside the grid's own 8 MiB
        grid = make_grid(np.random.default_rng(12).random((1024, 1024)))
        tracemalloc.start()
        try:
            size = sum(len(piece) for piece in grid_to_pgm(grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == len(b"P5\n1024 1024\n65535\n") + 2 * 1024 * 1024
        assert peak < grid.sigma_min_values.nbytes / 8, peak


class TestRegionDefaults:
    def test_default_region_square(self):
        r = default_region(3.0, 0.5, "unused")
        assert r == (-4.0, 4.0, -4.0, 4.0)

    def test_floor_at_unit(self):
        assert default_region(0.0, 0.0, "unused") == (-1.0, 1.0, -1.0, 1.0)

    def test_outside_the_float_range_names_the_inputs(self):
        # twice the half-width plus the norm bound must be a float
        assert default_region(2e307, 2e307, "unused")[1] == 6e307
        for norm, margin in ((1e308, 0.0), (0.0, 4.5e307), (math.inf, 0.0)):
            with pytest.raises(InvalidInput, match="default region .* float range: the inputs"):
                default_region(norm, margin, "the inputs")
