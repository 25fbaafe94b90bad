"""Grids, level sets, sandwich verification, and serialization.

Oracle strategy: for normal matrices sigma_min(lambda*I - A) equals the
distance from lambda to the nearest eigenvalue, which pins every grid
value; every route (distances, the banded Gram-Cholesky test, the SVD)
is checked point by point against np.linalg.svd of the dense matrix;
PGM bytes are checked against the documented gray mapping computed by
hand.
"""

import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import rotspec.pseudospectra as psp
import rotspec.spectral as spectral
from rotspec.errors import ConvergenceFailure, InvalidInput
from rotspec.exact import float_up
from rotspec.matmodel import OperatorSpec, build_operator, spec_norm_bound
from rotspec.pseudospectra import (
    GridParams,
    PointCloud,
    PseudospectrumGrid,
    cloud_to_csv,
    compute_grid,
    default_region,
    grid_to_csv,
    grid_to_pgm,
    level_set,
    matrix_fingerprint,
    sandwich_check,
    union_spectrum,
)
from rotspec.spectral import _banded_sigma_min, _gram_band, normal_eigenvalues, operator_norm

CANONICAL = OperatorSpec.canonical(1, 1, 1, 1)
U_PLUS_2V = OperatorSpec.canonical(1, 0, 2, 0)


def make_grid(sigma: np.ndarray, region=(0.0, 1.0, 0.0, 1.0)) -> PseudospectrumGrid:
    sigma = np.asarray(sigma, dtype=float)
    return PseudospectrumGrid(
        region=region,
        resolution=sigma.shape,
        sigma_min_values=sigma,
        matrix_fingerprint="test",
    )


class TestComputeGrid:
    def test_values_equal_distance_for_normal_matrix(self):
        eigs = np.array([0.0 + 0j, 1.0 + 0j, 0.5 + 0.5j])
        a = np.diag(eigs)
        grid = compute_grid(a, (-1, 2, -1, 1), (13, 9))
        re, im = grid.lambda_axes()
        for i in range(13):
            for j in range(9):
                lam = re[i] + 1j * im[j]
                expect = np.min(np.abs(lam - eigs))
                assert grid.sigma_min_values[i, j] == pytest.approx(expect, abs=1e-12)

    def test_axes_and_steps(self):
        grid = compute_grid(np.eye(2, dtype=complex), (-2, 2, -1, 1), (5, 3))
        re, im = grid.lambda_axes()
        assert np.allclose(re, [-2, -1, 0, 1, 2])
        assert np.allclose(im, [-1, 0, 1])

    def test_jobs_do_not_change_bytes(self):
        # one case per route: distances (Hermitian q=5), the band (U+2V
        # at q=89, one chunk) and the SVD (its dense matrix, 100 points in
        # chunks of 33)
        cases = (
            (build_operator(CANONICAL, 2, 5), (-4, 4, -1, 1), (32, 16), (1, 2, 8)),
            (build_operator(U_PLUS_2V, 55, 89), (-3.5, 3.5, -3.5, 3.5), (10, 10), (1, 2, 3)),
            (build_operator(U_PLUS_2V, 55, 89).entries, (-3.5, 3.5, -3.5, 3.5), (10, 10),
             (1, 2, 3)),
        )
        for h, region, resolution, jobs in cases:
            grids = [compute_grid(h, region, resolution, jobs=j) for j in jobs]
            base = "".join(grid_to_csv(grids[0]))
            for g in grids[1:]:
                assert "".join(grid_to_csv(g)) == base

    def test_values_match_pointwise_svd(self):
        h = build_operator(U_PLUS_2V, 55, 89).entries
        grid = compute_grid(h, (-3.5, 3.5, -3.5, 3.5), (10, 10), jobs=3)
        lam = grid.lambda_grid()
        for i, j in np.ndindex(*grid.resolution):
            ref = np.linalg.svd(lam[i, j] * np.eye(89) - h, compute_uv=False)[-1]
            assert grid.sigma_min_values[i, j] == pytest.approx(ref, rel=1e-12)

    def test_chunk_stacks_stay_within_4_mib(self, monkeypatch):
        sizes = []
        real_stack = psp.sigma_min_stack

        def recording(stack):
            sizes.append(stack.nbytes)
            return real_stack(stack)

        monkeypatch.setattr(psp, "sigma_min_stack", recording)
        compute_grid(build_operator(U_PLUS_2V, 89, 144).entries, (-3, 3, -3, 3), (6, 6))
        assert max(sizes) <= 4 << 20
        assert len(sizes) > 1

    def test_validation(self):
        with pytest.raises(InvalidInput):
            compute_grid(np.eye(2), (1, -1, 0, 1), (8, 8))
        with pytest.raises(InvalidInput):
            compute_grid(np.eye(2), (-1, 1, 0, 1), (1, 8))
        for region in ((0, np.inf, -1, 1), (-1, 1, np.nan, 1)):
            with pytest.raises(InvalidInput):
                compute_grid(np.eye(2), region, (4, 4))
        for jobs in (0, -2):
            with pytest.raises(InvalidInput):
                compute_grid(np.eye(2), (-1, 1, -1, 1), (4, 4), jobs=jobs)

    def test_scalar_matrix(self):
        grid = compute_grid(np.array([[0.5 + 0.5j]]), (0, 1, 0, 1), (3, 3))
        re, im = grid.lambda_axes()
        for i in range(3):
            for j in range(3):
                assert grid.sigma_min_values[i, j] == pytest.approx(
                    abs(re[i] + 1j * im[j] - (0.5 + 0.5j)), abs=1e-14)

    def test_fingerprint_recorded(self):
        h = build_operator(CANONICAL, 2, 5)
        grid = compute_grid(h, (-1, 1, -1, 1), (4, 4))
        assert grid.matrix_fingerprint == matrix_fingerprint(h)
        other = matrix_fingerprint(h.entries + 1e-12)
        assert other != grid.matrix_fingerprint

    def test_fingerprint_of_a_model_is_the_dense_formula(self):
        # u-powers 1, -1 and 3 share slots at q = 1 and 2, and these
        # coefficients sum to other bits in reverse term order; the
        # fingerprint must sum them in term order, as the dense entries do
        spec = OperatorSpec.general([(1, 0, 0.1), (-1, 0, 0.2), (3, 2, 0.3),
                                     (0, 1, 1 / 3), (-3, -2, 0.3 + 1j)])
        for p, q in ((0, 1), (1, 2), (89, 144)):
            model = build_operator(spec, p, q)
            got = matrix_fingerprint(model)
            assert "entries" not in vars(model)
            dense = np.ascontiguousarray(model.entries)
            expect = hashlib.sha256(str(dense.shape).encode() + dense.tobytes()).hexdigest()
            assert got == expect == matrix_fingerprint(dense)

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
        return _banded_sigma_min(_gram_band(model), np.asarray(lam, dtype=complex))

    def assert_matches_svd(self, model, lam, got):
        ref = pointwise_svd(model.entries, lam)
        assert np.all(np.abs(got - ref) <= 1e-10 * ref + sigma_tolerance(lam, model.spec))

    def test_grids_match_pointwise_svd(self):
        for spec in (U_PLUS_2V, FOUR_TERM, WIDE):
            assert not spec.is_hermitian
            for p, q in GOLDEN_ORDERS:
                model = build_operator(spec, p, q)
                grid = compute_grid(model, (-3.7, 3.1, -3.3, 3.5), (7, 6))
                self.assert_matches_svd(model, grid.lambda_grid().ravel(),
                                        grid.sigma_min_values.ravel())

    def test_at_and_near_eigenvalues(self):
        for spec in (U_PLUS_2V, FOUR_TERM):
            for p, q in GOLDEN_ORDERS:
                model = build_operator(spec, p, q)
                eigs = np.linalg.eigvals(model.entries)[::max(1, q // 30)]
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
            lam = np.concatenate([grid.lambda_grid().ravel(), roots, 1.000001 * roots])
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
                lam = grid.lambda_grid().ravel()
                ref = scale * pointwise_svd(build_operator(small, p, q).entries, lam / scale)
                got = grid.sigma_min_values.ravel()
                assert np.all(np.isfinite(got)) and np.all(got > 0)
                assert np.all(np.abs(got - ref) <= 1e-10 * ref + sigma_tolerance(lam, big))

    def test_sum_of_moduli_outside_the_normal_floats_is_refused(self):
        # the band is scaled by 1/sum|c|: a subnormal sum overflows it to
        # inf/nan and an infinite sum zeroes it, so neither reaches it
        for terms, shown in (([(1, 1, 1e-320)], "1e-320"),
                             ([(1, 1, 1e308), (2, 0, 1e308)], "inf")):
            model = build_operator(OperatorSpec.general(terms), 1, 2)
            with pytest.raises(InvalidInput, match=f"sum \\|c\\| = {shown},"):
                compute_grid(model, (-1, 1, -1, 1), (3, 3))

    def test_jobs_across_chunk_boundaries(self):
        # 2112 points at q = 8 are chunks of 2048 + 64 (the point cap);
        # 625 points at q = 144 are 606 + 19 (the 4 MiB array budget)
        for p, q, resolution in ((3, 8, (64, 33)), (89, 144, (25, 25))):
            model = build_operator(U_PLUS_2V, p, q)
            texts = ["".join(grid_to_csv(compute_grid(model, (-3.5, 3.5, -3.5, 3.5),
                                                      resolution, jobs=j)))
                     for j in (1, 2, 3)]
            assert texts[0] == texts[1] == texts[2]

    def test_value_outside_the_bracket_is_a_convergence_failure(self, monkeypatch):
        # with no inverse iteration the start vector's ||Bx||/||x|| is
        # reported, far above the bracket; the check must catch it
        monkeypatch.setattr(spectral, "_INVERSE_STEPS", 0)
        with pytest.raises(ConvergenceFailure, match="outside its bisection bracket"):
            compute_grid(build_operator(U_PLUS_2V, 3, 8), (-1, 1, -1, 1), (3, 3))

    def test_band_arrays_stay_within_4_mib(self, monkeypatch):
        sizes = []
        real_cholesky = spectral._band_cholesky

        def recording(g):
            cholesky = real_cholesky(g)

            def factor(shift):
                f, ok = cholesky(shift)
                sizes.append(max(g.nbytes, f.nbytes))
                return f, ok

            return factor

        monkeypatch.setattr(spectral, "_band_cholesky", recording)
        # 625 points at q = 144 are two chunks (606 + 19); 88 points at
        # q = 987 are one full chunk
        for p, q, resolution, chunks in ((89, 144, (25, 25), 2), (610, 987, (11, 8), 1)):
            model = build_operator(U_PLUS_2V, p, q)
            sizes.clear()
            tracemalloc.start()
            try:
                compute_grid(model, (-3, 3, -3, 3), resolution)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(sizes) == chunks * (spectral._HALVINGS + 1)
            assert max(sizes) <= 4 << 20
            # the Gram stack and its factor, then vectors; one dense
            # matrix at q = 987 alone is 14.9 MiB
            assert peak <= 12 << 20


def random_hermitian(n: int) -> np.ndarray:
    """Equal to its conjugate transpose bit for bit: z + z* sums the same
    two numbers in either order."""
    rng = np.random.default_rng(12)
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


class TestDistanceRoute:
    """Hermitian inputs take one eigensolve and distances to its values."""

    @staticmethod
    def spy(monkeypatch):
        calls = []
        real_eigs, real_stack = psp.hermitian_eigenvalues, psp.sigma_min_stack

        def eigs(a):
            calls.append("eig")
            return real_eigs(a)

        def stack(st):
            calls.append("svd")
            return real_stack(st)

        monkeypatch.setattr(psp, "hermitian_eigenvalues", eigs)
        monkeypatch.setattr(psp, "sigma_min_stack", stack)
        return calls

    def test_hermitian_spec_model(self, monkeypatch):
        calls = self.spy(monkeypatch)
        model = build_operator(CANONICAL, 55, 89)
        grid = compute_grid(model, (-4.5, 4.5, -1, 1), (19, 7))
        assert calls == ["eig"] and "entries" not in vars(model)
        ref = pointwise_svd(model.entries, grid.lambda_grid().ravel())
        # both sides err by a few ulps of ||A|| <= 4
        assert np.max(np.abs(grid.sigma_min_values.ravel() - ref)) <= 1e-12 * 4

    def test_exactly_hermitian_dense_matrix(self, monkeypatch):
        calls = self.spy(monkeypatch)
        h = random_hermitian(9)
        grid = compute_grid(h, (-4, 4, -2, 2), (9, 5))
        assert calls == ["eig"]
        ref = pointwise_svd(h, grid.lambda_grid().ravel())
        assert np.max(np.abs(grid.sigma_min_values.ravel() - ref)) <= 1e-12 * operator_norm(h)

    def test_one_ulp_defect_keeps_the_svd(self, monkeypatch):
        calls = self.spy(monkeypatch)
        h = random_hermitian(9)
        h[2, 5] = complex(np.nextafter(h[2, 5].real, np.inf), h[2, 5].imag)
        grid = compute_grid(h, (-4, 4, -2, 2), (9, 5))
        assert calls == ["svd"]
        ref = pointwise_svd(h, grid.lambda_grid().ravel())
        assert np.max(np.abs(grid.sigma_min_values.ravel() - ref) / ref) <= 1e-12


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
        grid = make_grid(np.ones((2, 2)))
        with pytest.raises(InvalidInput):
            level_set(grid, 0.0)


class TestSandwich:
    def test_identical_matrices(self):
        h = build_operator(CANONICAL, 1, 3).entries
        rep = sandwich_check(h, h, 0.5, GridParams(resolution=(20, 20)))
        assert rep.passed and rep.delta == 0.0
        assert rep.hard_violations == ()
        assert rep.inner_count <= rep.middle_count <= rep.outer_count

    def test_diagonal_shift_pair(self):
        s = np.diag([0.0, 2.0]).astype(complex)
        t = np.diag([0.1, 2.1]).astype(complex)
        rep = sandwich_check(s, t, 0.5, GridParams(resolution=(24, 24)))
        assert rep.passed
        assert rep.delta == pytest.approx(0.1, abs=1e-12)

    def test_random_hermitian_pair(self):
        rng = np.random.default_rng(9)
        z = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        s = (z + z.conj().T) / 2
        t = s + 0.05 * np.diag(rng.standard_normal(6))
        t = (t + t.conj().T) / 2
        rep = sandwich_check(s, t, 0.4, GridParams(resolution=(28, 28)))
        assert rep.passed
        assert rep.grid_too_coarse == (rep.advisory_count > 0)

    def test_detects_corrupted_sigma(self, monkeypatch):
        # corrupt one sigma_min value beyond slack: the middle-mask point
        # must be flagged as a hard violation
        real_compute = psp.compute_grid
        calls = {}

        def corrupting(a, region, resolution, jobs=1):
            grid = real_compute(a, region, resolution, jobs)
            tag = len(calls)
            calls[tag] = grid
            if tag == 1:  # second call = grid of T in sandwich_check
                sig = grid.sigma_min_values.copy()
                ij = np.unravel_index(np.argmax(sig), sig.shape)
                sig[ij] = 1e-9  # claims lambda is nearly singular for T
                grid = PseudospectrumGrid(
                    region=grid.region, resolution=grid.resolution,
                    sigma_min_values=sig,
                    matrix_fingerprint=grid.matrix_fingerprint,
                )
            return grid

        monkeypatch.setattr(psp, "compute_grid", corrupting)
        s = np.diag([0.0, 2.0]).astype(complex)
        rep = psp.sandwich_check(s, s, 0.5, GridParams(resolution=(16, 16)))
        assert not rep.passed
        assert len(rep.hard_violations) >= 1

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            sandwich_check(np.eye(2), np.eye(3), 0.5)

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

        def planted(a, region, resolution, jobs=1):
            return PseudospectrumGrid(region=region, resolution=resolution,
                                      sigma_min_values=next(grids),
                                      matrix_fingerprint="planted")

        monkeypatch.setattr(psp, "compute_grid", planted)
        s, t = np.zeros((1, 1)), np.full((1, 1), delta)
        rep = psp.sandwich_check(s, t, epsilon, GridParams(resolution=(n, n)))
        assert rep.delta == delta
        assert rep.middle_count == rep.outer_count == n * n
        assert rep.advisory_count == 0 and not rep.grid_too_coarse
        assert rep.passed


class TestUnionSpectrum:
    def test_matches_block_diagonal(self):
        a = build_operator(CANONICAL, 1, 3)
        b = build_operator(CANONICAL, 2, 5)
        cloud = union_spectrum(a, b)
        block = np.zeros((8, 8), dtype=complex)
        block[:3, :3] = a.entries
        block[3:, 3:] = b.entries
        direct = normal_eigenvalues(block)
        assert np.allclose(np.sort(cloud.points.real), np.sort(direct.real),
                           atol=1e-10)
        assert np.allclose(cloud.points.imag, 0, atol=1e-10)
        assert len(cloud) == 8

    def test_multiset_keeps_duplicates(self):
        cloud = union_spectrum(np.eye(2, dtype=complex), np.eye(3, dtype=complex))
        assert np.allclose(cloud.points, np.ones(5), atol=1e-14)


class TestSerialization:
    def test_cloud_round_trip(self):
        pts = np.array([0.1 + 0.2j, -1.5 + 0j, 1 / 3 - 2 / 7j])
        lines = "".join(cloud_to_csv(PointCloud(points=pts))).splitlines()
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


class TestRegionDefaults:
    def test_default_region_square(self):
        r = default_region(3.0, 0.5)
        assert r == (-4.0, 4.0, -4.0, 4.0)

    def test_floor_at_unit(self):
        assert default_region(0.0, 0.0) == (-1.0, 1.0, -1.0, 1.0)
