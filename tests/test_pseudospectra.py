"""Grids, level sets, sandwich verification, and serialization.

Oracle strategy: for normal matrices sigma_min(lambda*I - A) equals the
distance from lambda to the nearest eigenvalue, which pins every grid
value; PGM bytes are checked against the documented gray mapping
computed by hand.
"""

from fractions import Fraction

import numpy as np
import pytest

import rotspec.pseudospectra as psp
from rotspec.errors import EmptyCloud, InvalidInput
from rotspec.exact import float_up
from rotspec.matmodel import OperatorSpec, build_operator
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
    read_cloud_csv,
    read_grid_csv,
    sandwich_check,
    union_spectrum,
)
from rotspec.spectral import normal_eigenvalues

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
        assert grid.h_x == 1.0 and grid.h_y == 1.0

    def test_jobs_do_not_change_bytes(self):
        # q=5 fits one chunk; q=89 splits 100 points into chunks of 33
        cases = (
            (build_operator(CANONICAL, 2, 5), (-4, 4, -1, 1), (32, 16), (1, 2, 8)),
            (build_operator(U_PLUS_2V, 55, 89), (-3.5, 3.5, -3.5, 3.5), (10, 10), (1, 2, 3)),
        )
        for h, region, resolution, jobs in cases:
            grids = [compute_grid(h, region, resolution, jobs=j) for j in jobs]
            base = grid_to_csv(grids[0])
            for g in grids[1:]:
                assert grid_to_csv(g) == base

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
        compute_grid(build_operator(U_PLUS_2V, 89, 144), (-3, 3, -3, 3), (6, 6))
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
        text = cloud_to_csv(PointCloud(points=pts))
        back = read_cloud_csv(text)
        assert np.array_equal(back.points, pts)  # 17 digits round-trip exactly

    def test_cloud_header_and_empty(self):
        with pytest.raises(InvalidInput):
            read_cloud_csv("x,y\n1,2\n")
        with pytest.raises(EmptyCloud):
            read_cloud_csv("re,im\n")

    def test_grid_round_trip_row_major(self):
        sigma = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])  # (nx=2, ny=3)
        grid = make_grid(sigma, region=(0, 1, 0, 2))
        text = grid_to_csv(grid)
        lines = text.strip().splitlines()
        assert lines[0] == "re,im,sigma_min"
        assert len(lines) == 1 + 6
        # row-major: i (re) outer, j (im) inner
        assert lines[1].startswith("0,0,1")
        assert lines[2].startswith("0,1,2")
        assert lines[4].startswith("1,0,4")
        re, im, sig = read_grid_csv(text)
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
        text = grid_to_csv(grid)
        assert text == expect
        assert "0.10000000000000001" in text and "4.9406564584124654e-324" in text

    def test_pgm_gray_mapping(self):
        # sigma = 1 -> (0+8)/10*65535 = 52428; >= 100 clips to 65535;
        # <= 1e-8 (and exact zero) clip to 0; 1e-3 -> 32767.5 rounds
        # half-to-even to 32768
        sigma = np.array([[1.0, 100.0], [1e-8, 1e-3]])
        grid = make_grid(sigma)
        data = grid_to_pgm(grid)
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
        data = grid_to_pgm(grid)
        pix = np.frombuffer(data[-8:], dtype=">u2").reshape(2, 2)
        assert pix[1, 0] == 0

    def test_grid_header_validation(self):
        with pytest.raises(InvalidInput):
            read_grid_csv("a,b,c\n1,2,3\n")


class TestRegionDefaults:
    def test_default_region_square(self):
        r = default_region(3.0, 0.5)
        assert r == (-4.0, 4.0, -4.0, 4.0)

    def test_floor_at_unit(self):
        assert default_region(0.0, 0.0) == (-1.0, 1.0, -1.0, 1.0)
