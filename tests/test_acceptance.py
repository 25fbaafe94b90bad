"""Acceptance gate: ten headline guarantees, one test per criterion.

Each criterion is exercised at its stated tolerance and, where a runtime
budget is part of the guarantee, the wall clock is asserted too.  Every
test prints one PASS line with the measured quantities so a transcript
of this file doubles as the verification report.
"""

import json
import math
import time
from itertools import combinations

import numpy as np
import pytest

from rotspec.approx import (
    certify_normal,
    constant_audit,
    hausdorff_distance,
    one_sided,
    one_sided_contains,
)
from rotspec.cli import main
from rotspec.contfrac import convergent_gap, expand, fibonacci, parse_theta
from rotspec.matmodel import OperatorSpec, build_operator, spec_norm_bound
from rotspec.pseudospectra import compute_grid, sandwich_check
from rotspec.spectral import hermitian_eigenvalues, normal_eigenvalues
from dense_oracle import clock, clock_shift_defects, dense_matrix, grid_nodes, shift

GOLDEN = parse_theta("surd:(-1+1*sqrt(5))/2")
SQRT2M1 = parse_theta("surd:(-1+1*sqrt(2))/1")
AM = OperatorSpec.canonical(1, 1, 1, 1)
U_ONLY = OperatorSpec.canonical(1, 0, 0, 0)


def test_criterion_01_continued_fraction_exactness():
    t0 = time.perf_counter()
    for theta, name in ((GOLDEN, "golden"), (SQRT2M1, "sqrt2-1")):
        e = expand(theta, 41)
        for n in range(40):
            gb = convergent_gap(e, n)
            assert gb.strict and gb.certified
            assert gb.gap_upper < gb.bound  # enclosure confirms the exact compare
        if name == "golden":
            assert [e.q(n) for n in range(41)] == [fibonacci(n) for n in range(41)]
            assert e.q(40) == 165580141
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: 2x40 exact gap inequalities, golden q_n Fibonacci "
          f"through 165580141 ({elapsed:.3f}s < 1s)")


def test_criterion_02_commutation_and_unitarity():
    t0 = time.perf_counter()
    fibs = [1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]
    worst_comm = worst_unit = 0.0
    for p, q in zip(fibs, fibs[1:]):  # (p, q) = (q_{n-1}, q_n), golden convergents
        # read off build_operator's own models, not a second construction
        comm, unit = clock_shift_defects(shift(q), clock(p, q), np.exp(2j * np.pi * p / q))
        worst_comm, worst_unit = max(worst_comm, comm), max(worst_unit, unit)
    assert worst_comm <= 1e-12
    assert worst_unit <= 1e-13
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 2: q up to 1597, commutation defect {worst_comm:.2e} "
          f"<= 1e-12, unitarity defect {worst_unit:.2e} <= 1e-13 "
          f"({elapsed:.2f}s < 30s)")


def test_criterion_03_eigensolver_oracles():
    t0 = time.perf_counter()
    worst_h = 0.0
    u_plus_ustar = OperatorSpec.canonical(1, 1, 0, 0)
    for q in range(2, 513):
        got = hermitian_eigenvalues(build_operator(u_plus_ustar, 1, q))
        expect = np.sort(2 * np.cos(2 * np.pi * np.arange(q) / q))
        worst_h = max(worst_h, float(np.max(np.abs(got - expect))))
    assert worst_h <= 1e-10

    worst_n = 0.0
    qs = list(range(2, 65)) + [96, 128, 192, 256, 384, 512]
    for q in qs:
        got = normal_eigenvalues(shift(q))
        roots = np.exp(2j * np.pi * np.arange(q) / q)
        d1 = np.max(np.min(np.abs(got[:, None] - roots[None, :]), axis=1))
        d2 = np.max(np.min(np.abs(roots[:, None] - got[None, :]), axis=1))
        worst_n = max(worst_n, float(d1), float(d2))
    assert worst_n <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"PASS criterion 3: hermitian oracle error {worst_h:.2e} <= 1e-10 "
          f"(q=2..512), shift roots-of-unity error {worst_n:.2e} <= 1e-9 "
          f"({elapsed:.1f}s < 120s)")


def random_normal_spec(rng: np.random.Generator, kind: int) -> OperatorSpec:
    """A canonical spec of a Hermitian spec (kind 0) or of normal class
    (i) no V terms, (ii) no U terms or (iii) z times a Hermitian spec
    (kinds 1, 2, 3). The coefficients are dyadic with few bits, so class
    (iii)'s products, and with them OperatorSpec.is_normal, are exact."""
    def dyadic() -> complex:
        re, im = rng.integers(-32, 33, 2)
        return complex(re, im) / 16

    h, g = dyadic() or 1, dyadic() or 1
    if kind == 0:
        return OperatorSpec.canonical(h, h.conjugate(), g, g.conjugate())
    if kind == 1:
        return OperatorSpec.canonical(h, dyadic(), 0, 0)
    if kind == 2:
        return OperatorSpec.canonical(0, 0, g, dyadic())
    z = complex(*rng.integers(1, 5, 2)) / 4 * complex(1, 1) ** int(rng.integers(4))
    return OperatorSpec.canonical(z * h, z * h.conjugate(), z * g, z * g.conjugate())


def test_criterion_04_normal_distance_identity():
    # the grids the CLI computes for models of normal specs take
    # sigma_min(lambda I - A) = dist(lambda, sigma(A)); each grid value
    # must match the SVD of the dense model
    rng = np.random.default_rng(20240817)
    worst_ratio = 0.0
    for i in range(50):
        spec = random_normal_spec(rng, i % 4)
        assert spec.is_hermitian or spec.is_normal
        q = int(rng.integers(2, 65))
        p = next(p for p in map(int, rng.permutation(q)) if math.gcd(p, q) == 1)
        model = build_operator(spec, p, q)
        norm = spec_norm_bound(spec)
        re_min, re_max = np.sort(rng.uniform(-1.5, 1.5, 2) * norm)
        im_min, im_max = np.sort(rng.uniform(-1.5, 1.5, 2) * norm)
        grid = compute_grid(model, (re_min, re_max, im_min, im_max), (5, 4))
        lam = grid_nodes(grid).ravel()
        shifted = lam[:, None, None] * np.eye(q) - dense_matrix(model)
        expect = np.linalg.svd(shifted, compute_uv=False)[:, -1]
        sigma = grid.sigma_min_values.ravel()
        tol = 1e-7 * (norm + np.abs(lam))
        assert np.all(np.abs(sigma - expect) <= tol), (spec, p, q)
        worst_ratio = max(worst_ratio, float(np.max(np.abs(sigma - expect) / tol)))
    print(f"PASS criterion 4: 50 normal models (q <= 64) x 20 grid points, "
          f"max |sigma_min - svd| = {worst_ratio:.2e} of the 1e-7*(sum |c| + |lambda|) budget")


def test_criterion_05_two_sided_rate_ladder():
    t0 = time.perf_counter()
    clouds, sharps = {}, {}
    for n in range(3, 13):
        cloud, cert = certify_normal(GOLDEN, AM, n)
        clouds[n], sharps[n] = cloud, cert.epsilon_sharp
    assert certify_normal(GOLDEN, AM, 12)[1].q_pair == (144, 233)
    for n, m in combinations(range(3, 13), 2):
        dh = hausdorff_distance(clouds[n], clouds[m])
        assert dh <= sharps[n] + sharps[m] + 1e-8
    worst_margin = 0.0
    for n in range(3, 12):
        dh = hausdorff_distance(clouds[n], clouds[12])
        assert dh <= sharps[n] + 1e-8  # proxy consequence of the clean bound
        worst_margin = max(worst_margin, dh / sharps[n])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"PASS criterion 5: 45 cloud pairs within certificate sums; "
          f"dH(n,12)/eps_sharp(n) peaks at {worst_margin:.3f} <= 1 "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_06_sharpness_floor():
    samples = np.exp(2j * np.pi * np.arange(4096) / 4096)
    slack = 2 * np.pi / 4096
    e = expand(GOLDEN, 14)
    floors, dhs = [], []
    for n in range(5, 13):
        cloud, cert = certify_normal(GOLDEN, U_ONLY, n)
        dh = hausdorff_distance(cloud, samples)
        floor = math.pi / (2 * (e.q(n - 1) + e.q(n)))
        assert dh >= floor - slack
        assert dh <= cert.epsilon_sharp
        floors.append(floor)
        dhs.append(dh)
    ratios = [d / f for d, f in zip(dhs, floors)]
    print(f"PASS criterion 6: n=5..12 circle-gap dH within "
          f"[pi/(2(q+q')) - 2pi/4096, eps_sharp]; dH/floor in "
          f"[{min(ratios):.2f}, {max(ratios):.2f}]")


def test_criterion_07_sandwich_bulk():
    t0 = time.perf_counter()
    rng = np.random.default_rng(77)
    total_hard = 0
    deltas = []
    for _ in range(100):
        m = int(rng.integers(2, 33))
        z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        s = (z + z.conj().T) / 2
        w = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        e = (w + w.conj().T) / 2
        e *= rng.uniform(0.01, 0.5) / np.linalg.norm(e, 2)
        eps = float(rng.uniform(0.2, 1.0))
        rep = sandwich_check(s, s + e, eps, resolution=(128, 128))
        assert rep.passed, f"hard violations at delta={rep.delta}"
        total_hard += len(rep.hard_violations)
        deltas.append(rep.delta)
    assert total_hard == 0
    assert 0 < min(deltas) and max(deltas) <= 0.5 + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"PASS criterion 7: 100 hermitian pairs on 128x128 grids, "
          f"0 hard violations, ||S-T|| in ({min(deltas):.3f}, {max(deltas):.3f}] "
          f"({elapsed:.1f}s < 300s)")


def test_criterion_08_one_sided_containment():
    deep_cloud, deep_cert = certify_normal(GOLDEN, AM, 12)
    c1_expected = 36 * math.sqrt(3 * math.pi)
    for n in (10, 50, 200):
        cloud, cert = one_sided(GOLDEN, AM, n)
        delta = cert.radius + deep_cert.epsilon_sharp
        assert one_sided_contains(cloud, deep_cloud, delta)
        recovered = cert.radius * math.sqrt(n)
        assert abs(recovered / c1_expected - 1) < 1e-6
    print(f"PASS criterion 8: n in {{10,50,200}} contained in the level-12 "
          f"cloud at C1/sqrt(n) + eps_sharp(12); C1 recovered as "
          f"{recovered:.6f} vs 36*sqrt(3*pi) = {c1_expected:.6f} (6 digits)")


def test_criterion_09_constant_audit():
    audit = constant_audit()
    assert audit.majorization_below_204
    assert 203.0 < audit.majorization_lower <= audit.majorization_upper < 204.0
    tail_mid = (audit.tail_lower + audit.tail_upper) / 2
    assert abs(tail_mid - 3.618034) < 1e-6
    print(f"PASS criterion 9: majorization in [{audit.majorization_lower:.6f}, "
          f"{audit.majorization_upper:.6f}] <= 204; tail constant "
          f"{tail_mid:.7f} = 3.618034 to 6 digits")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["pseudospectrum", "--theta", "surd:(-1+1*sqrt(5))/2", "--level", "3",
            "--epsilon", "0.5", "--region", "-6", "6", "-6", "6",
            "--resolution", "32", "32", "--format", "csv"]
    outputs = []
    for jobs, tag in ((1, "j1a"), (1, "j1b"), (8, "j8")):
        out = tmp_path / tag
        assert main(args + ["--jobs", str(jobs), "--out-dir", str(out)]) == 0
        outputs.append(tuple((out / f).read_bytes()
                             for f in ("grid_prev.csv", "grid_curr.csv")))
    assert outputs[0] == outputs[1] == outputs[2]
    print("PASS criterion 10: pseudospectrum CSVs byte-identical across "
          "repeated runs and --jobs 1 vs 8")
