"""Certified radii, certificates, set geometry, and the convergence ladder.

Oracle strategy: every certified radius is re-derived inside the test
from its closed formula using float arithmetic (math.pi, math.sqrt) and
must agree to 1e-10 relative -- the library assembles the same formula
in exact rational arithmetic with outward rounding, so it may exceed the
float oracle only by rounding slack.  Cloud contents are re-computed by
calling the eigensolvers directly on independently built matrices.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import rotspec.approx as approx
import rotspec.pseudospectra as psp
import rotspec.spectral as spectral
from rotspec.approx import (
    RATE_FLAG,
    ApproximationCertificate,
    certify_normal,
    certify_pseudospectrum,
    clean_bound,
    clean_bound_exact,
    constant_audit,
    convergence_study,
    hausdorff_distance,
    one_sided,
    one_sided_constant_exact,
    one_sided_contains,
    sharp_bound,
    sharp_bound_exact,
)
from rotspec.cli import dumps_17g
from rotspec.contfrac import expand, fibonacci, parse_theta, tail_constant_enclosure
from rotspec.errors import (
    EmptyCloud,
    IndexOutOfRange,
    InvalidInput,
    ModelsNotNormal,
    NonCanonicalSpec,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    ThetaRational,
)
from rotspec.exact import PI_HI, float_up
from rotspec.matmodel import MatrixModel, OperatorSpec, build_operator, spec_norm_bound
from rotspec.pseudospectra import PseudospectrumGrid, cloud_to_csv
from rotspec.spectral import circulant_four_term_eigenvalues, hermitian_eigenvalues
from dense_oracle import dense_matrix, grid_nodes

GOLDEN = parse_theta("surd:(-1+1*sqrt(5))/2")
SQRT2M1 = parse_theta("surd:(-1+1*sqrt(2))/1")
AM = OperatorSpec.canonical(1, 1, 1, 1)
U_PLUS_2V = OperatorSpec.canonical(1, 0, 2, 0)
MIXED = OperatorSpec.general([(1, 1, 1.0)])

try:  # the SHA-256 that matrix_fingerprint hashes with
    import _sha2 as BUILTIN_SHA
except ImportError:
    import _sha256 as BUILTIN_SHA

TAIL = (5 + math.sqrt(5)) / 2  # = 2*sqrt(5)/(sqrt(5)-1)


def sharp_oracle(au, bu, qm, qn, qp):
    u_part = 2 * math.pi * (1 / qm + 1 / qn) + 2 * math.pi * TAIL / qp
    v_part = math.pi / qm + 5 * math.pi / qn + 5 * math.pi * TAIL / qp
    return au * u_part + bu * v_part


class TestBounds:
    def test_sharp_matches_float_formula(self):
        e = expand(GOLDEN, 9)
        for n in range(1, 8):
            qm, qn, qp = e.q(n - 1), e.q(n), e.q(n + 1)
            expect = sharp_oracle(2, 2, qm, qn, qp)
            got = sharp_bound(AM, e, n)
            assert got == pytest.approx(expect, rel=1e-10)
            assert got >= expect * (1 - 1e-12)  # outward rounding never undershoots

    def test_sharp_pinned_values(self):
        e = expand(GOLDEN, 9)
        assert sharp_bound(AM, e, 5) == 21.508424942930496
        assert sharp_bound(AM, e, 3) == 55.91143287610732

    def test_clean_is_204_m_over_q(self):
        e = expand(GOLDEN, 9)
        assert clean_bound(AM, e, 3) == 170.00000000000003  # 204*(1/2 + 1/3)
        for n in range(1, 8):
            expect = 204 * (1 / e.q(n - 1) + 1 / e.q(n))
            assert clean_bound(AM, e, n) == pytest.approx(expect, rel=1e-12)

    def test_sharp_below_clean_everywhere(self):
        for theta in (GOLDEN, SQRT2M1):
            e = expand(theta, 10)
            for spec in (AM, U_PLUS_2V, OperatorSpec.canonical(0.5, 0.5, 2, 2)):
                for n in range(1, 9):
                    assert (sharp_bound_exact(spec, e, n)
                            <= clean_bound_exact(spec, e, n))
        # the majorization at every level (clean_bound_exact's proof):
        # 14 pi (1 + T) rounded up stays below 204
        assert 14 * PI_HI * (1 + tail_constant_enclosure()[1]) <= 204

    def test_bounds_strictly_decrease(self):
        e = expand(GOLDEN, 10)
        sharps = [sharp_bound(AM, e, n) for n in range(2, 9)]
        cleans = [clean_bound(AM, e, n) for n in range(2, 9)]
        assert all(a > b for a, b in zip(sharps, sharps[1:]))
        assert all(a > b for a, b in zip(cleans, cleans[1:]))

    def test_scales_linearly_with_coefficients(self):
        # exact up to the 1e-30-scale outward rounding of |c| enclosures
        e = expand(GOLDEN, 7)
        base = sharp_bound_exact(AM, e, 4)
        doubled = sharp_bound_exact(OperatorSpec.canonical(2, 2, 2, 2), e, 4)
        assert abs(doubled / (2 * base) - 1) < Fraction(1, 10**25)

    def test_noncanonical_rejected(self):
        e = expand(GOLDEN, 7)
        with pytest.raises(NonCanonicalSpec):
            sharp_bound(MIXED, e, 3)

    def test_level_range(self):
        e = expand(GOLDEN, 5)
        with pytest.raises(IndexOutOfRange):
            sharp_bound(AM, e, 0)
        with pytest.raises(IndexOutOfRange):
            sharp_bound(AM, e, 5)  # needs q_6, expansion has 0..5


class TestConstants:
    def test_one_sided_constant(self):
        c1 = float(one_sided_constant_exact(AM))
        assert c1 == pytest.approx(36 * math.sqrt(3 * math.pi), rel=1e-12)
        assert c1 == 110.51928445822075
        # scaling in M, exact up to the 1e-30-scale enclosure rounding
        ratio = one_sided_constant_exact(OperatorSpec.canonical(2, 2, 2, 2)) \
            / one_sided_constant_exact(AM)
        assert abs(ratio - 2) < Fraction(1, 10**25)

    def test_constant_audit_brackets(self):
        audit = constant_audit()
        major = 14 * math.pi * (3 * math.sqrt(5) - 1) / (math.sqrt(5) - 1)
        assert audit.majorization_lower <= major <= audit.majorization_upper
        assert audit.majorization_upper - audit.majorization_lower < 1e-10
        assert audit.majorization_below_204
        assert 203.1 < audit.majorization_lower < 204
        assert audit.tail_lower <= TAIL <= audit.tail_upper
        assert audit.tail_upper - audit.tail_lower < 1e-12


class TestDefaultBudget:
    """Every library entry point defaults to the MAX_Q = 4096 order budget."""

    def test_default_is_4096(self):
        assert approx.MAX_Q == 4096

    def test_entry_points_refuse_q_4181_by_default(self, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        with pytest.raises(ResourceBudgetExceeded):
            certify_normal(GOLDEN, AM, 18)  # q_18 = 4181
        with pytest.raises(ResourceBudgetExceeded):
            certify_pseudospectrum(GOLDEN, U_PLUS_2V, 18, 0.5)
        with pytest.raises(ResourceBudgetExceeded):
            one_sided(GOLDEN, AM, 4097)
        with pytest.raises(ResourceBudgetExceeded):
            convergence_study(GOLDEN, AM, [3, 18])

    def test_level_refused_before_theta_is_expanded(self, monkeypatch):
        # q_n >= F(n), and F(18) = 4181 > 4096: a deep level is refused
        # without expanding theta, and the message prints no q_n
        class Expanded(Exception):
            pass

        def no_expansion(*args, **kwargs):
            raise Expanded

        monkeypatch.setattr(approx, "expand", no_expansion)
        for run in (lambda: certify_normal(GOLDEN, AM, 10 ** 6),
                    lambda: certify_pseudospectrum(GOLDEN, U_PLUS_2V, 10 ** 6, 0.5),
                    lambda: convergence_study(GOLDEN, AM, [3, 10 ** 6]),
                    lambda: certify_normal(GOLDEN, AM, 18)):
            with pytest.raises(ResourceBudgetExceeded, match=r"F\(18\) = 4181 > budget 4096"):
                run()
        with pytest.raises(ResourceBudgetExceeded, match=r"F\(9\) = 55 > budget 50"):
            certify_normal(GOLDEN, AM, 9, max_q=50)
        with pytest.raises(Expanded):
            certify_normal(GOLDEN, AM, 17)  # F(17) = 2584 fits: expansion goes ahead

    @pytest.mark.parametrize("max_q", [1, 2, 3, 50, 4096, 10 ** 20, 10 ** 100],
                             ids=lambda b: f"{b}" if b < 10 ** 6 else f"1e{len(str(b)) - 1}")
    def test_level_gate_names_the_first_fibonacci_past_the_budget(self, monkeypatch, max_q):
        # the gate carries F(k), F(k + 1) through one loop; against
        # contfrac.fibonacci, level k - 1 reaches the expansion and level k
        # is refused, naming F(k), for the first k with F(k) > max_q
        class Expanded(Exception):
            pass

        def no_expansion(*args, **kwargs):
            raise Expanded

        monkeypatch.setattr(approx, "expand", no_expansion)
        k = next(k for k in itertools.count() if fibonacci(k) > max_q)
        with pytest.raises(ResourceBudgetExceeded) as refused:
            certify_normal(GOLDEN, AM, k, max_q=max_q)
        assert str(refused.value) == (f"level n={k} needs order q_{k} >= F({k}) = "
                                      f"{fibonacci(k)} > budget {max_q}")
        with pytest.raises(Expanded):
            certify_normal(GOLDEN, AM, k - 1, max_q=max_q)

    def test_level_gate_is_linear_in_the_budget_digits(self):
        # the gate walks F(k) once up to the budget: a budget of 4000
        # digits takes about 19000 steps, where recomputing F(0..k) at
        # each k took tens of seconds
        start = time.perf_counter()
        cloud, cert = certify_normal(GOLDEN, AM, 5, max_q=10 ** 4000)
        elapsed = time.perf_counter() - start
        expect_cloud, expect_cert = certify_normal(GOLDEN, AM, 5)
        assert np.array_equal(cloud, expect_cloud) and cert == expect_cert
        assert elapsed < 1.0, elapsed


class TestCertifyNormal:
    def test_golden_level5(self):
        cloud, cert = certify_normal(GOLDEN, AM, 5)
        assert cert.q_pair == (5, 8)
        assert cert.pair == ((3, 5), (5, 8))
        assert len(cloud) == 13  # q_{n-1} + q_n with multiplicity
        assert cert.epsilon_sharp == 21.508424942930496
        assert cert.to_json()["mode"] == "normal_hausdorff"
        assert cert.radius == min(cert.epsilon_sharp, cert.epsilon_clean)
        assert cert.radius == cert.epsilon_sharp  # sharp wins
        assert cert.caveat is None  # surd certifies irrationality

    def test_cloud_is_union_of_model_spectra(self):
        cloud, _ = certify_normal(GOLDEN, AM, 5)
        direct = np.concatenate([
            hermitian_eigenvalues(build_operator(AM, 3, 5)),
            hermitian_eigenvalues(build_operator(AM, 5, 8)),
        ])
        assert np.allclose(np.sort(cloud.real), np.sort(direct), atol=1e-12)
        assert np.all(cloud.imag == 0)

    def test_cloud_matches_block_diagonal(self):
        # the cloud is the spectrum of the direct sum of the two models
        cloud, cert = certify_normal(GOLDEN, AM, 4)
        assert cert.q_pair == (3, 5)
        (pa, qa), (pb, qb) = cert.pair
        a, b = build_operator(AM, pa % qa, qa), build_operator(AM, pb % qb, qb)
        block = np.zeros((8, 8), dtype=complex)
        block[:3, :3] = dense_matrix(a)
        block[3:, 3:] = dense_matrix(b)
        direct = np.linalg.eigvalsh(block)
        assert np.allclose(np.sort(cloud.real), direct, atol=1e-10)
        assert np.allclose(cloud.imag, 0, atol=1e-10)
        assert len(cloud) == 8

    def test_cloud_keeps_duplicates(self):
        # U at level 2 pairs q = 1 and 2: sigma = {1} and {-1, 1}
        cloud, _ = certify_normal(GOLDEN, OperatorSpec.canonical(1, 0, 0, 0), 2)
        assert np.allclose(cloud, [-1, 1, 1], atol=1e-14)

    def test_real_cloud_writes_the_bytes_of_its_complex_cast(self):
        # a Hermitian union stays real; its CSV and JSON are those of the
        # same values cast to complex, signed zeros included
        cloud, cert = certify_normal(GOLDEN, AM, 6)
        assert cloud.dtype == np.float64
        for values in (cloud, np.array([-0.0, 0.0, 1 / 3, -2.5, 5e-324])):
            cast = values.astype(complex)
            assert "".join(cloud_to_csv(values)) == "".join(cloud_to_csv(cast))
            assert dumps_17g(cert.to_json(values)) == dumps_17g(cert.to_json(cast))

    def test_rational_theta_rejected(self):
        with pytest.raises(ThetaRational):
            certify_normal(parse_theta("rational:2/5"), AM, 3)

    def test_decimal_theta_carries_caveat(self):
        theta = parse_theta("decimal:0.6180339887498948482")
        cloud, cert = certify_normal(theta, AM, 5)
        assert cert.caveat == "irrationality assumed: decimal input cannot certify it"
        assert len(cloud) == 13  # same convergents as the surd

    def test_general_spec_rejected(self):
        with pytest.raises(NonCanonicalSpec):
            certify_normal(GOLDEN, MIXED, 3)

    def test_nonnormal_models_rejected(self):
        # U + 2V is canonical but not normal, so no Hausdorff-certified
        # point cloud exists
        with pytest.raises(ModelsNotNormal):
            certify_normal(GOLDEN, U_PLUS_2V, 3)

    def test_normality_tested_once_per_model(self):
        # the spec's coefficients decide normality once, for every order, so
        # no model is tested densely: not at q <= 2 either, where u = u*
        # makes some models of a non-normal spec normal (no dense eigensolver
        # is left to test one: test_source.test_no_dense_eigensolver)
        shift = OperatorSpec.canonical(1, 0, 0, 0)
        for n, size in ((2, 3), (5, 13)):
            cloud, _ = certify_normal(GOLDEN, shift, n)
            assert len(cloud) == size
        for n in (1, 2, 8):
            result, _ = one_sided(GOLDEN, shift, n)
            assert isinstance(result, np.ndarray) and len(result) == n
        # iU + iV is not normal, though its models at q = 1 and 2 are
        with pytest.raises(ModelsNotNormal):
            certify_normal(GOLDEN, OperatorSpec.canonical(1j, 0, 1j, 0), 2)

    def test_orders_1_and_2_take_the_spec_routes(self):
        # U + 2V's models at q = 1 and 2 are Hermitian (u = u* there), but
        # the operator is not normal, so levels 1 and 2 are refused as level
        # 3 is; V + 2V* is class (ii), whose closed form gives diag(3, -3)
        # at q = 2 within rounding
        for n in (1, 2):
            with pytest.raises(ModelsNotNormal):
                certify_normal(GOLDEN, U_PLUS_2V, n)
        cloud, _ = certify_normal(GOLDEN, OperatorSpec.canonical(0, 0, 1, 2), 2)
        assert np.max(np.abs(cloud - [-3, 3, 3])) <= 1e-15 * 3

    def test_normal_within_rounding_only_is_refused(self):
        # e^{0.3i} times a Hermitian spec, rounded: the equations fail
        # exactly, so the certificate's hypothesis does not hold
        r, h, g = complex(math.cos(0.3), math.sin(0.3)), 0.7 - 0.2j, 1.3 + 0.4j
        spec = OperatorSpec.canonical(r * h, r * h.conjugate(), r * g, r * g.conjugate())
        with pytest.raises(ModelsNotNormal):
            certify_normal(GOLDEN, spec, 8)

    def test_exactly_rotated_spec_is_accepted(self):
        # (1 + i) H with H = canonical(0.5 + 0.25i, 0.5 - 0.25i, 1 - 0.5i, 1 + 0.5i)
        rotated = OperatorSpec.canonical(0.25 + 0.75j, 0.75 + 0.25j, 1.5 + 0.5j, 0.5 + 1.5j)
        hermitian = OperatorSpec.canonical(0.5 + 0.25j, 0.5 - 0.25j, 1 - 0.5j, 1 + 0.5j)
        cloud, cert = certify_normal(GOLDEN, rotated, 8)
        assert len(cloud) == 55 and cert.q_pair == (21, 34)
        reference = (1 + 1j) * certify_normal(GOLDEN, hermitian, 8)[0]
        assert hausdorff_distance(cloud, reference) <= 1e-12 * spec_norm_bound(rotated)

    def test_budget(self):
        with pytest.raises(ResourceBudgetExceeded):
            certify_normal(GOLDEN, AM, 10, max_q=50)  # q_10 = 89
        cloud, _ = certify_normal(GOLDEN, AM, 10, max_q=89)
        assert len(cloud) == 55 + 89

    def test_json_document(self):
        cloud, cert = certify_normal(GOLDEN, AM, 4)
        doc = cert.to_json(cloud)
        assert doc["q_pair"] == [3, 5]
        assert doc["n"] == 4
        assert doc["mode"] == "normal_hausdorff"
        assert len(doc["cloud"]) == 8
        assert doc["epsilon_sharp"] < doc["epsilon_clean"]
        assert "caveat" not in doc


class TestCertifyPseudospectrum:
    PARAMS = dict(region=(-6, 6, -6, 6), resolution=(20, 20))

    def test_canonical_is_certified(self):
        s = certify_pseudospectrum(GOLDEN, AM, 3, 0.5, **self.PARAMS)
        assert s.certified
        assert s.epsilon_n == 55.91143287610732 <= s.epsilon_clean
        assert s.to_json()["epsilon_sharp"] == s.epsilon_n
        assert s.q_pair == (2, 3)
        assert s.to_json()["rate"] == RATE_FLAG
        assert s.inclusion_verified
        # masks nest by construction
        assert np.all(s.outer_mask | ~s.inner_mask)

    def test_general_gets_rate_only(self):
        s = certify_pseudospectrum(GOLDEN, MIXED, 3, 0.5,
                                   resolution=(12, 12))
        assert not s.certified
        assert s.epsilon_n is None
        assert s.outer_mask is None
        assert s.inclusion_verified  # nothing to violate
        doc = s.to_json()
        assert doc["outer_count"] is None
        assert doc["epsilon_n"] is None and doc["epsilon_sharp"] is None
        assert doc["certified"] is False
        assert doc["rate"] == RATE_FLAG

    def test_epsilon_validation(self):
        for epsilon in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidInput):
                certify_pseudospectrum(GOLDEN, AM, 3, epsilon, **self.PARAMS)

    def test_default_region_outside_the_float_range_is_refused(self, monkeypatch):
        # at n = 8, 1e307 (U + V) gives sum |c| = 2e307 and a margin
        # epsilon + 2 epsilon_n of 5.1e307, so the derived region's span is
        # past the floats: refused before any grid, naming both, not a
        # region the caller never gave
        big = OperatorSpec.canonical(1e307, 0, 1e307, 0)
        with monkeypatch.context() as m:
            m.setattr(approx, "compute_grid", lambda *args: pytest.fail("compute_grid called"))
            with pytest.raises(InvalidInput, match="default region") as refused:
                certify_pseudospectrum(GOLDEN, big, 8, 0.5, resolution=(4, 4))
        assert "sum |c| = 2.000000e+307, epsilon + 2 epsilon_n = 5." in str(refused.value)
        given = dict(region=(-1, 1, -1, 1), resolution=(4, 4))
        assert certify_pseudospectrum(GOLDEN, big, 8, 0.5, **given).inclusion_verified

    def test_distinct_fingerprints(self):
        s = certify_pseudospectrum(GOLDEN, AM, 3, 0.5, **self.PARAMS)
        assert s.grid_fingerprints[0] != s.grid_fingerprints[1]
        doc = s.to_json()
        assert doc["grid_fingerprints"] == list(s.grid_fingerprints)

    def test_rational_theta_rejected(self):
        with pytest.raises(ThetaRational):
            certify_pseudospectrum(parse_theta("rational:1/3"), AM, 2, 0.5,
                                   **self.PARAMS)

    def test_budget_checked_before_any_model(self, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        with pytest.raises(ResourceBudgetExceeded):
            certify_pseudospectrum(GOLDEN, AM, 12, 0.5, **self.PARAMS, max_q=50)
        monkeypatch.undo()
        s = certify_pseudospectrum(GOLDEN, AM, 3, 0.5, **self.PARAMS, max_q=3)
        assert s.q_pair == (2, 3)

    def test_hermitian_models_are_built_once(self, monkeypatch):
        # compute_grid hands the model it holds to the Hermitian route
        builds = []
        build = build_operator
        for module in (approx, spectral):
            monkeypatch.setattr(module, "build_operator",
                                lambda *a: builds.append(a[2]) or build(*a))
        certify_pseudospectrum(GOLDEN, AM, 6, 0.5, resolution=(4, 4))
        assert builds == [8, 13]

    def test_outer_level_is_rounded_up(self, monkeypatch):
        # 0.7 + 2*0.05 rounds to nearest below the exact sum, so a
        # sigma_min equal to the rounded-up sum must still be in the outer set
        epsilon, eps_n = 0.7, 0.05
        exact = Fraction(epsilon) + 2 * Fraction(eps_n)
        assert Fraction(epsilon + 2 * eps_n) < exact
        level = float_up(exact)
        monkeypatch.setattr(approx, "sharp_bound", lambda *args: eps_n)
        monkeypatch.setattr(approx, "clean_bound", lambda *args: eps_n)

        def flat_grid(a, region, resolution):
            return PseudospectrumGrid(region=region, resolution=resolution,
                                      sigma_min_values=np.full(resolution, level))

        monkeypatch.setattr(approx, "compute_grid", flat_grid)
        s = certify_pseudospectrum(GOLDEN, AM, 3, epsilon, **self.PARAMS)
        assert s.epsilon_n == eps_n
        assert s.outer_mask.all()


class TestFingerprints:
    """Only the sandwich report prints fingerprints, so only
    certify_pseudospectrum hashes, and only its two models, with CPython's
    built-in SHA-256."""

    # the grid_fingerprints of a level-6 U+2V sandwich_report.json: the
    # stored terms of the models at 5/8 and 8/13, pinned so moving the
    # hash keeps its bytes
    LEVEL_6 = ("82f97e984659384a76451343d06a81cb6079e49ef37465b79215f29dbea29774",
               "709653227687294ba8463cc6b10de116ad99e10754ec39bf64a3dbf3d1a5193f")
    PARAMS = dict(region=(-4, 4, -4, 4), resolution=(4, 4))

    @pytest.fixture
    def spy(self, monkeypatch):
        hashers, models = [], []
        sha256, fingerprint = BUILTIN_SHA.sha256, psp.matrix_fingerprint

        def counting_sha256(*args, **kwargs):
            hashers.append(args)
            return sha256(*args, **kwargs)

        def recording_fingerprint(model):
            models.append((model.p, model.order))
            return fingerprint(model)

        monkeypatch.setattr(BUILTIN_SHA, "sha256", counting_sha256)
        for module in (psp, approx):
            monkeypatch.setattr(module, "matrix_fingerprint", recording_fingerprint,
                                raising=False)
        return hashers, models

    def test_onesided_grids_and_sandwich_checks_hash_nothing(self, spy, monkeypatch):
        result, _ = one_sided(GOLDEN, U_PLUS_2V, 8, **self.PARAMS)
        assert isinstance(result, PseudospectrumGrid)
        s = np.diag([0.0, 2.0])
        assert psp.sandwich_check(s, s, 0.5, **self.PARAMS).passed
        # models are refused before any eigensolve or grid: they are never made dense
        calls = []
        monkeypatch.setattr(psp, "_band_eigenvalues", lambda a: calls.append("eig"))
        monkeypatch.setattr(psp, "_grid_nodes", lambda *args: calls.append("grid"))
        with pytest.raises(InvalidInput, match="never made dense"):
            psp.sandwich_check(build_operator(U_PLUS_2V, 3, 8), build_operator(U_PLUS_2V, 5, 8),
                               0.5, **self.PARAMS)
        assert calls == [] and spy == ([], [])

    def test_the_sandwich_hashes_its_two_models_once(self, spy):
        hashers, models = spy
        s = certify_pseudospectrum(GOLDEN, U_PLUS_2V, 6, 0.5, **self.PARAMS)
        assert models == [(5, 8), (8, 13)]
        assert len(hashers) == 2
        assert s.grid_fingerprints == self.LEVEL_6
        assert s.to_json()["grid_fingerprints"] == list(self.LEVEL_6)


class TestOneSided:
    def test_default_region_outside_the_float_range_is_refused(self, monkeypatch):
        # at n = 8 the derived half-width sum |c| + 2 radius is inf for
        # 3e306 (U + V), and its span is past the floats for 2e306: both
        # are refused before any grid, naming sum |c| and the radius
        derived = dict(resolution=(4, 4))
        given = dict(region=(-1, 1, -1, 1), resolution=(4, 4))
        with monkeypatch.context() as m:
            m.setattr(approx, "compute_grid", lambda *args: pytest.fail("compute_grid called"))
            for c in (3e306, 2e306):
                with pytest.raises(InvalidInput, match="default region") as refused:
                    one_sided(GOLDEN, OperatorSpec.canonical(c, 0, c, 0), 8, **derived)
                assert f"sum |c| = {2 * c:.6e}, radius = " in str(refused.value)
        grid, _ = one_sided(GOLDEN, OperatorSpec.canonical(3e306, 0, 3e306, 0), 8, **given)
        assert isinstance(grid, PseudospectrumGrid)

    def test_golden_n10(self):
        cloud, cert = one_sided(GOLDEN, AM, 10)
        assert isinstance(cloud, np.ndarray) and len(cloud) == 10
        assert cert.chosen_p == 6  # round(10*0.618...) = 6
        assert cert.radius == 34.94926642600259
        assert not cert.wrapped and not cert.tie_broken
        # radius recovers C1/sqrt(n)
        assert cert.radius * math.sqrt(10) == pytest.approx(
            36 * math.sqrt(3 * math.pi), rel=1e-10)

    def test_golden_n50(self):
        _, cert = one_sided(GOLDEN, AM, 50)
        assert cert.chosen_p == 31  # round(30.9016...)
        assert cert.radius == 15.629787098458582

    def test_degenerate_n1_wraps(self):
        cloud, cert = one_sided(GOLDEN, AM, 1)
        assert cert.chosen_p == 0 and cert.wrapped  # round(0.618) = 1 = n
        assert len(cloud) == 1
        assert cloud[0] == pytest.approx(4.0, abs=1e-14)  # h = [[4]]
        assert cert.radius == pytest.approx(36 * math.sqrt(3 * math.pi), rel=1e-12)

    def test_cloud_is_model_spectrum(self):
        cloud, cert = one_sided(GOLDEN, AM, 10)
        direct = hermitian_eigenvalues(build_operator(AM, 6, 10))
        assert np.allclose(np.sort(cloud.real), np.sort(direct), atol=1e-12)

    def test_nonnormal_model_gets_grid(self):
        result, cert = one_sided(GOLDEN, U_PLUS_2V, 5, resolution=(8, 8))
        assert isinstance(result, PseudospectrumGrid)
        assert cert.chosen_p == 3  # round(5*0.618...) = 3
        assert cert.radius == pytest.approx(
            2 * 36 * math.sqrt(3 * math.pi) / math.sqrt(5), rel=1e-10)  # M = 2

    def test_omega_squared_one_keeps_the_grid(self):
        # at p = 0 or 2p = n the model of a spec that fails the equations
        # can be normal (omega = 1 makes v the identity, omega = -1 makes
        # v + v* = 2v); one_sided does not decide that case and takes the
        # banded grid, whose values are then the distances to the spectrum
        for theta, spec, n, p, eigs in (
                ("decimal:0.49", OperatorSpec.canonical(1, 0, 1, -1), 4, 2,
                 np.exp(2j * np.pi * np.arange(4) / 4)),  # U + V - V* = U
                ("decimal:0.01", U_PLUS_2V, 10, 0,
                 2 + np.exp(2j * np.pi * np.arange(10) / 10))):  # U + 2I
            assert not spec.is_normal
            grid, cert = one_sided(parse_theta(theta), spec, n, resolution=(9, 8))
            assert isinstance(grid, PseudospectrumGrid) and cert.chosen_p == p
            lam = grid_nodes(grid).ravel()
            exact = np.min(np.abs(lam[:, None] - eigs[None, :]), axis=1)
            got = grid.sigma_min_values.ravel()
            assert np.all(np.abs(got - exact) <= 1e-10 * exact + 1e-12 * (3 + np.abs(lam)))

    def test_one_dispatcher_picks_the_route(self):
        # the spec picks the route, and the cloud is that route's output,
        # byte for byte: a Hermitian spec the banded route, a circulant the
        # closed form; a spec that is not normal gets a grid at every n,
        # also iU + iV at n = 2, whose model there is normal
        shift = OperatorSpec.canonical(1, 0, 0, 0)
        for spec, n, route in (
                (shift, 2, lambda p: circulant_four_term_eigenvalues(1, 0, 2)),
                (shift, 8, lambda p: circulant_four_term_eigenvalues(1, 0, 8)),
                (AM, 50, lambda p: hermitian_eigenvalues(build_operator(AM, p, 50)))):
            cloud, cert = one_sided(GOLDEN, spec, n)
            direct = route(cert.chosen_p)
            assert "".join(cloud_to_csv(cloud)) == "".join(cloud_to_csv(direct))
        grid, _ = one_sided(GOLDEN, OperatorSpec.canonical(1j, 0, 1j, 0), 2,
                            resolution=(4, 4))
        assert isinstance(grid, PseudospectrumGrid)

    def test_spec_paths_never_read_the_dense_entries(self, monkeypatch):
        # at every order, the Hermitian, circulant, diagonal and rotated
        # routes and the grid of a non-normal spec all work from the model's
        # nonzeros or the coefficients
        def no_entries(model):
            raise AssertionError(f"dense entries of a q = {model.order} model read")

        monkeypatch.setattr(MatrixModel, "entries", property(no_entries))
        for spec in (AM, OperatorSpec.canonical(1, 2, 0, 0), OperatorSpec.canonical(0, 0, 1, 2j),
                     OperatorSpec.canonical(1j, 1j, 2j, 2j)):
            for n, size in ((1, 2), (2, 3), (6, 21)):
                assert len(certify_normal(GOLDEN, spec, n)[0]) == size
            assert len(convergence_study(GOLDEN, spec, range(1, 7)).rows) == 6
            for n in (1, 2, 10):  # p = 6 shares a factor with 10
                assert len(one_sided(GOLDEN, spec, n)[0]) == n
        for n, p in ((1, 0), (2, 1), (987, 610)):
            grid, cert = one_sided(GOLDEN, U_PLUS_2V, n, resolution=(4, 4))
            assert isinstance(grid, PseudospectrumGrid) and cert.chosen_p == p

    def test_non_normal_spec_refused_before_any_model(self, monkeypatch):
        builds = []
        build = build_operator
        for module in (approx, spectral):
            monkeypatch.setattr(module, "build_operator",
                                lambda *a: builds.append(a[1:]) or build(*a))
        for n in (1, 2, 3):  # orders 1 to 3, Hermitian models below 3
            with pytest.raises(ModelsNotNormal):
                certify_normal(GOLDEN, U_PLUS_2V, n)
        with pytest.raises(ModelsNotNormal):
            convergence_study(GOLDEN, U_PLUS_2V, range(1, 6))  # orders 1 to 8
        assert builds == []

    def test_general_spec_rejected(self):
        with pytest.raises(NonCanonicalSpec):
            one_sided(GOLDEN, MIXED, 4)

    def test_hypothesis_checked_at_both_ends_of_a_decimal_interval(self):
        # decimal:0.25 is [6/25, 13/50]; n = 2 rounds the tie to p* = 0,
        # and |13/50 - 0| > 1/4 at the upper end
        with pytest.raises(PrecisionExhausted, match="1/\\(2n\\)"):
            one_sided(parse_theta("decimal:0.25"), AM, 2)
        theta = parse_theta("decimal:0.6180339887")
        for n, p, radius in ((10, 6, 34.94926642600259), (50, 31, 15.629787098458582)):
            _, cert = one_sided(theta, AM, n)
            assert (cert.chosen_p, cert.radius) == (p, radius)

    def test_rational_rejected_and_n_validated(self):
        with pytest.raises(ThetaRational):
            one_sided(parse_theta("rational:1/2"), AM, 4)
        with pytest.raises(InvalidInput):
            one_sided(GOLDEN, AM, 0)

    def test_budget_checked_before_any_model(self, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        with pytest.raises(ResourceBudgetExceeded):
            one_sided(GOLDEN, AM, 300, max_q=50)
        monkeypatch.undo()
        cloud, _ = one_sided(GOLDEN, AM, 50, max_q=50)
        assert len(cloud) == 50

    def test_json_keys(self):
        _, cert = one_sided(GOLDEN, AM, 10)
        doc = cert.to_json()
        assert doc["n"] == 10 and doc["p"] == 6
        assert doc["wrapped"] is False and doc["tie_broken"] is False


class TestSetGeometry:
    def test_hausdorff_asymmetric_example(self):
        p = np.array([0.0 + 0j])
        q = np.array([3.0 + 0j, 4.0 + 0j])
        assert hausdorff_distance(p, q) == 4.0

    def test_roots_of_unity_pair(self):
        p = np.exp(2j * np.pi * np.arange(2) / 2)
        q = np.exp(2j * np.pi * np.arange(4) / 4)
        assert hausdorff_distance(p, q) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        clouds = [rng.standard_normal(k) + 1j * rng.standard_normal(k) for k in (4, 7, 5)]
        a, b, c = clouds
        assert hausdorff_distance(a, a) == 0.0
        assert hausdorff_distance(a, b) == hausdorff_distance(b, a)
        assert (hausdorff_distance(a, c)
                <= hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-15)

    def test_chunked_directed_matches_one_pass(self):
        # |P| x |Q| on both sides of the 2^18-distance block size, complex
        # and real clouds; min and max are exact, so the floats are equal
        rng = np.random.default_rng(17)
        for np_, nq in ((300, 700), (700, 400), (3, 2 ** 18 + 5), (1000, 1)):
            p = rng.standard_normal(np_) + 1j * rng.standard_normal(np_)
            q = rng.standard_normal(nq) + 1j * rng.standard_normal(nq)
            for a, b in ((p, q), (p.real + 0j, q.real + 0j), (q, p)):
                one_pass = float(np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1)))
                assert approx._directed(a, b) == one_pass

    def test_real_clouds_by_sorted_neighbours_match_one_pass(self):
        # two real clouds take the nearest sorted neighbour, any other pair
        # the blocks; the float must equal the |P| x |Q| pass either way,
        # on real, mixed real/complex and duplicate-heavy clouds
        rng = np.random.default_rng(23)
        real = rng.standard_normal(500) + 0j
        mixed = np.concatenate([rng.standard_normal(250),
                                rng.standard_normal(250) + 1j * rng.standard_normal(250)])
        dupes = rng.integers(-4, 5, 400) / 3.0 + 0j
        clouds = (real, mixed, dupes, np.repeat(real[:20], 15), dupes.conj(),
                  np.array([0.25 + 0j]))
        for a in clouds:
            for b in clouds:
                one_pass = float(np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1)))
                assert approx._directed(a, b) == one_pass

    def test_hausdorff_of_real_complex_and_mixed_arrays(self):
        # real arrays, complex arrays and one of each: the same float as
        # one |P| x |Q| pass of complex abs over the complex casts
        rng = np.random.default_rng(29)
        real = rng.standard_normal(60)
        dupes = rng.integers(-3, 4, 50) / 3.0
        cplx = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        clouds = (real, dupes, cplx, real.astype(complex), np.array([-0.0]))
        for a in clouds:
            for b in clouds:
                d = np.abs(a.astype(complex)[:, None] - b.astype(complex)[None, :])
                blocked = max(float(np.max(np.min(d, axis=1))),
                              float(np.max(np.min(d, axis=0))))
                assert hausdorff_distance(a, b) == blocked

    def test_real_clouds_take_the_sorted_route(self, monkeypatch):
        # the kernel's values: ascending floats for two real clouds (the
        # sorted route), complex otherwise (the blocks)
        values = []
        real_distances = approx._distances

        def recording(points, q):
            values.append(q)
            return real_distances(points, q)

        monkeypatch.setattr(approx, "_distances", recording)
        a, b = np.array([3.0, -1.0, 2.0]) + 0j, np.array([2.5, 0.5]) + 0j
        assert approx._directed(a, b) == 1.5
        assert len(values) == 1 and values[0].tolist() == [0.5, 2.5]
        assert values[0].dtype == float
        for p, q in ((a + 1j, b), (a.real, b + 1j), (a + 1j, b.real)):
            values.clear()
            approx._directed(p, q)
            assert len(values) == 1 and values[0].dtype == complex

    def test_a_complex_cloud_against_a_real_one_takes_the_blocks(self):
        # numpy's complex abs is not monotone in |Re z| at fixed Im z: of
        # the two differences below, the one with the larger real part has
        # the smaller abs, 3.9004264956346972, which the blocked pass finds;
        # the abs at the nearest sorted neighbour is 3.9004264956346977, so
        # no sorted-neighbour route reproduces the blocks here
        p = np.array([5.955909632649889 - 0.8133831709015653j])
        q = np.array([2.1412360338811447, 2.141236033881145])
        assert approx._directed(p, q) == 3.9004264956346972
        assert one_sided_contains(p, q, 3.9004264956346977)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            hausdorff_distance(np.array([]), np.array([1.0]))

    def test_containment_is_strict(self):
        p = np.array([0.0 + 0j])
        q = np.array([1.0 + 0j])
        assert not one_sided_contains(p, q, 0.5)
        assert one_sided_contains(p, q, 1.001)
        assert not one_sided_contains(p, q, 1.0)  # strictly within
        # nan would answer False and inf True
        for delta in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InvalidInput, match="finite and > 0"):
                one_sided_contains(p, q, delta)
        with pytest.raises(EmptyCloud):
            one_sided_contains(np.array([]), q, 1.0)

    def test_subset_always_contained(self):
        q = np.array([0.0, 1.0, 2.0]).astype(complex)
        p = np.array([1.0, 2.0]).astype(complex)
        assert one_sided_contains(p, q, 1e-12)


class TestConvergenceStudy:
    def test_golden_ladder(self):
        table = convergence_study(GOLDEN, AM, range(3, 9))
        assert table.reference_n == 8
        assert [r.n for r in table.rows] == [3, 4, 5, 6, 7, 8]
        assert table.all_verified
        last = table.rows[-1]
        assert last.empirical_dh == 0.0  # self-comparison row
        e = expand(GOLDEN, 9)
        for row in table.rows:
            assert row.epsilon_sharp == sharp_bound(AM, e, row.n)
            assert row.q_prev == e.q(row.n - 1) and row.q_n == e.q(row.n)
            assert row.empirical_dh <= row.certified_bound + 1e-8
        dh = [r.empirical_dh for r in table.rows]
        assert all(a >= b for a, b in zip(dh, dh[1:]))  # trend toward reference

    def test_csv_shape(self):
        table = convergence_study(GOLDEN, AM, [3, 4])
        lines = "".join(table.to_csv()).strip().splitlines()
        assert lines[0] == "n,q_prev,q_n,epsilon_sharp,epsilon_clean,empirical_dH"
        assert len(lines) == 3
        assert lines[1].startswith("3,2,3,")

    def test_each_model_solved_once(self, monkeypatch):
        solved, expansions = [], []
        solve, expand_ = approx.normal_eigenvalues, approx.expand
        monkeypatch.setattr(approx, "normal_eigenvalues",
                            lambda model: solved.append(model.order) or solve(model))
        monkeypatch.setattr(approx, "expand",
                            lambda *a: expansions.append(a) or expand_(*a))
        table = convergence_study(GOLDEN, AM, range(3, 9))
        assert sorted(solved) == [2, 3, 5, 8, 13, 21, 34]
        assert len(expansions) == 1
        monkeypatch.undo()
        # memoized clouds are the bytes certify_normal builds level by level
        ref = certify_normal(GOLDEN, AM, 8)[0]
        for row in table.rows:
            cloud = certify_normal(GOLDEN, AM, row.n)[0]
            assert row.empirical_dh == hausdorff_distance(cloud, ref)

    def test_normality_gate(self):
        with pytest.raises(ModelsNotNormal):
            convergence_study(GOLDEN, U_PLUS_2V, [3, 4])

    def test_duplicate_levels_collapse(self):
        table = convergence_study(GOLDEN, AM, [4, 3, 4])
        assert [r.n for r in table.rows] == [3, 4]

    def test_budget_and_validation(self):
        with pytest.raises(ResourceBudgetExceeded):
            convergence_study(GOLDEN, AM, range(3, 13), max_q=100)  # q_12 = 233
        with pytest.raises(InvalidInput):
            convergence_study(GOLDEN, AM, [])
        with pytest.raises(InvalidInput):
            convergence_study(GOLDEN, AM, [0, 3])
