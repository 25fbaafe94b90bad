"""Certified radii, certificates, set geometry, and the convergence ladder.

Oracle strategy: every certified radius is re-derived inside the test
from its closed formula using float arithmetic (math.pi, math.sqrt) and
must agree to 1e-10 relative -- the library assembles the same formula
in exact rational arithmetic with outward rounding, so it may exceed the
float oracle only by rounding slack.  Cloud contents are re-computed by
calling the eigensolvers directly on independently built matrices.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import rotspec.approx as approx
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
from rotspec.contfrac import expand, parse_theta
from rotspec.errors import (
    CertificateViolation,
    EmptyCloud,
    IndexOutOfRange,
    InvalidInput,
    ModelsNotNormal,
    NonCanonicalSpec,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    ThetaRational,
)
from rotspec.exact import float_up
from rotspec.matmodel import OperatorSpec, build_operator
from rotspec.pseudospectra import GridParams, PointCloud, PseudospectrumGrid, cloud_to_csv
from rotspec.spectral import hermitian_eigenvalues, normal_eigenvalues

GOLDEN = parse_theta("surd:(-1+1*sqrt(5))/2")
SQRT2M1 = parse_theta("surd:(-1+1*sqrt(2))/1")
AM = OperatorSpec.canonical(1, 1, 1, 1)
U_PLUS_2V = OperatorSpec.canonical(1, 0, 2, 0)
MIXED = OperatorSpec.general([(1, 1, 1.0)])

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

    def test_clean_majorization_is_checked(self, monkeypatch):
        e = expand(GOLDEN, 9)
        monkeypatch.setattr(approx, "sharp_bound_exact", lambda *a: Fraction(10 ** 6))
        with pytest.raises(CertificateViolation):
            clean_bound_exact(AM, e, 5)

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


class TestCertifyNormal:
    def test_golden_level5(self):
        cloud, cert = certify_normal(GOLDEN, AM, 5)
        assert cert.q_pair == (5, 8)
        assert cert.pair == ((3, 5), (5, 8))
        assert len(cloud) == 13  # q_{n-1} + q_n with multiplicity
        assert cert.epsilon_sharp == 21.508424942930496
        assert cert.mode == "normal_hausdorff"
        assert cert.radius == min(cert.epsilon_sharp, cert.epsilon_clean)
        assert cert.radius == cert.epsilon_sharp  # sharp wins
        assert cert.caveat is None  # surd certifies irrationality

    def test_cloud_is_union_of_model_spectra(self):
        cloud, _ = certify_normal(GOLDEN, AM, 5)
        direct = np.concatenate([
            hermitian_eigenvalues(build_operator(AM, 3, 5)),
            hermitian_eigenvalues(build_operator(AM, 5, 8)),
        ])
        assert np.allclose(np.sort(cloud.points.real), np.sort(direct), atol=1e-12)
        assert np.all(cloud.points.imag == 0)

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
        # U + 2V is canonical but its models at q >= 3 are not normal,
        # so no Hausdorff-certified point cloud exists
        with pytest.raises(ModelsNotNormal):
            certify_normal(GOLDEN, U_PLUS_2V, 3)

    def test_normality_tested_once_per_model(self, monkeypatch):
        orders = []
        real_is_normal = spectral.is_normal

        def counting(a, *args, **kwargs):
            orders.append(np.asarray(a).shape[0])
            return real_is_normal(a, *args, **kwargs)

        monkeypatch.setattr(spectral, "is_normal", counting)
        # a normality gate in approx itself would be counted too
        monkeypatch.setattr(approx, "is_normal", counting, raising=False)
        shift = OperatorSpec.canonical(1, 0, 0, 0)
        cloud, _ = certify_normal(GOLDEN, shift, 5)
        assert orders == [5, 8]
        assert len(cloud) == 13
        orders.clear()
        result, _ = one_sided(GOLDEN, shift, 8)
        assert orders == [8]
        assert isinstance(result, PointCloud) and len(result) == 8

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
    PARAMS = GridParams(region=(-6, 6, -6, 6), resolution=(20, 20))

    def test_canonical_is_certified(self):
        s = certify_pseudospectrum(GOLDEN, AM, 3, 0.5, self.PARAMS)
        assert s.certified
        assert s.epsilon_n == min(s.epsilon_sharp, s.epsilon_clean)
        assert s.epsilon_sharp == 55.91143287610732
        assert s.q_pair == (2, 3)
        assert s.rate == RATE_FLAG
        assert s.inclusion_verified
        # masks nest by construction
        assert np.all(s.outer_mask | ~s.inner_mask)

    def test_general_gets_rate_only(self):
        s = certify_pseudospectrum(GOLDEN, MIXED, 3, 0.5,
                                   GridParams(resolution=(12, 12)))
        assert not s.certified
        assert s.epsilon_n is None and s.epsilon_sharp is None
        assert s.outer_mask is None
        assert s.rate == RATE_FLAG
        assert s.inclusion_verified  # nothing to violate
        doc = s.to_json()
        assert doc["outer_count"] is None
        assert doc["certified"] is False
        assert doc["rate"] == RATE_FLAG

    def test_epsilon_validation(self):
        for epsilon in (0.0, math.inf, math.nan):
            with pytest.raises(InvalidInput):
                certify_pseudospectrum(GOLDEN, AM, 3, epsilon, self.PARAMS)

    def test_distinct_fingerprints(self):
        s = certify_pseudospectrum(GOLDEN, AM, 3, 0.5, self.PARAMS)
        assert s.grid_prev.matrix_fingerprint != s.grid_curr.matrix_fingerprint
        doc = s.to_json()
        assert len(doc["grid_fingerprints"]) == 2

    def test_rational_theta_rejected(self):
        with pytest.raises(ThetaRational):
            certify_pseudospectrum(parse_theta("rational:1/3"), AM, 2, 0.5,
                                   self.PARAMS)

    def test_budget_checked_before_any_model(self, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        with pytest.raises(ResourceBudgetExceeded):
            certify_pseudospectrum(GOLDEN, AM, 12, 0.5, self.PARAMS, max_q=50)
        monkeypatch.undo()
        s = certify_pseudospectrum(GOLDEN, AM, 3, 0.5, self.PARAMS, max_q=3)
        assert s.q_pair == (2, 3)

    def test_outer_level_is_rounded_up(self, monkeypatch):
        # 0.7 + 2*0.05 rounds to nearest below the exact sum, so a
        # sigma_min equal to the rounded-up sum must still be in the outer set
        epsilon, eps_n = 0.7, 0.05
        exact = Fraction(epsilon) + 2 * Fraction(eps_n)
        assert Fraction(epsilon + 2 * eps_n) < exact
        level = float_up(exact)
        monkeypatch.setattr(approx, "sharp_bound", lambda *args: eps_n)
        monkeypatch.setattr(approx, "clean_bound", lambda *args: eps_n)

        def flat_grid(a, region, resolution, jobs=1):
            return PseudospectrumGrid(region=region, resolution=resolution,
                                      sigma_min_values=np.full(resolution, level),
                                      matrix_fingerprint="flat")

        monkeypatch.setattr(approx, "compute_grid", flat_grid)
        s = certify_pseudospectrum(GOLDEN, AM, 3, epsilon, self.PARAMS)
        assert s.epsilon_n == eps_n
        assert s.outer_mask.all()


class TestOneSided:
    def test_golden_n10(self):
        cloud, cert = one_sided(GOLDEN, AM, 10)
        assert isinstance(cloud, PointCloud) and len(cloud) == 10
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
        assert cloud.points[0] == pytest.approx(4.0, abs=1e-14)  # h = [[4]]
        assert cert.radius == pytest.approx(36 * math.sqrt(3 * math.pi), rel=1e-12)

    def test_cloud_is_model_spectrum(self):
        cloud, cert = one_sided(GOLDEN, AM, 10)
        direct = hermitian_eigenvalues(build_operator(AM, 6, 10))
        assert np.allclose(np.sort(cloud.points.real), np.sort(direct), atol=1e-12)

    def test_nonnormal_model_gets_grid(self):
        result, cert = one_sided(GOLDEN, U_PLUS_2V, 5, GridParams(resolution=(8, 8)))
        assert isinstance(result, PseudospectrumGrid)
        assert cert.chosen_p == 3  # round(5*0.618...) = 3
        assert cert.radius == pytest.approx(
            2 * 36 * math.sqrt(3 * math.pi) / math.sqrt(5), rel=1e-10)  # M = 2

    def test_one_dispatcher_picks_the_route(self):
        # the shift model is normal, AM's is Hermitian; the cloud is the
        # chosen route's output, byte for byte
        shift = OperatorSpec.canonical(1, 0, 0, 0)
        for spec, n, route in ((shift, 8, normal_eigenvalues), (AM, 50, hermitian_eigenvalues)):
            cloud, cert = one_sided(GOLDEN, spec, n)
            direct = route(build_operator(spec, cert.chosen_p, n))
            assert "".join(cloud_to_csv(cloud)) == "".join(cloud_to_csv(PointCloud(direct)))

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
        p = PointCloud(np.array([0.0 + 0j]))
        q = PointCloud(np.array([3.0 + 0j, 4.0 + 0j]))
        assert hausdorff_distance(p, q) == 4.0

    def test_roots_of_unity_pair(self):
        p = PointCloud(np.exp(2j * np.pi * np.arange(2) / 2))
        q = PointCloud(np.exp(2j * np.pi * np.arange(4) / 4))
        assert hausdorff_distance(p, q) == pytest.approx(math.sqrt(2), rel=1e-15)

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        clouds = [PointCloud(rng.standard_normal(k) + 1j * rng.standard_normal(k))
                  for k in (4, 7, 5)]
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

    def test_real_clouds_take_the_sorted_route(self, monkeypatch):
        monkeypatch.setattr(approx, "_DIRECTED_CHUNK", None)  # the blocks would fail
        a, b = np.array([3.0, -1.0, 2.0]) + 0j, np.array([0.5, 2.5]) + 0j
        assert approx._directed(a, b) == 1.5
        with pytest.raises(TypeError):
            approx._directed(a + 1j, b)

    def test_empty_cloud(self):
        with pytest.raises(EmptyCloud):
            hausdorff_distance(PointCloud(np.array([])), PointCloud(np.array([1.0])))

    def test_containment_is_strict(self):
        p = PointCloud(np.array([0.0 + 0j]))
        q = PointCloud(np.array([1.0 + 0j]))
        assert not one_sided_contains(p, q, 0.5)
        assert one_sided_contains(p, q, 1.001)
        assert not one_sided_contains(p, q, 1.0)  # strictly within
        with pytest.raises(InvalidInput):
            one_sided_contains(p, q, 0.0)
        with pytest.raises(EmptyCloud):
            one_sided_contains(PointCloud(np.array([])), q, 1.0)

    def test_subset_always_contained(self):
        q = PointCloud(np.array([0.0, 1.0, 2.0]).astype(complex))
        p = PointCloud(np.array([1.0, 2.0]).astype(complex))
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
        solve, expand_ = approx.eigenvalues_auto, approx.expand
        monkeypatch.setattr(approx, "eigenvalues_auto",
                            lambda m: solved.append(m.order) or solve(m))
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
