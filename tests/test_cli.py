"""End-to-end CLI tests: every subcommand runs in-process against a
temporary directory, and output files are parsed back and checked
against library-level recomputations or hand-derived values."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from argparse import Namespace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import rotspec.approx as approx
import rotspec.cli as cli
import rotspec.spectral as spectral
from rotspec.approx import ConvergenceRow, ConvergenceTable
from rotspec.cli import dumps_17g, main
from rotspec.errors import ConvergenceFailure, InvalidInput
from rotspec.matmodel import OperatorSpec, build_operator
from rotspec.pseudospectra import (
    PointCloud,
    PseudospectrumGrid,
    cloud_to_csv,
    grid_to_csv,
    grid_to_pgm,
)
from rotspec.spectral import hermitian_eigenvalues

GOLDEN = "surd:(-1+1*sqrt(5))/2"
U2V_JSON = '{"canonical": {"a+": [1,0], "a-": [0,0], "b+": [2,0], "b-": [0,0]}}'
U_JSON = '{"canonical": {"a+": [1,0]}}'


class TestDumps17g:
    def test_floats_round_trip(self):
        for x in (0.1, 1 / 3, math.pi, 1e-300, 6.02214076e23, -0.0, 4.0):
            assert float(dumps_17g(x)) == x
        assert dumps_17g(0.1) == "0.10000000000000001"
        assert dumps_17g(np.float64(0.1)) == "0.10000000000000001"

    def test_scalars(self):
        assert dumps_17g(True) == "true"
        assert dumps_17g(None) == "null"
        assert dumps_17g(5) == "5"
        assert dumps_17g(np.int32(7)) == "7"
        assert dumps_17g('say "hi"') == json.dumps('say "hi"')

    def test_nested_document_parses(self):
        doc = {"a": [1.5, {"b": None, "ok": False}], "c": "x", "n": 3}
        assert json.loads(dumps_17g(doc)) == doc

    def test_empty_containers(self):
        assert dumps_17g({}) == "{}"
        assert dumps_17g([]) == "[]"

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            dumps_17g(math.nan)
        with pytest.raises(InvalidInput):
            dumps_17g({"x": math.inf})

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            dumps_17g({"x": {1, 2}})


@pytest.fixture
def digit_limit():
    """Python's int/str conversion limit, pinned at its default."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def _writer(tmp_path, *formats):
    return cli._Output(Namespace(out_dir=str(tmp_path), format=formats))


def _grid(sigma, region=(-1 / 3, 2 / 7, -0.1, 0.7)):
    return PseudospectrumGrid(region=region, resolution=sigma.shape,
                              sigma_min_values=sigma, matrix_fingerprint="-")


class TestStreamedArtifacts:
    """Each artifact is written piece by piece as it is formatted; the
    bytes are those of the whole-string formulas it was once built by."""

    def test_grid_csv_and_pgm(self, tmp_path):
        rng = np.random.default_rng(3)
        sigma = rng.random((9, 6))
        sigma[0, :4] = [0.0, 5e-324, 1e300, 0.1]
        grid = _grid(sigma)
        out = _writer(tmp_path, "csv", "pgm")
        out.write("csv", "grid.csv", lambda: grid_to_csv(grid))
        out.write("pgm", "grid.pgm", lambda: grid_to_pgm(grid))
        re_ax, im_ax = grid.lambda_axes()
        csv = "re,im,sigma_min\n" + "".join(
            f"{re_ax[i]:.17g},{im_ax[j]:.17g},{sigma[i, j]:.17g}\n"
            for i in range(9) for j in range(6))
        assert (tmp_path / "grid.csv").read_bytes() == csv.encode()
        with np.errstate(divide="ignore"):
            gray = np.rint((np.clip(np.log10(sigma), -8.0, 2.0) + 8.0) / 10.0 * 65535.0)
        pgm = b"P5\n9 6\n65535\n" + gray.astype(np.uint16).T[::-1, :].astype(">u2").tobytes()
        assert (tmp_path / "grid.pgm").read_bytes() == pgm
        # one piece per real-axis value after the header
        assert len(list(grid_to_csv(grid))) == 1 + 9

    def test_cloud_csv_across_pieces(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal(9000) + 1j * rng.standard_normal(9000)
        pts[:4] = [-0.0 + 0j, 5e-324 - 0.1j, 1e300 + 0j, complex(0.1, -0.0)]
        out = _writer(tmp_path, "csv")
        out.write("csv", "cloud.csv", lambda: cloud_to_csv(PointCloud(pts)))
        out.write("csv", "empty.csv", lambda: cloud_to_csv(PointCloud(np.array([]))))
        lines = ["re,im"] + [f"{z.real:.17g},{z.imag:.17g}" for z in pts]
        assert (tmp_path / "cloud.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "empty.csv").read_bytes() == b"re,im\n"

    def test_convergence_csv(self, tmp_path):
        rows = tuple(ConvergenceRow(n, n - 1, n, 0.1 * n, 1 / 3 * n, 1e-300 * n, 0.5 * n)
                     for n in range(3, 7))
        table = ConvergenceTable(theta=None, spec=None, rows=rows, reference_n=6)
        _writer(tmp_path, "csv").write("csv", "convergence.csv", table.to_csv)
        lines = ["n,q_prev,q_n,epsilon_sharp,epsilon_clean,empirical_dH"]
        lines.extend(f"{r.n},{r.q_prev},{r.q_n},{r.epsilon_sharp:.17g},"
                     f"{r.epsilon_clean:.17g},{r.empirical_dh:.17g}" for r in rows)
        assert (tmp_path / "convergence.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_butterfly_csv(self, tmp_path, capsys):
        assert main(["butterfly", "--q-max", "7", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        spec = OperatorSpec.canonical(1, 1, 1, 1)
        lines = ["p,q,eigenvalue"]
        for q in range(1, 8):
            for p in range(q):
                if math.gcd(p, q) == 1:
                    eigen = hermitian_eigenvalues(build_operator(spec, p, q))
                    lines.extend(f"{p},{q},{v:.17g}" for v in eigen)
        assert (tmp_path / "butterfly.csv").read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_grid_csv_memory_is_one_row(self, tmp_path):
        # a 512 x 512 grid CSV is about 15 MB; built whole, its text and
        # encoded copy would peak near twice that
        grid = _grid(np.random.default_rng(5).random((512, 512)), region=(-4, 4, -4, 4))
        out = _writer(tmp_path, "csv")
        tracemalloc.start()
        try:
            out.write("csv", "grid.csv", lambda: grid_to_csv(grid))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        data = (tmp_path / "grid.csv").read_bytes()
        assert len(data) > 10 * 2**20 and data.count(b"\n") == 1 + 512 * 512
        assert peak < 2**20


class TestExpand:
    def test_golden_table(self, capsys):
        assert main(["expand", "--theta", GOLDEN, "--terms", "6"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "# theta = surd:(-1+1*sqrt(5))/2" in out
        assert "# periodic_part = (0, 1)" in out
        header = out.index("k,a_k,p_k,q_k,gap,bound")
        rows = out[header + 1:]
        assert len(rows) == 7  # k = 0..6
        assert rows[1] == "1,1,1,1,0.38196601125010515,0.5"
        assert rows[4] == "4,1,3,5,0.018033988749894848,0.025000000000000001"
        qs = [int(r.split(",")[3]) for r in rows]
        assert qs == [1, 1, 2, 3, 5, 8, 13]  # Fibonacci denominators
        for r in rows:  # strict gap < bound for irrational theta
            gap, bound = map(float, r.split(",")[4:6])
            assert 0 < gap < bound

    def test_rational_terminates_with_equality_row(self, capsys):
        assert main(["expand", "--theta", "rational:7/10"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "# terminating expansion: theta is rational" in out
        assert out[-1] == "3,3,7,10,0,-"
        k2 = out[-2].split(",")
        assert k2[4] == k2[5] == "0.033333333333333333"  # gap == bound == 1/30

    def test_validation_and_exit_codes(self, capsys):
        assert main(["expand", "--terms", "5"]) == 2  # no theta anywhere
        assert "usage error" in capsys.readouterr().err
        assert main(["expand", "--theta", GOLDEN, "--terms", "0"]) == 2
        capsys.readouterr()
        assert main(["expand", "--theta", "rational:0/1"]) == 3  # outside (0,1)
        assert "error:" in capsys.readouterr().err

    def test_decimal_budget(self, capsys):
        # ten digits certify 22 golden quotients: 8 works, 25 does not
        assert main(["expand", "--theta", "decimal:0.6180339887", "--terms", "8"]) == 0
        capsys.readouterr()
        assert main(["expand", "--theta", "decimal:0.6180339887", "--terms", "25"]) == 3
        assert "certifies only" in capsys.readouterr().err

    def test_uncertifiable_decimal(self, capsys):
        assert main(["expand", "--theta", "decimal:0.5"]) == 3
        capsys.readouterr()


    def test_theta_past_the_int_digit_limit_exits_3(self, capsys, digit_limit):
        for theta in ("rational:1/1" + "0" * 5000, "decimal:0." + "0" * 4400 + "1"):
            assert main(["expand", "--theta", theta]) == 3
            err = capsys.readouterr().err
            assert f"{digit_limit}-digit" in err and len(err) < 200

    def test_malformed_theta_is_quoted_up_to_64_characters(self, capsys):
        assert main(["expand", "--theta", "rational:1/x" + "0" * 9988]) == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and "(10000 characters)" in err
        assert main(["expand", "--theta", "rational:1/x"]) == 3
        assert "cannot parse theta 'rational:1/x'; expected" in capsys.readouterr().err

    def test_q_past_the_int_digit_limit_is_refused_before_any_row(self, capsys,
                                                                  digit_limit):
        # theta = sqrt(A^2 + 1) - A = [0; 2A, 2A, ...], so q_k ~ (2A)^k:
        # q_4 has 4002 digits, q_5 5002
        big = 10**1000
        theta = f"surd:(-{big}+1*sqrt({big * big + 1}))/1"
        assert main(["expand", "--theta", theta, "--terms", "6"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "q_5 has more than 4300 decimal digits; --terms 4 is the largest" in err
        assert main(["expand", "--theta", theta, "--terms", "4"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[-1].startswith("4,2") and len(rows[-1].split(",")[3]) == 4002


class TestSpectrum:
    def test_writes_cloud_and_certificate(self, tmp_path, capsys):
        code = main(["spectrum", "--theta", GOLDEN, "--level", "3",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "spectrum: n=3 q_pair=(2, 3) points=5" in out
        csv = (tmp_path / "spectrum_cloud.csv").read_text()
        assert csv.startswith("re,im\n")
        assert len(csv.strip().splitlines()) == 6  # header + q_2 + q_3 points
        doc = json.loads((tmp_path / "spectrum_certificate.json").read_text())
        assert doc["q_pair"] == [2, 3]
        assert doc["epsilon_sharp"] == 55.91143287610732
        assert doc["mode"] == "normal_hausdorff"
        assert len(doc["cloud"]) == 5

    def test_format_selection(self, tmp_path, capsys):
        main(["spectrum", "--theta", GOLDEN, "--level", "3",
              "--out-dir", str(tmp_path), "--format", "csv"])
        capsys.readouterr()
        assert (tmp_path / "spectrum_cloud.csv").exists()
        assert not (tmp_path / "spectrum_certificate.json").exists()

    def test_error_exit_codes(self, tmp_path, capsys):
        base = ["spectrum", "--out-dir", str(tmp_path)]
        assert main(base + ["--theta", "rational:1/3"]) == 3
        assert main(base + ["--theta", GOLDEN, "--level", "12", "--max-q", "100"]) == 3
        assert main(base + ["--theta", GOLDEN, "--spec",
                            '{"terms": [{"u": 1, "v": 1, "re": 1, "im": 0}]}']) == 3
        assert main(base + ["--theta", GOLDEN, "--spec", U2V_JSON]) == 3
        for spec in ('{"canonical": {"a+": [Infinity, 0], "a-": [Infinity, 0]}}',
                     '{"canonical": {"a+": [NaN, 0]}}'):
            assert main(base + ["--theta", GOLDEN, "--spec", spec]) == 3
            assert "must be finite" in capsys.readouterr().err
        capsys.readouterr()

    def test_deep_level_refused_before_expansion(self, tmp_path, capsys):
        # expanding to q_25000 would take seconds, and formatting it (over
        # 5000 digits) would raise; q_n >= F(n) refuses the level first
        out = tmp_path / "out"
        assert main(["spectrum", "--theta", GOLDEN, "--level", "25000",
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "F(18) = 4181 > budget 4096" in err and len(err) < 200
        assert not out.exists()

    def test_svd_failure_takes_the_gesvd_retry_then_exits_4(self, tmp_path, capsys,
                                                              monkeypatch):
        # the normal route of spec U reads operator norms from the SVD
        argv = ["spectrum", "--theta", GOLDEN, "--spec", U_JSON, "--format", "csv",
                "--out-dir"]
        assert main(argv + [str(tmp_path / "plain")]) == 0
        failures = []

        def failing(*args, **kwargs):
            failures.append(kwargs.get("lapack_driver"))
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        assert main(argv + [str(tmp_path / "retry")]) == 0
        assert failures
        plain, retry = (np.loadtxt(tmp_path / d / "spectrum_cloud.csv", delimiter=",",
                                   skiprows=1) for d in ("plain", "retry"))
        assert plain.shape == retry.shape == (13, 2)
        assert np.max(np.abs(plain - retry)) <= 1e-12
        monkeypatch.setattr(scipy.linalg, "svd", failing)
        assert main(argv + [str(tmp_path / "failed")]) == 4
        assert "numerical failure: SVD failed" in capsys.readouterr().err
        assert "gesvd" in failures

    def test_radius_outside_the_float_range(self, tmp_path, capsys):
        out = tmp_path / "out"
        spec = '{"canonical": {"a+": [1e308, 0], "a-": [1e308, 0]}}'
        assert main(["spectrum", "--theta", GOLDEN, "--spec", spec, "--out-dir", str(out)]) == 3
        assert "outside the float range" in capsys.readouterr().err
        assert not out.exists()


class TestPseudospectrum:
    ARGS = ["pseudospectrum", "--theta", GOLDEN, "--level", "2",
            "--epsilon", "1.0", "--region", "-6", "6", "-6", "6",
            "--resolution", "10", "8"]

    def test_writes_grids_report_and_pgm(self, tmp_path, capsys):
        code = main(self.ARGS + ["--out-dir", str(tmp_path),
                                 "--format", "csv", "--format", "json",
                                 "--format", "pgm"])
        assert code == 0
        out = capsys.readouterr().out
        assert "certified=True" in out
        assert "rate=O(1/q_{n-1} + 1/q_n)" in out
        for name in ("grid_prev.csv", "grid_curr.csv", "grid_prev.pgm",
                     "grid_curr.pgm", "sandwich_report.json"):
            assert (tmp_path / name).exists()
        assert (tmp_path / "grid_prev.csv").read_text().startswith("re,im,sigma_min\n")
        pgm = (tmp_path / "grid_prev.pgm").read_bytes()
        assert pgm.startswith(b"P5\n10 8\n65535\n")
        assert len(pgm) == len(b"P5\n10 8\n65535\n") + 10 * 8 * 2
        doc = json.loads((tmp_path / "sandwich_report.json").read_text())
        assert doc["certified"] is True
        assert doc["inclusion_verified"] is True
        assert doc["epsilon"] == 1.0
        assert doc["q_pair"] == [1, 2]

    def test_jobs_do_not_change_output_bytes(self, tmp_path, capsys):
        for jobs, sub in ((1, "a"), (4, "b")):
            main(self.ARGS + ["--out-dir", str(tmp_path / sub), "--jobs", str(jobs),
                              "--format", "csv"])
        capsys.readouterr()
        for name in ("grid_prev.csv", "grid_curr.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_banded_value_outside_its_bracket_exits_4(self, tmp_path, capsys, monkeypatch):
        # without inverse iteration the banded route reports a value far
        # above its bisection bracket; the run must fail, not write it
        monkeypatch.setattr(spectral, "_INVERSE_STEPS", 0)
        out = tmp_path / "out"
        assert main(self.ARGS + ["--spec", U2V_JSON, "--out-dir", str(out)]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "outside its bisection bracket" in err
        assert "lambda=" in err
        assert not out.exists()

    def test_max_q_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        code = main(["pseudospectrum", "--theta", GOLDEN, "--level", "12",
                     "--max-q", "50", "--epsilon", "0.5", "--out-dir", str(tmp_path)])
        assert code == 3  # q_12 = 233
        assert "budget 50" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_epsilon_validation(self, tmp_path, capsys):
        base = ["pseudospectrum", "--theta", GOLDEN, "--out-dir", str(tmp_path)]
        assert main(base) == 2  # epsilon required
        assert main(base + ["--epsilon", "0"]) == 2
        assert main(base + ["--epsilon", "-1"]) == 2
        assert main(base + ["--epsilon", "1", "--method", "svd"]) == 2  # no such flag
        assert main(base + ["--epsilon", "1", "--seed", "0"]) == 2
        capsys.readouterr()

    def test_non_finite_epsilon_and_region_are_usage_errors(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        base = ["pseudospectrum", "--theta", GOLDEN, "--level", "2",
                "--resolution", "4", "4", "--out-dir", str(out)]
        region = ["--region", "-4", "4", "-4", "4"]
        for extra in (["--epsilon", "inf"] + region,
                      ["--epsilon", "nan"] + region,
                      ["--epsilon", "1", "--region", "0", "inf", "-4", "4"]):
            assert main(base + extra) == 2
            assert "must be finite" in capsys.readouterr().err
        for doc in ({"epsilon": math.inf}, {"epsilon": 1, "region": [0, math.nan, -4, 4]}):
            cfg.write_text(json.dumps(doc))
            assert main(base + ["--config", str(cfg)]) == 2
            assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_spec_coefficient(self, tmp_path, capsys):
        spec = '{"canonical": {"a+": [1, 0], "b+": [Infinity, 0]}}'
        assert main(self.ARGS + ["--spec", spec, "--out-dir", str(tmp_path / "out")]) == 3
        assert "must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sum_of_moduli_outside_the_normal_floats_exits_3(self, tmp_path, capsys):
        args = ["pseudospectrum", "--theta", GOLDEN, "--level", "4", "--epsilon", "0.5",
                "--resolution", "3", "3", "--region", "-1", "1", "-1", "1",
                "--out-dir", str(tmp_path / "out")]
        for spec in ('{"terms": [{"u": 1, "v": 1, "re": 1e-320}]}',
                     '{"terms": [{"u": 1, "v": 1, "re": 1e308}, {"u": 2, "v": 0, "re": 1e308}]}'):
            assert main(args + ["--spec", spec]) == 3
            assert "which is not a normal float" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_jobs_below_one_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"jobs": 0}))
        for extra in (["--jobs", "0"], ["--jobs", "-2"], ["--config", str(cfg)]):
            assert main(self.ARGS + ["--out-dir", str(out)] + extra) == 2
            assert "--jobs must be >= 1" in capsys.readouterr().err
        assert main(["onesided", "--theta", GOLDEN, "--n-list", "8", "--jobs", "0",
                     "--out-dir", str(out)]) == 2
        capsys.readouterr()
        assert not out.exists()


class TestButterfly:
    def test_row_counts(self, tmp_path, capsys):
        code = main(["butterfly", "--q-max", "6", "--out-dir", str(tmp_path)])
        assert code == 0
        assert "butterfly: q_max=6 fractions=12 rows=49" in capsys.readouterr().out
        lines = (tmp_path / "butterfly.csv").read_text().strip().splitlines()
        assert lines[0] == "p,q,eigenvalue"
        assert len(lines) == 50
        doc = json.loads((tmp_path / "butterfly_summary.json").read_text())
        assert doc["fractions"] == 12 and doc["rows"] == 49

    def test_degenerate_q1(self, tmp_path, capsys):
        main(["butterfly", "--q-max", "1", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        assert (tmp_path / "butterfly.csv").read_text() == "p,q,eigenvalue\n0,1,4\n"

    def test_qmax2_eigenvalues(self, tmp_path, capsys):
        main(["butterfly", "--q-max", "2", "--out-dir", str(tmp_path)])
        capsys.readouterr()
        lines = (tmp_path / "butterfly.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 1 + 2
        half = [float(r.split(",")[2]) for r in lines if r.startswith("1,2,")]
        assert half == pytest.approx([-2 * math.sqrt(2), 2 * math.sqrt(2)], abs=1e-14)

    def test_rejects_nonhermitian_spec(self, tmp_path, capsys):
        code = main(["butterfly", "--q-max", "3", "--out-dir", str(tmp_path),
                     "--spec", '{"terms": [{"u": 1, "v": 0, "re": 1, "im": 0}]}'])
        assert code == 3
        assert "hermitian" in capsys.readouterr().err

    def test_qmax_validation(self, tmp_path, capsys):
        assert main(["butterfly", "--q-max", "0", "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_max_q_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "build_operator", None)  # any build would fail
        code = main(["butterfly", "--q-max", "60", "--max-q", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert "budget 50" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestOnesided:
    def test_cloud_kind(self, tmp_path, capsys):
        code = main(["onesided", "--theta", GOLDEN, "--n-list", "10,50",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "onesided: n=10 p=6 radius=34.949266426002588 kind=cloud" in out
        for n, count in ((10, 10), (50, 50)):
            lines = (tmp_path / f"onesided_n{n}.csv").read_text().strip().splitlines()
            assert lines[0] == "re,im" and len(lines) == count + 1
        doc = json.loads((tmp_path / "onesided_summary.json").read_text())
        certs = doc["certificates"]
        assert [c["n"] for c in certs] == [10, 50]
        assert [c["p"] for c in certs] == [6, 31]
        assert certs[0]["radius"] == 34.94926642600259
        assert certs[1]["radius"] == 15.629787098458582
        assert all(c["kind"] == "cloud" for c in certs)

    def test_grid_kind_for_nonnormal_model(self, tmp_path, capsys):
        code = main(["onesided", "--theta", GOLDEN, "--n-list", "5",
                     "--spec", U2V_JSON, "--resolution", "6", "6",
                     "--region", "-4", "4", "-4", "4",
                     "--out-dir", str(tmp_path), "--format", "csv",
                     "--format", "json", "--format", "pgm"])
        assert code == 0
        assert "kind=grid" in capsys.readouterr().out
        assert (tmp_path / "onesided_n5.csv").read_text().startswith("re,im,sigma_min\n")
        assert (tmp_path / "onesided_n5.pgm").read_bytes().startswith(b"P5\n6 6\n")
        doc = json.loads((tmp_path / "onesided_summary.json").read_text())
        assert doc["certificates"][0]["kind"] == "grid"
        assert doc["certificates"][0]["resolution"] == [6, 6]

    def test_max_q_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        code = main(["onesided", "--theta", GOLDEN, "--n-list", "300",
                     "--max-q", "50", "--out-dir", str(tmp_path)])
        assert code == 3
        assert "budget 50" in capsys.readouterr().err
        # the whole list is checked before the first model is built
        assert main(["onesided", "--theta", GOLDEN, "--n-list", "10,300",
                     "--max-q", "50", "--out-dir", str(tmp_path)]) == 3
        capsys.readouterr()
        assert not list(tmp_path.iterdir())

    def test_max_q_reaches_the_library(self, tmp_path, capsys, monkeypatch):
        seen = []
        real = cli.one_sided
        monkeypatch.setattr(cli, "one_sided",
                            lambda *a, **kw: seen.append(kw.get("max_q")) or real(*a, **kw))
        assert main(["onesided", "--theta", GOLDEN, "--n-list", "10", "--max-q", "5000",
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert seen == [5000]

    def test_n_list_validation(self, tmp_path, capsys):
        base = ["onesided", "--theta", GOLDEN, "--out-dir", str(tmp_path)]
        assert main(base) == 2
        assert main(base + ["--n-list", ","]) == 2
        capsys.readouterr()

    def test_denominator_below_one_is_a_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        out = tmp_path / "out"
        for n_list in ("10,0", "-3"):
            assert main(["onesided", "--theta", GOLDEN, "--n-list", n_list,
                         "--out-dir", str(out)]) == 2
            assert "--n-list entries must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_every_denominator_is_certified_before_any_write(self, tmp_path, capsys):
        # n = 1 certifies; at n = 2 the interval of decimal:0.25 breaks the
        # hypothesis |theta - p*/n| <= 1/(2n), so nothing may be written
        out = tmp_path / "out"
        assert main(["onesided", "--theta", "decimal:0.25", "--n-list", "1,2",
                     "--out-dir", str(out)]) == 3
        assert "1/(2n)" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_n_list_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_list": "10,x"}))
        base = ["onesided", "--theta", GOLDEN, "--out-dir", str(out)]
        for extra in (["--n-list", "x"], ["--n-list", "10,,x"], ["--config", str(cfg)]):
            assert main(base + extra) == 2
            assert "--n-list must be comma-separated integers" in capsys.readouterr().err
        assert not out.exists()


class TestConverge:
    def test_ladder_passes(self, tmp_path, capsys):
        code = main(["converge", "--theta", GOLDEN, "--n-range", "3:6",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("ok=True") == 4
        lines = (tmp_path / "convergence.csv").read_text().strip().splitlines()
        assert lines[0] == "n,q_prev,q_n,epsilon_sharp,epsilon_clean,empirical_dH"
        assert len(lines) == 5
        doc = json.loads((tmp_path / "convergence.json").read_text())
        assert doc["all_verified"] is True
        assert doc["reference_n"] == 6
        assert [r["n"] for r in doc["rows"]] == [3, 4, 5, 6]
        assert doc["rows"][-1]["empirical_dH"] == 0.0

    def test_range_validation(self, tmp_path, capsys):
        base = ["converge", "--theta", GOLDEN, "--out-dir", str(tmp_path)]
        assert main(base) == 2
        assert main(base + ["--n-range", "3-6"]) == 2
        assert main(base + ["--n-range", "6:3"]) == 2
        capsys.readouterr()

    def test_malformed_n_range_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_range": "3:b"}))
        base = ["converge", "--theta", GOLDEN, "--out-dir", str(out)]
        for extra in (["--n-range", "a:b"], ["--n-range", "3:"], ["--config", str(cfg)]):
            assert main(base + extra) == 2
            assert "--n-range must look like a:b" in capsys.readouterr().err
        assert not out.exists()

    def test_violation_exits_5_after_writing(self, tmp_path, capsys, monkeypatch):
        spec = OperatorSpec.canonical(1, 1, 1, 1)
        bad_row = ConvergenceRow(n=3, q_prev=2, q_n=3, epsilon_sharp=1.0,
                                 epsilon_clean=2.0, empirical_dh=10.0,
                                 certified_bound=1.5)
        table = ConvergenceTable(theta="x", spec=spec, rows=(bad_row,),
                                 reference_n=3)
        monkeypatch.setattr(cli, "convergence_study", lambda *a, **k: table)
        code = main(["converge", "--theta", GOLDEN, "--n-range", "3:3",
                     "--out-dir", str(tmp_path)])
        assert code == 5
        err = capsys.readouterr().err
        assert "certificate violation" in err
        # artifacts are still written for post-mortem inspection
        assert (tmp_path / "convergence.csv").exists()
        doc = json.loads((tmp_path / "convergence.json").read_text())
        assert doc["all_verified"] is False

    def test_numerical_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise ConvergenceFailure("eigensolver stalled")
        monkeypatch.setattr(cli, "convergence_study", boom)
        code = main(["converge", "--theta", GOLDEN, "--n-range", "3:3",
                     "--out-dir", str(tmp_path)])
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err


class TestConfigAndSpecResolution:
    def test_config_supplies_and_flag_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": GOLDEN, "terms": 5}))
        assert main(["expand", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out[out.index("k,a_k,p_k,q_k,gap,bound") + 1:]) == 6
        assert main(["expand", "--config", str(cfg), "--terms", "3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out[out.index("k,a_k,p_k,q_k,gap,bound") + 1:]) == 4

    def test_config_spec_and_qmax(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"q_max": 1}))
        assert main(["butterfly", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "butterfly_summary.json").exists()
        doc = json.loads((tmp_path / "butterfly_summary.json").read_text())
        assert doc["q_max"] == 1 and doc["rows"] == 1
        cfg.write_text(json.dumps({"q_max": 1, "spec": json.loads(U2V_JSON)}))
        assert main(["butterfly", "--config", str(cfg),
                     "--out-dir", str(tmp_path)]) == 3  # config spec not hermitian
        capsys.readouterr()

    def test_config_validation(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        for unknown in ({"tehta": GOLDEN}, {"method": "svd"}, {"seed": 0}):
            bad.write_text(json.dumps(unknown))
            assert main(["expand", "--config", str(bad)]) == 3
            assert "unknown config keys" in capsys.readouterr().err
        out = tmp_path / "out"
        for argv, wrong in ((["pseudospectrum", "--epsilon", "0.5"], {"jobs": "two"}),
                            (["spectrum"], {"level": 2.5}),
                            (["spectrum"], {"level": True})):
            bad.write_text(json.dumps(wrong))
            assert main(argv + ["--theta", GOLDEN, "--config", str(bad),
                                "--out-dir", str(out)]) == 3
            assert "must be an integer" in capsys.readouterr().err
        assert not out.exists()
        bad.write_text(json.dumps([1, 2]))
        assert main(["expand", "--config", str(bad)]) == 3
        assert main(["expand", "--config", str(tmp_path / "missing.json")]) == 3
        capsys.readouterr()

    def test_spec_sources(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"canonical": {"a+": [1,0], "a-": [1,0], '
                             '"b+": [1,0], "b-": [1,0]}}')
        assert main(["butterfly", "--q-max", "1", "--spec-file", str(spec_file),
                     "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "butterfly.csv").read_text() == "p,q,eigenvalue\n0,1,4\n"
        assert main(["butterfly", "--q-max", "1", "--spec", "{not json",
                     "--out-dir", str(tmp_path)]) == 3
        assert main(["butterfly", "--q-max", "1",
                     "--spec-file", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 3
        capsys.readouterr()

    def test_mutually_exclusive_spec_flags(self, tmp_path, capsys):
        code = main(["butterfly", "--q-max", "1", "--spec", "{}",
                     "--spec-file", "x.json", "--out-dir", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_no_or_unknown_subcommand(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestOptionsPerSubcommand:
    """Each subcommand accepts exactly the options it reads and the formats
    it writes; a config file serves every subcommand."""

    BASE = {
        "expand": ["expand", "--theta", GOLDEN, "--terms", "3"],
        "spectrum": ["spectrum", "--theta", GOLDEN, "--level", "3"],
        "butterfly": ["butterfly", "--q-max", "2"],
        "converge": ["converge", "--theta", GOLDEN, "--n-range", "3:4"],
    }

    @pytest.mark.parametrize("command, extra", [
        ("expand", ["--spec", "{}"]),
        ("expand", ["--spec-file", "spec.json"]),
        ("expand", ["--out-dir", "out"]),
        ("expand", ["--format", "csv"]),
        ("expand", ["--jobs", "4"]),
        ("expand", ["--max-q", "10"]),
        ("spectrum", ["--jobs", "8"]),
        ("butterfly", ["--theta", "rational:1/2"]),
        ("butterfly", ["--jobs", "3"]),
        ("converge", ["--jobs", "8"]),
        ("spectrum", ["--format", "pgm"]),
        ("butterfly", ["--format", "pgm"]),
        ("converge", ["--format", "pgm"]),
    ])
    def test_unread_flag_or_format_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                    command, extra):
        monkeypatch.chdir(tmp_path)
        argv = self.BASE[command] + extra
        if command != "expand":
            argv += ["--out-dir", "out"]
        assert main(argv) == 2
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "out").exists()

    def test_config_format_not_written_is_refused_before_any_build(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        for fmt in ("pgm", "xml", ["csv", "pgm"]):
            cfg.write_text(json.dumps({"format": fmt}))
            assert main(self.BASE["spectrum"] + ["--config", str(cfg),
                                                 "--out-dir", str(out)]) == 3
            assert "unknown output formats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        BASE["spectrum"],
        ["pseudospectrum", "--theta", GOLDEN, "--level", "3", "--epsilon", "0.5",
         "--resolution", "4", "4"],
    ], ids=["spectrum", "pseudospectrum"])
    def test_empty_config_format_list_is_refused_before_any_build(
            self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setattr(approx, "build_operator", None)  # any build would fail
        out = tmp_path / "out"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": []}))
        assert main(argv + ["--config", str(cfg), "--out-dir", str(out)]) == 3
        captured = capsys.readouterr()
        assert "no output format requested" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_one_config_serves_spectrum_and_pseudospectrum(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"theta": GOLDEN, "spec": {"canonical": {"a+": [1, 0]}},
                                   "level": 2, "epsilon": 1.0}))
        assert main(["spectrum", "--config", str(cfg), "--out-dir", str(tmp_path / "s")]) == 0
        assert "spectrum: n=2 q_pair=(1, 2)" in capsys.readouterr().out
        assert main(["pseudospectrum", "--config", str(cfg), "--resolution", "4", "4",
                     "--out-dir", str(tmp_path / "p")]) == 0
        assert "pseudospectrum: n=2 q_pair=(1, 2) epsilon=1" in capsys.readouterr().out
        doc = json.loads((tmp_path / "p" / "sandwich_report.json").read_text())
        assert doc["epsilon"] == 1.0


class TestLazyScipy:
    """scipy is imported only by the routes that call it. Each check runs
    in a fresh interpreter, because this test process has scipy loaded."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("argv, loaded", [
        (None, False),  # import and build the parser only
        (["expand", "--theta", GOLDEN, "--terms", "6"], False),
        (["pseudospectrum", "--theta", GOLDEN, "--spec", U2V_JSON, "--level", "3",
          "--epsilon", "0.5", "--resolution", "6", "5"], False),
        (["pseudospectrum", "--theta", GOLDEN, "--spec", U2V_JSON, "--level", "11",
          "--epsilon", "0.5", "--resolution", "4", "3"], False),  # banded route, q = 89, 144
        (["spectrum", "--theta", GOLDEN], True),
    ], ids=["parser", "expand", "pseudospectrum", "pseudospectrum-banded", "spectrum"])
    def test_scipy_loaded_only_where_called(self, tmp_path, argv, loaded):
        if argv is not None and argv[0] != "expand":  # expand writes no files
            argv = argv + ["--out-dir", str(tmp_path)]
        run = "cli.build_parser()" if argv is None else f"assert cli.main({argv!r}) == 0"
        code = f"import sys\nimport rotspec.cli as cli\n{run}\nprint('scipy' in sys.modules)\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(self.SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(loaded)
