"""End-to-end CLI tests: every subcommand runs in-process against a
temporary directory, and output files are parsed back and checked
against library-level recomputations or hand-derived values."""

import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from argparse import Namespace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rotspec.approx as approx
import rotspec.cli as cli
import rotspec.matmodel as matmodel
import rotspec.spectral as spectral
from rotspec.approx import ConvergenceRow, ConvergenceTable
from rotspec.cli import dumps_17g, main
from rotspec.errors import ConvergenceFailure, InvalidInput
from rotspec.matmodel import OperatorSpec, build_operator
from rotspec.pseudospectra import PseudospectrumGrid, cloud_to_csv, grid_to_csv, grid_to_pgm
from rotspec.spectral import hermitian_eigenvalues
from dense_oracle import fibonacci

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
        with pytest.raises(TypeError):
            dumps_17g(np.int32(7))
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

    def test_other_real_numbers_are_refused(self):
        # only floats and ints print, subclasses such as np.float64 included
        for x in (Fraction(1, 3), Decimal("0.1")):
            with pytest.raises(TypeError):
                dumps_17g(x)

    def test_numpy_scalars(self):
        # np.float64 subclasses float; no other numpy scalar reaches the writer
        assert dumps_17g(np.float64(0.1)) == "0.10000000000000001"
        for x in (np.float32(0.1), np.int64(-7)):
            with pytest.raises(TypeError):
                dumps_17g(x)


@pytest.fixture
def digit_limit():
    """Python's int/str conversion limit, pinned at its default."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


@pytest.fixture
def low_digit_limit():
    """Python's int/str conversion limit at its smallest, 640 digits."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


def _writer(tmp_path, *formats):
    return cli._Output(Namespace(out_dir=str(tmp_path), format=formats))


def _grid(sigma, region=(-1 / 3, 2 / 7, -0.1, 0.7)):
    return PseudospectrumGrid(region=region, resolution=sigma.shape,
                              sigma_min_values=sigma)


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
        out.write("csv", "cloud.csv", lambda: cloud_to_csv(pts))
        out.write("csv", "empty.csv", lambda: cloud_to_csv(np.array([])))
        lines = ["re,im"] + [f"{z.real:.17g},{z.imag:.17g}" for z in pts]
        assert (tmp_path / "cloud.csv").read_bytes() == ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "empty.csv").read_bytes() == b"re,im\n"

    def test_convergence_csv(self, tmp_path):
        rows = tuple(ConvergenceRow(n, n - 1, n, 0.1 * n, 1 / 3 * n, 1e-300 * n, 0.5 * n)
                     for n in range(3, 7))
        table = ConvergenceTable(rows=rows, reference_n=6)
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

    def test_decimal_at_its_certified_depth(self, capsys):
        # 22 quotients print, but q_23 for the last gap row is not certified
        assert main(["expand", "--theta", "decimal:0.6180339887", "--terms", "22"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        rows = out[out.index("k,a_k,p_k,q_k,gap,bound") + 1:]
        assert len(rows) == 23
        assert rows[-1] == "22,1,17711,28657,-,-"
        assert rows[-2].split(",")[4] != "-"

    def test_rational_cut_before_its_end(self, capsys):
        # 7/10 = [0; 1, 2, 3]: two terms do not terminate, and q_3 still
        # supplies the last gap row, where gap == bound == 1/(q_2 q_3)
        assert main(["expand", "--theta", "rational:7/10", "--terms", "2"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert not any(line.startswith("# terminating") for line in out)
        assert out[-1] == "2,2,2,3,0.033333333333333333,0.033333333333333333"

    @pytest.mark.parametrize("terms,noted", [(1, False), (2, True)])
    def test_golden_period_is_noted_once_it_recurs(self, capsys, terms, noted):
        assert main(["expand", "--theta", GOLDEN, "--terms", str(terms)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert ("# periodic_part = (0, 1)" in out) is noted

    def test_uncertifiable_decimal(self, capsys):
        assert main(["expand", "--theta", "decimal:0.5"]) == 3
        capsys.readouterr()


    def test_theta_past_the_int_digit_limit_exits_3(self, capsys, digit_limit):
        for theta in ("rational:1/1" + "0" * 5000, "surd:(1+1*sqrt(2" + "0" * 5000 + "))/3",
                      "decimal:0." + "0" * 4400 + "1"):
            assert main(["expand", "--theta", theta]) == 3
            err = capsys.readouterr().err
            assert f"{digit_limit}-digit" in err and len(err) < 200

    def test_malformed_theta_is_quoted_up_to_64_characters(self, capsys):
        assert main(["expand", "--theta", "rational:1/x" + "0" * 9988]) == 3
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and "(10000 characters)" in err
        assert main(["expand", "--theta", "rational:1/x"]) == 3
        assert "cannot parse theta 'rational:1/x'; expected" in capsys.readouterr().err

    def test_theta_outside_the_unit_interval_is_quoted_up_to_64_characters(self, capsys):
        for theta in ("rational:1" + "0" * 4000 + "/3",
                      "surd:(1" + "0" * 3999 + "+1*sqrt(5))/1"):
            assert main(["expand", "--theta", theta]) == 3
            err = capsys.readouterr().err
            assert len(err.encode()) < 300 and "characters) is not in (0,1)" in err
        assert main(["expand", "--theta", "rational:3/2"]) == 3
        assert "theta 'rational:3/2' is not in (0,1)" in capsys.readouterr().err

    def test_long_theta_is_quoted_up_to_64_characters_in_every_error(self, tmp_path, capsys):
        # a rational theta refused by a certificate, and a decimal whose
        # 3000 digits certify no quotient, each of 3011 characters
        rational, decimal = "rational:1/" + "7" * 3000, "decimal:0.5" + "0" * 3000
        for argv, message in (
                (["spectrum", "--theta", rational, "--out-dir", str(tmp_path)],
                 "is exactly rational"),
                (["onesided", "--theta", rational, "--n", "5", "--out-dir", str(tmp_path)],
                 "is exactly rational"),
                (["expand", "--theta", decimal], "certifies only 0 partial quotients")):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert len(err.encode()) < 300 and f"(3011 characters) {message}" in err
        assert main(["spectrum", "--theta", "rational:1/3", "--out-dir", str(tmp_path)]) == 3
        assert "theta 'rational:1/3' is exactly rational" in capsys.readouterr().err

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

    def test_no_expansion_runs_past_the_printable_bound(self, capsys, low_digit_limit):
        # every theta has q_k >= F(k), and F(3064) is the first with more
        # than 640 digits: golden theta, whose q_k is F(k), is refused
        # after 3064 terms, not 20001 (several seconds)
        start = time.perf_counter()
        assert main(["expand", "--theta", GOLDEN, "--terms", "20000"]) == 2
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("usage error: p_3064/q_3064 has more than 640 decimal digits; "
                       "--terms 3063 is the largest that prints\n")
        assert elapsed < 2
        # F(3062)/F(3063) ends after 3062 terms, one short of the bound,
        # with q = F(3063) of 640 digits: a huge --terms prints all of it
        p, q = fibonacci(3062), fibonacci(3063)
        assert main(["expand", "--theta", f"rational:{p}/{q}", "--terms", "1000000000"]) == 0
        rows = capsys.readouterr().out.splitlines()
        header = rows.index("k,a_k,p_k,q_k,gap,bound")
        assert len(rows) - header - 1 == 3063  # k = 0..3062
        assert rows[-1] == f"3062,2,{p},{q},0,-"


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

    def test_unwritable_out_dir_exits_3(self, tmp_path):
        # an --out-dir that is a file, or that lies under one, cannot be
        # created: the run exits 3 naming the path, with no traceback and
        # nothing left behind
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        src = Path(__file__).resolve().parents[1] / "src"
        for out_dir in (blocker, blocker / "sub"):
            proc = subprocess.run(
                [sys.executable, "-m", "rotspec.cli", "spectrum", "--theta", GOLDEN,
                 "--level", "3", "--out-dir", str(out_dir)],
                capture_output=True, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": str(src)})
            assert proc.returncode == 3, proc.stderr
            assert str(out_dir / "spectrum_cloud.csv") in proc.stderr
            assert "Traceback" not in proc.stderr
            assert sorted(p.name for p in tmp_path.rglob("*")) == ["blocker"]
            assert blocker.read_bytes() == b""

    @pytest.mark.parametrize("args", [
        ["spectrum", "--theta", GOLDEN, "--level", "3"],
        ["pseudospectrum", "--theta", GOLDEN, "--level", "3", "--epsilon", "0.5",
         "--resolution", "3", "3"],
        ["butterfly", "--q-max", "3"],
        ["onesided", "--theta", GOLDEN, "--n-list", "5", "--resolution", "3", "3"],
        ["converge", "--theta", GOLDEN, "--n-range", "1:2"],
    ], ids=lambda args: args[0])
    def test_every_writing_command_exits_3_on_an_unwritable_out_dir(self, tmp_path, capsys,
                                                                    args):
        # every command writes through the one writer, so each turns an
        # --out-dir under a file into exit 3 naming the path it could not
        # write, and leaves nothing behind
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        assert main([*args, "--out-dir", str(blocker / "sub")]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {blocker / 'sub'}")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["blocker"]

    def test_a_failed_artifact_removes_the_run_s_earlier_ones(self, tmp_path, capsys):
        # the certificate cannot replace a directory of its name: the cloud
        # CSV written before it goes too, and nothing is reported written
        out = tmp_path / "od"
        (out / "spectrum_certificate.json").mkdir(parents=True)
        assert main(["spectrum", "--theta", GOLDEN, "--level", "5", "--out-dir", str(out)]) == 3
        std = capsys.readouterr()
        assert std.err.startswith(f"error: cannot write {out / 'spectrum_certificate.json'}")
        assert "wrote" not in std.out
        assert sorted(p.name for p in out.rglob("*")) == ["spectrum_certificate.json"]

    def test_a_failed_artifact_removes_the_directories_the_run_made(self, tmp_path, capsys,
                                                                    monkeypatch):
        # a failure while formatting the second artifact, under an
        # --out-dir two levels below what exists
        def planted(obj, indent=0):
            raise InvalidInput("planted")

        monkeypatch.setattr(cli, "dumps_17g", planted)
        out = tmp_path / "new" / "sub"
        assert main(["spectrum", "--theta", GOLDEN, "--level", "5", "--out-dir", str(out)]) == 3
        std = capsys.readouterr()
        assert std.err == "error: planted\n" and "wrote" not in std.out
        assert list(tmp_path.iterdir()) == []

    def test_deep_level_refused_before_expansion(self, tmp_path, capsys):
        # expanding to q_25000 would take seconds, and formatting it (over
        # 5000 digits) would raise; q_n >= F(n) refuses the level first
        out = tmp_path / "out"
        assert main(["spectrum", "--theta", GOLDEN, "--level", "25000",
                     "--out-dir", str(out)]) == 3
        err = capsys.readouterr().err
        assert "F(18) = 4181 > budget 4096" in err and len(err) < 200
        assert not out.exists()

    def test_non_normal_spec_at_level_2_exits_3_without_an_svd(self, tmp_path, capsys,
                                                               monkeypatch):
        # the order-2 model of U + (1 + 5e-11 i)V is normal to within 2-norms
        # that only an SVD tells, but the spec fails the equations, so the
        # level is refused before any matrix is built
        calls = []

        def failing(*args, **kwargs):
            calls.append(kwargs.get("lapack_driver"))
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        monkeypatch.setattr(spectral, "_lapack", lambda: calls.append("lapack"))
        out = tmp_path / "out"
        assert main(["spectrum", "--theta", GOLDEN, "--spec",
                     '{"canonical": {"a+": [1,0], "b+": [1,5e-11]}}',
                     "--level", "2", "--out-dir", str(out)]) == 3
        assert "models are not normal" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_non_normal_spec_refused_at_every_level_before_any_model(self, tmp_path, capsys,
                                                                    monkeypatch):
        # U + 2V's models at q = 1 and 2 are Hermitian, but the operator is
        # not normal: levels 1 and 2 exit 3 as level 3 does
        builds = []
        for module in (approx, spectral, matmodel):
            monkeypatch.setattr(module, "build_operator", lambda *a: builds.append(a[1:]))
        out = tmp_path / "out"
        for argv in (["spectrum", "--level", "1"], ["spectrum", "--level", "2"],
                     ["converge", "--n-range", "1:3"]):
            assert main(argv + ["--theta", GOLDEN, "--spec", U2V_JSON,
                                "--out-dir", str(out)]) == 3
            assert "models are not normal" in capsys.readouterr().err
        assert builds == [] and not out.exists()

    def test_normal_only_within_rounding_exits_3_before_any_file(self, tmp_path, capsys):
        # e^{0.3i} times a Hermitian spec, rounded to floats, is refused
        r, h, g = complex(math.cos(0.3), math.sin(0.3)), 0.7 - 0.2j, 1.3 + 0.4j
        coefficients = (r * h, r * h.conjugate(), r * g, r * g.conjugate())
        parts = {key: [c.real, c.imag] for key, c in zip(("a+", "a-", "b+", "b-"), coefficients)}
        out = tmp_path / "out"
        assert main(["spectrum", "--theta", GOLDEN, "--level", "8", "--out-dir", str(out),
                     "--spec", json.dumps({"canonical": parts})]) == 3
        assert "models are not normal" in capsys.readouterr().err
        assert not out.exists()

    def test_radius_outside_the_float_range(self, tmp_path, capsys):
        # sum |c| = 2e307 is a float, but 204 * 1e307 * (1/5 + 1/8) is not
        out = tmp_path / "out"
        spec = '{"canonical": {"a+": [1e307, 0], "a-": [1e307, 0]}}'
        assert main(["spectrum", "--theta", GOLDEN, "--spec", spec, "--out-dir", str(out)]) == 3
        assert "e+308 is outside the float range" in capsys.readouterr().err
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
        for spec, message in (
                ('{"terms": [{"u": 1, "v": 1, "re": 1e-320}]}', "which is not a normal float"),
                ('{"terms": [{"u": 1, "v": 1, "re": 1e308}, {"u": 2, "v": 0, "re": 1e308}]}',
                 "sum |c| = inf of the spec is outside the float range")):
            assert main(args + ["--spec", spec]) == 3
            assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_coefficient_near_the_float_range_runs_without_warning(self, tmp_path, capsys):
        # sum |c| = 1.41e308: build_operator's complex multiply flagged an
        # overflow in an intermediate of its finite product, on stderr (or
        # as an error under -W error)
        spec = '{"terms": [{"u": 1, "v": 1, "re": 1e308, "im": 1e308}]}'
        args = ["pseudospectrum", "--theta", GOLDEN, "--level", "4", "--epsilon", "0.5",
                "--resolution", "3", "3", "--region", "-1", "1", "-1", "1",
                "--spec", spec, "--out-dir", str(tmp_path / "out")]
        assert main(args) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("region, spec, command", [
        # the axis step overflows: nodes nan and inf gave rows nan,-1,nan
        # under a certified report, or a failed Cholesky factor (exit 4)
        ([-1e308, 1e308, -1, 1], None, "pseudospectrum"),
        ([-1e308, 1e308, -1, 1], U2V_JSON, "pseudospectrum"),
        ([-1e308, 1e308, -1, 1], U2V_JSON, "onesided"),
        # |lambda| + sum |c| overflows at the far corner: nan (band) or inf
        ([0, 1.5e308, 0, 1.5e308], None, "pseudospectrum"),
        ([0, 1.5e308, 0, 1.5e308], U2V_JSON, "pseudospectrum"),
        # the default region of sum |c| = 1.4e308 spans past the range
        (None, '{"terms": [{"u": 1, "v": 1, "re": 1.4e308}]}', "pseudospectrum"),
    ])
    def test_nodes_past_the_float_range_exit_3_before_any_file(self, tmp_path, capsys,
                                                                region, spec, command):
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        cfg.write_text(json.dumps({"region": region} if region else {}))
        args = [command, "--theta", GOLDEN, "--resolution", "3", "3", "--config", str(cfg),
                "--out-dir", str(out), "--format", "csv", "--format", "json"]
        args += ["--level", "4", "--epsilon", "0.5"] if command == "pseudospectrum" else [
            "--n-list", "8"]
        assert main(args + (["--spec", spec] if spec else [])) == 3
        assert "outside the float range" in capsys.readouterr().err
        assert not out.exists()

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

    def test_unallocatable_resolution_exits_3(self, tmp_path, capsys):
        # 10^7 x 10^7 grid values are 728 TiB: refused naming the
        # resolution and the bytes, before any file, with no traceback
        out = tmp_path / "out"
        assert main(["pseudospectrum", "--theta", GOLDEN, "--spec", U2V_JSON, "--level", "3",
                     "--epsilon", "0.5", "--resolution", "10000000", "10000000",
                     "--out-dir", str(out)]) == 3
        assert capsys.readouterr().err == (
            "error: resolution 10000000x10000000 needs 800000000000000 bytes for a grid's "
            "values, more than can be allocated\n")
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
        # hermitian_eigenvalues refuses the first model, before any file
        out = tmp_path / "out"
        code = main(["butterfly", "--q-max", "3", "--out-dir", str(out),
                     "--spec", '{"terms": [{"u": 1, "v": 0, "re": 1, "im": 0}]}'])
        assert code == 3
        assert "spec is not Hermitian" in capsys.readouterr().err
        assert not out.exists()

    def test_qmax_validation(self, tmp_path, capsys):
        assert main(["butterfly", "--q-max", "0", "--out-dir", str(tmp_path)]) == 2
        capsys.readouterr()

    def test_max_q_budget(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(matmodel, "build_operator", None)  # any build would fail
        code = main(["butterfly", "--q-max", "60", "--max-q", "50",
                     "--out-dir", str(tmp_path)])
        assert code == 3
        assert "budget 50" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_memory_holds_one_spectrum(self, tmp_path, capsys):
        # the rows number about 0.2 q_max^3, 44,231 at 60 (about 3 MiB held
        # at once), and each fraction's are written as they are solved: the
        # peak stays flat from 30 to 60
        main(["butterfly", "--q-max", "2", "--out-dir", str(tmp_path / "warm")])
        peaks = {}
        for q_max in (30, 60):
            tracemalloc.start()
            try:
                assert main(["butterfly", "--q-max", str(q_max), "--format", "csv",
                             "--out-dir", str(tmp_path / str(q_max))]) == 0
                peaks[q_max] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        capsys.readouterr()
        assert peaks[60] < 2**20 and abs(peaks[60] - peaks[30]) < 2**18, peaks

    @pytest.mark.parametrize("fresh", [True, False])
    def test_failure_mid_stream_leaves_no_csv(self, tmp_path, capsys, monkeypatch, fresh):
        out = tmp_path / "out"
        if not fresh:
            out.mkdir()
        calls = []

        def solve(model):
            calls.append(model.order)
            if len(calls) == 20:
                raise ConvergenceFailure("planted")
            return hermitian_eigenvalues(model)

        monkeypatch.setattr(spectral, "hermitian_eigenvalues", solve)
        assert main(["butterfly", "--q-max", "12", "--out-dir", str(out)]) == 4
        assert "planted" in capsys.readouterr().err
        assert len(calls) == 20
        assert (not out.exists()) if fresh else not list(out.iterdir())

    def test_json_only_run_solves_every_fraction(self, tmp_path, capsys, monkeypatch):
        both, json_only = tmp_path / "both", tmp_path / "json"
        assert main(["butterfly", "--q-max", "9", "--out-dir", str(both)]) == 0
        orders = []

        def solve(model):
            orders.append(model.order)
            return hermitian_eigenvalues(model)

        monkeypatch.setattr(spectral, "hermitian_eigenvalues", solve)
        assert main(["butterfly", "--q-max", "9", "--format", "json",
                     "--out-dir", str(json_only)]) == 0
        capsys.readouterr()
        assert [p.name for p in json_only.iterdir()] == ["butterfly_summary.json"]
        summary = "butterfly_summary.json"
        assert (json_only / summary).read_bytes() == (both / summary).read_bytes()
        doc = json.loads((both / summary).read_text())
        assert orders == [q for q in range(1, 10) for p in range(q) if math.gcd(p, q) == 1]
        assert (doc["fractions"], doc["rows"]) == (len(orders), sum(orders))


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

    def test_theta_outside_the_unit_interval_exits_3_before_any_file(self, tmp_path, capsys):
        # phi = 1.618...: onesided would certify it with the p of phi - 1
        phi, out = "surd:(1+1*sqrt(5))/2", tmp_path / "out"
        for argv in (["onesided", "--n-list", "10,50"], ["spectrum"],
                     ["converge", "--n-range", "3:5"], ["pseudospectrum", "--epsilon", "0.5"],
                     ["expand"]):
            extra = [] if argv == ["expand"] else ["--out-dir", str(out)]
            assert main([*argv, "--theta", phi, *extra]) == 3
            std = capsys.readouterr()
            assert std.err == f"error: theta '{phi}' is not in (0,1)\n" and std.out == ""
        assert not out.exists()

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

    def test_grid_kind_at_every_denominator_of_a_non_normal_spec(self, tmp_path, capsys):
        # U + 2V's models at n = 1 and 2 are Hermitian, but the operator is
        # not normal, so each denominator gets a grid
        assert main(["onesided", "--theta", GOLDEN, "--n-list", "1,2", "--spec", U2V_JSON,
                     "--resolution", "4", "4", "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.count("kind=grid") == 2
        doc = json.loads((tmp_path / "onesided_summary.json").read_text())
        assert [c["kind"] for c in doc["certificates"]] == ["grid", "grid"]
        for n in (1, 2):
            assert (tmp_path / f"onesided_n{n}.csv").read_text().startswith("re,im,sigma_min\n")

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
        real = approx.one_sided
        monkeypatch.setattr(approx, "one_sided",
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

    def test_repeated_denominators_run_once(self, tmp_path, capsys, monkeypatch):
        # a repeat is dropped, first occurrence kept, from the flag and
        # from a config list alike
        seen = []
        real = approx.one_sided
        monkeypatch.setattr(approx, "one_sided",
                            lambda theta, spec, n, *a, **kw: seen.append(n)
                            or real(theta, spec, n, *a, **kw))
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_list": [8, 8, 5]}))
        for i, extra in enumerate((["--n-list", "8,8,5"], ["--config", str(cfg)])):
            out = tmp_path / f"out{i}"
            seen.clear()
            assert main(["onesided", "--theta", GOLDEN, "--out-dir", str(out), *extra]) == 0
            assert seen == [8, 5]
            printed = capsys.readouterr().out
            assert printed.count("onesided: n=8 ") == 1
            assert printed.count(f"wrote {out / 'onesided_n8.csv'}\n") == 1
            assert sorted(p.name for p in out.iterdir()) == [
                "onesided_n5.csv", "onesided_n8.csv", "onesided_summary.json"]
            doc = json.loads((out / "onesided_summary.json").read_text())
            assert [c["n"] for c in doc["certificates"]] == [8, 5]


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

    def test_config_range_list_prints_the_rows_of_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n_range": [3, 5]}))
        rows = []
        for name, source in (("config", ["--config", str(cfg)]), ("flag", ["--n-range", "3:5"])):
            assert main(["converge", "--theta", GOLDEN, *source,
                         "--out-dir", str(tmp_path / name)]) == 0
            rows.append([line for line in capsys.readouterr().out.splitlines()
                         if line.startswith("converge:")])
        assert rows[0] == rows[1] and [r.split()[1] for r in rows[0]] == ["n=3", "n=4", "n=5"]

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
        bad_row = ConvergenceRow(n=3, q_prev=2, q_n=3, epsilon_sharp=1.0,
                                 epsilon_clean=2.0, empirical_dh=10.0,
                                 certified_bound=1.5)
        table = ConvergenceTable(rows=(bad_row,), reference_n=3)
        monkeypatch.setattr(approx, "convergence_study", lambda *a, **k: table)
        code = main(["converge", "--theta", GOLDEN, "--n-range", "3:3",
                     "--out-dir", str(tmp_path)])
        assert code == 5
        err = capsys.readouterr().err
        assert "certificate violation" in err
        # artifacts are still written for post-mortem inspection
        assert (tmp_path / "convergence.csv").exists()
        doc = json.loads((tmp_path / "convergence.json").read_text())
        assert doc["all_verified"] is False

    def test_failed_lapack_eigensolve_exits_4(self, tmp_path, capsys, monkeypatch):
        failing = SimpleNamespace(zhbevd=lambda ab, **kwargs: (np.zeros(ab.shape[1]), None, 1))
        monkeypatch.setattr(spectral, "_lapack", lambda: failing)
        code = main(["converge", "--theta", GOLDEN, "--n-range", "3:3",
                     "--out-dir", str(tmp_path)])
        assert code == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "zhbevd returned info=1" in err

    def test_numerical_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def boom(*a, **k):
            raise ConvergenceFailure("eigensolver stalled")
        monkeypatch.setattr(approx, "convergence_study", boom)
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

    @pytest.mark.parametrize("text", [
        b'{"terms": 1' + b"0" * 4300 + b"}",   # one digit past the int digit limit
        b"[" * 100_000 + b"]" * 100_000,       # past the recursion limit
        b'{"theta": "\xe9"}',                  # Latin-1, not UTF-8
    ], ids=["digits", "nesting", "encoding"])
    def test_undecodable_json_exits_3_on_one_line(self, tmp_path, capsys, digit_limit, text):
        doc, out = tmp_path / "doc.json", tmp_path / "out"
        doc.write_bytes(text)
        sources = [(["--config", str(doc)], f"error: cannot read config {doc}: "),
                   (["--spec-file", str(doc)], "error: cannot read spec file: ")]
        if text.isascii():
            sources.append((["--spec", text.decode()], "error: --spec is not valid JSON: "))
        for source, prefix in sources:
            assert main(["spectrum", "--theta", GOLDEN, *source, "--out-dir", str(out)]) == 3
            std = capsys.readouterr()
            assert std.err.startswith(prefix) and std.err.count("\n") == 1 and std.out == ""
        assert not out.exists()

    def test_config_int_past_the_float_range_exits_3(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.json", tmp_path / "out"
        big = 10 ** 400  # float() of it raised OverflowError (exit 1)
        for argv, wrong, kind in (
                (["pseudospectrum"], {"epsilon": big}, "a number"),
                (["pseudospectrum", "--epsilon", "0.5"], {"region": [0, big, 0, 1]},
                 "a list of four numbers"),
                (["onesided", "--n-list", "5", "--spec", U2V_JSON], {"region": [0, 1, -big, 1]},
                 "a list of four numbers")):
            cfg.write_text(json.dumps(wrong))
            assert main([*argv, "--theta", GOLDEN, "--config", str(cfg),
                         "--out-dir", str(out)]) == 3
            key = next(iter(wrong))
            assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be {kind}")
        assert not out.exists()

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
        assert main(["butterfly", "--q-max", "1", "--spec", "[1, 2]",
                     "--out-dir", str(tmp_path)]) == 3
        assert "operator spec must be a JSON object" in capsys.readouterr().err
        assert main(["butterfly", "--q-max", "1",
                     "--spec-file", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 3
        capsys.readouterr()

    @pytest.mark.parametrize("doc, message", [
        ('{"terms": [{"u": 1, "v": 0}]}', '"terms"[0] lacks the key \'re\''),
        ('{"terms": [5]}', '"terms"[0] must be a JSON object'),
        ('{"terms": 3}', '"terms" must be a JSON list'),
        ('{"canonical": {"a+": [1]}}', '"canonical" "a+" must be a pair'),
        ('{"canonical": []}', '"canonical" must be a JSON object'),
        ('{"terms": [{"u": 1.5, "v": 0, "re": 1}]}', '"terms"[0]: "u" must be a JSON integer'),
        ('{"terms": [{"u": 1, "v": true, "re": 1}]}', '"terms"[0]: "v" must be a JSON integer'),
        ('{"terms": [{"u": 1, "v": 0, "re": true}]}', '"terms"[0]: "re" must be a JSON number'),
        ('{"terms": [{"u": 1, "v": 0, "re": 1, "im": "0"}]}', '"im" must be a JSON number'),
        ('{"terms": [{"u": 1, "v": 0, "re": 1e400}]}', "must be finite"),
        ('{"terms": [{"u": 1, "v": 0, "re": 1' + "0" * 400 + '}]}', "outside the float range"),
        # |c| alone past the float range: abs(c) raised OverflowError (exit 1)
        ('{"terms": [{"u": 1, "v": 1, "re": 1.5e308, "im": 1.5e308}]}',
         "sum |c| = inf of the spec is outside the float range"),
        ('{"canonical": {"a+": [1e308, 1e308], "a-": [1e308, -1e308]}}',
         "sum |c| = inf of the spec is outside the float range"),
        ('{"terms": [{"u": 1, "v": 0, "re": 1, "w": 2}]}', "\"terms\"[0] has unknown keys ['w']"),
        ('{"canonical": {"zz": [1, 0]}}', "\"canonical\" has unknown keys ['zz']"),
        ('{"canonical": {"a+": [1, false]}}', '"canonical" "a+" must be a JSON number'),
        ('{"canonical": {}, "scale": 2}', "operator spec has unknown keys ['scale']"),
        ('{}', 'needs "terms" or "canonical"'),
    ])
    def test_malformed_spec_exits_3_before_any_file(self, tmp_path, capsys, doc, message):
        with pytest.raises(InvalidInput) as refusal:
            OperatorSpec.from_json(json.loads(doc))
        assert message in str(refusal.value)
        spec_file, cfg, out = tmp_path / "spec.json", tmp_path / "run.json", tmp_path / "out"
        spec_file.write_text(doc)
        cfg.write_text(f'{{"spec": {doc}}}')
        for source in (["--spec", doc], ["--spec-file", str(spec_file)], ["--config", str(cfg)]):
            assert main(["spectrum", "--theta", GOLDEN, *source, "--out-dir", str(out)]) == 3
            assert message in capsys.readouterr().err
        assert not out.exists()

    def test_mutually_exclusive_spec_flags(self, tmp_path, capsys):
        code = main(["butterfly", "--q-max", "1", "--spec", "{}",
                     "--spec-file", "x.json", "--out-dir", str(tmp_path)])
        assert code == 2
        capsys.readouterr()

    def test_no_or_unknown_subcommand(self, capsys):
        assert main([]) == 2
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestReportSchema:
    """The keys of every JSON report, in order, for a canonical spec and a
    general one: a field moved between a record and its to_json cannot
    drop or rename a key unseen."""

    TERM = ["u", "v", "re", "im"]
    SANDWICH = ["theta", "spec", "n", "q_pair", "epsilon", "epsilon_n", "epsilon_sharp",
                "epsilon_clean", "certified", "rate", "mode", "caveat", "region", "resolution",
                "inner_count", "outer_count", "inclusion_verified", "grid_fingerprints"]
    SPECTRUM = ["theta", "spec", "n", "q_pair", "epsilon_sharp", "epsilon_clean", "mode"]
    CONVERGENCE = ["theta", "spec", "reference_n", "all_verified", "rows"]
    ROW = ["n", "q_prev", "q_n", "epsilon_sharp", "epsilon_clean", "empirical_dH",
           "certified_bound", "within_bound"]
    ONESIDED = ["theta", "spec", "n", "p", "radius", "wrapped", "tie_broken", "caveat", "kind"]
    GENERAL_JSON = '{"terms": [{"u": 1, "v": 1, "re": 1}]}'

    def report(self, tmp_path, name, args, spec=None, theta=GOLDEN):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        spec_args = ["--spec", spec] if spec else []
        assert main([*args, "--theta", theta, *spec_args, "--out-dir", str(out),
                     "--format", "json"]) == 0
        return json.loads((out / name).read_text())

    def check_spec(self, doc, canonical):
        assert list(doc) == (["terms", "canonical"] if canonical else ["terms"])
        assert all(list(term) == self.TERM for term in doc["terms"])
        if canonical:
            assert list(doc["canonical"]) == ["a+", "a-", "b+", "b-"]

    def test_canonical_reports(self, tmp_path, capsys):
        doc = self.report(tmp_path, "spectrum_certificate.json", ["spectrum", "--level", "4"])
        assert list(doc) == self.SPECTRUM + ["cloud"]
        self.check_spec(doc["spec"], canonical=True)
        doc = self.report(tmp_path, "spectrum_certificate.json", ["spectrum", "--level", "4"],
                          theta="decimal:0.6180339887498948")
        assert list(doc) == self.SPECTRUM + ["caveat", "cloud"]
        doc = self.report(tmp_path, "convergence.json", ["converge", "--n-range", "3:5"])
        assert list(doc) == self.CONVERGENCE
        assert all(list(row) == self.ROW for row in doc["rows"])
        self.check_spec(doc["spec"], canonical=True)
        grid = ["--resolution", "4", "4", "--region", "-4", "4", "-4", "4"]
        for spec, extra in ((None, ["points"]), (U2V_JSON, ["region", "resolution"])):
            doc = self.report(tmp_path, "onesided_summary.json",
                              ["onesided", "--n-list", "10", *grid], spec)
            assert list(doc) == ["certificates"]
            assert list(doc["certificates"][0]) == self.ONESIDED + extra
            self.check_spec(doc["certificates"][0]["spec"], canonical=True)
            doc = self.report(tmp_path, "sandwich_report.json",
                              ["pseudospectrum", "--level", "4", "--epsilon", "0.5", *grid], spec)
            assert list(doc) == self.SANDWICH
            self.check_spec(doc["spec"], canonical=True)
        capsys.readouterr()

    def test_general_reports(self, tmp_path, capsys):
        doc = self.report(tmp_path, "sandwich_report.json",
                          ["pseudospectrum", "--level", "4", "--epsilon", "0.5",
                           "--resolution", "4", "4"], self.GENERAL_JSON)
        assert list(doc) == self.SANDWICH
        self.check_spec(doc["spec"], canonical=False)
        # the other reports are certified for canonical specs only
        for args in (["spectrum"], ["converge", "--n-range", "3:5"], ["onesided", "--n-list", "10"]):
            assert main([*args, "--theta", GOLDEN, "--spec", self.GENERAL_JSON,
                         "--out-dir", str(tmp_path / "refused")]) == 3
        assert not (tmp_path / "refused").exists()
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


class TestTracedRun:
    """bench/traced_cli.py records a span around each call into a layer:
    every model eigensolve of a run is one spectral.eig span."""

    ROOT = Path(__file__).resolve().parents[1]

    def eig_orders(self, tmp_path, argv) -> list[int]:
        spans = tmp_path / "spans.json"
        proc = subprocess.run(
            [sys.executable, str(self.ROOT / "bench" / "traced_cli.py"), str(spans), *argv,
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(self.ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        return sorted(s["q"] for s in json.loads(spans.read_text()) if s["name"] == "spectral.eig")

    def test_class_i_spectrum_records_both_models(self, tmp_path):
        argv = ["spectrum", "--theta", GOLDEN, "--level", "9",
                "--spec", '{"canonical": {"a+": [1, 0], "a-": [2, 0]}}']
        assert self.eig_orders(tmp_path, argv) == [34, 55]

    def test_converge_records_each_order_once(self, tmp_path):
        argv = ["converge", "--theta", GOLDEN, "--n-range", "3:8"]
        assert self.eig_orders(tmp_path, argv) == [2, 3, 5, 8, 13, 21, 34]


class TestLazyScipy:
    """No route imports scipy.linalg, and LAPACK, scipy's extension module
    scipy.linalg._flapack, is loaded only by the routes that call it. Each
    check runs in a fresh interpreter, because this test process may
    have scipy.linalg loaded."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("argv, loaded", [
        (None, False),  # import and build the parser only
        (["expand", "--theta", GOLDEN, "--terms", "6"], False),
        (["pseudospectrum", "--theta", GOLDEN, "--spec", U2V_JSON, "--level", "3",
          "--epsilon", "0.5", "--resolution", "6", "5"], False),
        (["pseudospectrum", "--theta", GOLDEN, "--spec", U2V_JSON, "--level", "11",
          "--epsilon", "0.5", "--resolution", "4", "3"], False),  # banded route, q = 89, 144
        (["pseudospectrum", "--theta", GOLDEN, "--level", "5",
          "--epsilon", "0.5", "--resolution", "4", "3"], True),  # distance route, Hermitian
        (["spectrum", "--theta", GOLDEN], True),
        (["converge", "--theta", GOLDEN, "--n-range", "3:6"], True),
    ], ids=["parser", "expand", "pseudospectrum", "pseudospectrum-banded",
            "pseudospectrum-distances", "spectrum", "converge"])
    def test_scipy_loaded_only_where_called(self, tmp_path, argv, loaded):
        if argv is not None and argv[0] != "expand":  # expand writes no files
            argv = argv + ["--out-dir", str(tmp_path)]
        run = "cli.build_parser()" if argv is None else f"assert cli.main({argv!r}) == 0"
        code = (f"import sys\nimport rotspec.cli as cli\n{run}\n"
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(self.SRC)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == str(["scipy.linalg._flapack"] if loaded else [])


class TestLazyNumpy:
    """Importing rotspec and rotspec.cli loads no numpy, and neither do
    the parser, --help, expand or a usage error raised before a spec is
    read; the first command that computes loads it. Each check runs in a
    fresh interpreter, because this test process has numpy loaded."""

    SRC = Path(__file__).resolve().parents[1] / "src"
    NUMERIC = ("rotspec.matmodel", "rotspec.spectral", "rotspec.pseudospectra",
               "rotspec.approx")

    def run(self, body: str) -> list[str]:
        code = f"import sys\nimport rotspec.cli as cli\n{body}\n"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(self.SRC)})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    @pytest.mark.parametrize("argv, code, loaded", [
        (None, 0, False),  # import and build the parser only
        (["--help"], 0, False),
        (["expand", "--theta", GOLDEN, "--terms", "6"], 0, False),
        (["expand", "--terms", "6"], 2, False),  # --theta missing
        (["spectrum", "--level", "3"], 2, False),  # --theta missing, found before the spec
        (["spectrum", "--theta", GOLDEN, "--level", "3"], 0, True),
        (["pseudospectrum", "--theta", GOLDEN, "--spec", U2V_JSON, "--level", "3",
          "--epsilon", "0.5", "--resolution", "6", "5"], 0, True),
    ], ids=["parser", "help", "expand", "expand-usage-error", "spectrum-usage-error",
            "spectrum", "pseudospectrum"])
    def test_numpy_loaded_only_where_computed(self, tmp_path, argv, code, loaded):
        if argv is not None and argv[0] in ("spectrum", "pseudospectrum"):
            argv = argv + ["--out-dir", str(tmp_path)]
        run = "cli.build_parser()" if argv is None else f"assert cli.main({argv!r}) == {code}"
        assert self.run(f"{run}\nprint('numpy' in sys.modules)")[-1] == str(loaded)

    def test_numeric_modules_are_registered_unloaded(self):
        # a traced run finds the numeric modules in sys.modules before main
        # runs; reading an attribute of one loads it, and numpy with it
        names = ", ".join(map(repr, self.NUMERIC))
        assert self.run(f"print(all(m in sys.modules for m in ({names})), 'numpy' in sys.modules)\n"
                        "sys.modules['rotspec.approx'].MAX_Q\n"
                        "print('numpy' in sys.modules)") == ["True False", "True"]

    def test_expand_prints_the_same_with_numpy_blocked(self):
        run = f"assert cli.main(['expand', '--theta', {GOLDEN!r}, '--terms', '8']) == 0"
        lines = self.run(run)
        assert len(lines) == 13 and self.run(f"sys.modules['numpy'] = None\n{run}") == lines


_EXPORTS = {
    "contfrac": ("ContinuedFractionExpansion", "GapBound", "Theta", "convergent_gap", "expand",
                 "parse_theta", "round_nearest", "tail_constant_enclosure"),
    "errors": ("CertificateViolation", "ConvergenceFailure", "EmptyCloud", "EmptySpec",
               "IndexOutOfRange", "InvalidInput", "InvalidOrder", "ModelsNotNormal",
               "NonCanonicalSpec", "NotHermitian", "PrecisionExhausted",
               "ResourceBudgetExceeded", "RotspecError", "ThetaRational"),
    "matmodel": ("MatrixModel", "OperatorSpec", "build_operator", "spec_norm_bound"),
    "spectral": ("hermitian_eigenvalues", "normal_eigenvalues"),
    "pseudospectra": ("PseudospectrumGrid", "SandwichReport", "cloud_to_csv", "compute_grid",
                      "grid_to_csv", "grid_to_pgm", "level_set", "sandwich_check"),
    "approx": ("ApproximationCertificate", "ConvergenceTable", "OneSidedCertificate",
               "PseudospectrumSandwich", "certify_normal", "certify_pseudospectrum",
               "clean_bound", "constant_audit", "convergence_study", "hausdorff_distance",
               "one_sided", "one_sided_contains", "sharp_bound"),
}


def test_every_export_resolves_and_is_listed():
    import rotspec

    listed = dir(rotspec)
    names = [(module, name) for module, names in _EXPORTS.items() for name in names]
    assert len(names) == 49
    for module, name in names:
        assert getattr(rotspec, name) is getattr(getattr(rotspec, module), name), name
        assert name in listed, name
    # a star import brings exactly the 49 names, lazy ones included
    star = {}
    exec("from rotspec import *", star)
    del star["__builtins__"]
    assert star == {name: getattr(rotspec, name) for _, name in names}
    with pytest.raises(AttributeError, match="no attribute 'spectral_radius'"):
        rotspec.spectral_radius


class TestLazyStdlib:
    """hashlib loads OpenSSL's libcrypto, which no command loads: the
    sandwich report's fingerprints use CPython's built-in SHA-256.
    concurrent.futures loads queue and logging, and no command loads it:
    every grid runs in one thread at any --jobs. Each check runs in a
    fresh interpreter."""

    SRC = Path(__file__).resolve().parents[1] / "src"
    LOADED = "print(sorted(m for m in ('_hashlib', 'concurrent.futures') if m in sys.modules))\n"

    def run(self, body: str) -> list[str]:
        code = f"import sys\nimport rotspec.cli as cli\n{self.LOADED}{body}"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, env={**os.environ, "PYTHONPATH": str(self.SRC)})
        assert proc.returncode == 0, proc.stderr
        return [line for line in proc.stdout.splitlines() if line.startswith("[")]

    def test_import_and_converge_load_neither(self, tmp_path):
        argv = ["converge", "--theta", GOLDEN, "--n-range", "3:5", "--out-dir", str(tmp_path)]
        assert self.run(f"assert cli.main({argv!r}) == 0\n{self.LOADED}") == ["[]", "[]"]

    def test_jobs_2_loads_no_pool_and_writes_the_bytes_of_jobs_1(self, tmp_path):
        # 64 x 40 points at q = 3 and 5 make two chunks of the band route
        base = ["pseudospectrum", "--theta", GOLDEN, "--spec", U2V_JSON, "--level", "4",
                "--epsilon", "0.5", "--resolution", "64", "40",
                "--format", "csv", "--format", "json", "--format", "pgm"]
        runs = [base + ["--jobs", str(jobs), "--out-dir", str(tmp_path / str(jobs))]
                for jobs in (1, 2)]
        body = "".join(f"assert cli.main({argv!r}) == 0\n{self.LOADED}" for argv in runs)
        assert self.run(body) == ["[]", "[]", "[]"]
        one, two = (sorted((tmp_path / str(jobs)).iterdir()) for jobs in (1, 2))
        assert [p.name for p in one] == [p.name for p in two] and len(one) == 5
        for a, b in zip(one, two):
            assert a.read_bytes() == b.read_bytes(), a.name
