"""Output checks for one benchmark run of the rotspec CLI.

A run passes when:

* its certificate flags are true (``all_verified`` and every
  ``within_bound`` on the ladder, ``certified`` and ``inclusion_verified``
  on a grid);
* at seed 0, its exact fields (orders, radii, ``epsilon_n``) equal the
  stored reference and its numbers agree with the reference within the
  oracle tolerances of the test suite: 1e-10 absolute for anything
  computed from eigenvalues, 1e-9 relative for ``sigma_min``. Mask counts
  may differ only by points that lie within that tolerance of a level;
* a few eigenvalue and grid values, drawn by seed, agree with
  ``numpy.linalg.eigvalsh`` and ``numpy.linalg.svd`` applied to the
  ``build_operator`` matrices (this works for any seed).

Byte identity between repeated runs of one set is checked by run.py.
Numbers are never compared as bytes here, so a kernel that only changes
the last bits still passes.

Usage:
    python3 bench/check.py check WORKLOAD SEED OUT_DIR
        prints the problems found as a JSON list (empty when it passes)
    python3 bench/check.py write-reference WORKLOAD OUT_DIR
        stores the seed-0 reference from the artifacts of a seed-0 run
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import numpy as np

from workloads import GRID_SIZES, LADDER_LEVELS, WORKLOADS, Workload, spec_json

BENCH = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH / "reference"
EIG_ATOL = 1e-10
SIGMA_RTOL = 1e-9
WIDE_STRIDE = 16  # grid_wide keeps every 16th point of each grid as reference
SPOT_POINTS = 6
SPOT_LEVELS = 2


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def read_grid(path: Path) -> np.ndarray:
    """(points, 3) array of re, im, sigma_min rows of a grid CSV."""
    text = path.read_text(encoding="ascii")
    header, _, body = text.partition("\n")
    if header != "re,im,sigma_min":
        raise ValueError(f"{path.name}: unexpected header {header!r}")
    flat = np.array(body.replace("\n", ",").rstrip(",").split(","), dtype=np.float64)
    return flat.reshape(-1, 3)


def read_pgm(path: Path) -> tuple[int, int, np.ndarray]:
    data = path.read_bytes()
    magic, dims, maxval, pixels = data.split(b"\n", 3)
    if magic != b"P5" or maxval != b"65535":
        raise ValueError(f"{path.name}: not a 16-bit P5 graymap")
    nx, ny = (int(x) for x in dims.split())
    return nx, ny, np.frombuffer(pixels, dtype=">u2").reshape(ny, nx)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def golden_convergent(k: int) -> tuple[int, int]:
    """p_k/q_k of the golden parameter: F_k / F_(k+1)."""
    a, b = 1, 1  # F_1, F_2
    for _ in range(k - 1):
        a, b = b, a + b
    return a, b


def model(workload: Workload, seed: int, k: int) -> np.ndarray:
    """Dense matrix of the workload's operator at convergent k."""
    from rotspec.matmodel import OperatorSpec, build_operator

    text = spec_json(workload, seed)
    spec = (OperatorSpec.canonical(1, 1, 1, 1) if text is None
            else OperatorSpec.from_json(json.loads(text)))
    p, q = golden_convergent(k)
    return np.array(build_operator(spec, p % q, q).entries)


def real_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance of two sorted real point sets."""
    def directed(p, q):
        idx = np.clip(np.searchsorted(q, p), 1, len(q) - 1)
        return float(np.max(np.minimum(np.abs(p - q[idx - 1]), np.abs(p - q[idx]))))
    return max(directed(a, b), directed(b, a))


def ladder_cloud(workload: Workload, seed: int, n: int) -> np.ndarray:
    return np.sort(np.concatenate([
        np.linalg.eigvalsh(model(workload, seed, n - 1)),
        np.linalg.eigvalsh(model(workload, seed, n)),
    ]))


# ---------------------------------------------------------------------------
# per-workload checks; each returns a list of problems
# ---------------------------------------------------------------------------

def _close(a: float, b: float, atol: float = 0.0, rtol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def check_ladder(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    problems = []
    doc = json.loads((out_dir / "convergence.json").read_text(encoding="utf-8"))
    rows = doc["rows"]
    lo, hi = LADDER_LEVELS
    if doc.get("all_verified") is not True:
        problems.append("all_verified is not true")
    if [r["n"] for r in rows] != list(range(lo, hi + 1)):
        problems.append("convergence rows do not cover the level range")
        return problems
    for r in rows:
        if r["within_bound"] is not True:
            problems.append(f"n={r['n']}: within_bound is not true")
        if (r["q_prev"], r["q_n"]) != (golden_convergent(r["n"] - 1)[1],
                                       golden_convergent(r["n"])[1]):
            problems.append(f"n={r['n']}: orders {r['q_prev']},{r['q_n']} are wrong")

    csv_rows = (out_dir / "convergence.csv").read_text(encoding="ascii").splitlines()[1:]
    for line, r in zip(csv_rows, rows):
        fields = [float(x) for x in line.split(",")]
        if fields != [r["n"], r["q_prev"], r["q_n"], r["epsilon_sharp"],
                      r["epsilon_clean"], r["empirical_dH"]]:
            problems.append(f"n={r['n']}: CSV row disagrees with the JSON row")

    if seed == 0:
        ref = json.loads((REFERENCE_DIR / "ladder.json").read_text(encoding="utf-8"))
        for r, e in zip(rows, ref["rows"]):
            for key in ("q_prev", "q_n", "epsilon_sharp", "epsilon_clean",
                        "certified_bound"):
                if r[key] != e[key]:
                    problems.append(f"n={r['n']}: {key} {r[key]!r} != reference {e[key]!r}")
            if not _close(r["empirical_dH"], e["empirical_dH"], atol=EIG_ATOL):
                problems.append(f"n={r['n']}: empirical_dH {r['empirical_dH']!r} "
                                f"!= reference {e['empirical_dH']!r}")

    # oracle: recompute dH at a few levels against the deepest cloud
    rng = random.Random(seed)
    reference_cloud = ladder_cloud(workload, seed, hi)
    for n in sorted(rng.sample(range(lo, hi - 2), SPOT_LEVELS)) + [hi - 1]:
        oracle = real_hausdorff(ladder_cloud(workload, seed, n), reference_cloud)
        got = rows[n - lo]["empirical_dH"]
        if not _close(got, oracle, atol=EIG_ATOL):
            problems.append(f"n={n}: empirical_dH {got!r} != eigvalsh oracle {oracle!r}")
    return problems


def _grid_report_checks(workload: Workload, report: dict) -> list[str]:
    problems = []
    for flag in ("certified", "inclusion_verified"):
        if report.get(flag) is not True:
            problems.append(f"{flag} is not true")
    level = int(workload.argv[workload.argv.index("--level") + 1])
    expect = [golden_convergent(level - 1)[1], golden_convergent(level)[1]]
    if report["q_pair"] != expect:
        problems.append(f"q_pair {report['q_pair']} != {expect}")
    if report["resolution"] != list(GRID_SIZES[workload.name]):
        problems.append(f"resolution {report['resolution']} is wrong")
    return problems


def _near(sig: np.ndarray, level: float) -> np.ndarray:
    return np.abs(sig - level) <= SIGMA_RTOL * np.maximum(np.abs(sig), level)


def check_grid(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    report = json.loads((out_dir / "sandwich_report.json").read_text(encoding="utf-8"))
    problems = _grid_report_checks(workload, report)
    nx, ny = GRID_SIZES[workload.name]
    eps = report["epsilon"]
    outer_level = eps + 2 * report["epsilon_n"]
    re_ax = np.linspace(report["region"][0], report["region"][1], nx)
    im_ax = np.linspace(report["region"][2], report["region"][3], ny)
    grids = {}
    for which in ("prev", "curr"):
        rows = read_grid(out_dir / f"grid_{which}.csv")
        if rows.shape != (nx * ny, 3):
            problems.append(f"grid_{which}.csv has {rows.shape[0]} rows, want {nx * ny}")
            return problems
        if (np.max(np.abs(rows[:, 0] - np.repeat(re_ax, ny))) > 1e-12
                or np.max(np.abs(rows[:, 1] - np.tile(im_ax, nx))) > 1e-12):
            problems.append(f"grid_{which}.csv lambda columns are off the grid")
        sig = rows[:, 2]
        grids[which] = sig
        px, py, gray = read_pgm(out_dir / f"grid_{which}.pgm")
        with np.errstate(divide="ignore"):
            logs = np.clip(np.log10(sig.reshape(nx, ny)), -8.0, 2.0)
        expect = np.rint((logs + 8.0) / 10.0 * 65535.0).T[::-1, :]
        if (px, py) != (nx, ny) or np.max(np.abs(gray - expect)) > 1:
            problems.append(f"grid_{which}.pgm does not match grid_{which}.csv")

        # oracle spot check on seeded points
        a = model(workload, seed, report["n"] - (which == "prev"))
        eye = np.eye(a.shape[0])
        rng = random.Random(f"{seed}-{which}")
        for idx in rng.sample(range(nx * ny), SPOT_POINTS):
            lam = complex(rows[idx, 0], rows[idx, 1])
            oracle = float(np.linalg.svd(lam * eye - a, compute_uv=False)[-1])
            if not _close(sig[idx], oracle, rtol=SIGMA_RTOL):
                problems.append(f"grid_{which} at {lam}: sigma_min {sig[idx]!r} "
                                f"!= svd oracle {oracle!r}")

    inner = (grids["prev"] <= eps) | (grids["curr"] <= eps)
    outer = (grids["prev"] <= outer_level) | (grids["curr"] <= outer_level)
    if int(inner.sum()) != report["inner_count"] or int(outer.sum()) != report["outer_count"]:
        problems.append("mask counts in the report disagree with the grids")

    if seed == 0:
        ref = json.loads((REFERENCE_DIR / f"{workload.name}.json").read_text(encoding="utf-8"))
        for key in ("q_pair", "epsilon", "epsilon_n", "epsilon_sharp", "epsilon_clean",
                    "region", "resolution"):
            if report[key] != ref[key]:
                problems.append(f"{key} {report[key]!r} != reference {ref[key]!r}")
        with np.load(REFERENCE_DIR / f"{workload.name}.npz") as stored:
            stride = int(stored["stride"])
            for which in ("prev", "curr"):
                got, want = grids[which][::stride], stored[which]
                bad = np.abs(got - want) > SIGMA_RTOL * np.maximum(np.abs(got), np.abs(want))
                if got.shape != want.shape or bad.any():
                    problems.append(f"grid_{which}: {int(np.count_nonzero(bad))} sigma_min "
                                    "values differ from the reference")
        for key, level in (("inner_count", eps), ("outer_count", outer_level)):
            slack = int(np.count_nonzero(_near(grids["prev"], level)
                                         | _near(grids["curr"], level)))
            if abs(report[key] - ref[key]) > slack:
                problems.append(f"{key} {report[key]} != reference {ref[key]} "
                                f"beyond {slack} boundary points")
    return problems


def check_outputs(workload: Workload, seed: int, out_dir: Path) -> list[str]:
    """All content checks of one run's artifacts; empty when it passes."""
    try:
        if workload.kind == "ladder":
            return check_ladder(workload, seed, out_dir)
        return check_grid(workload, seed, out_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable artifacts: {type(exc).__name__}: {exc}"]


# ---------------------------------------------------------------------------
# reference writer
# ---------------------------------------------------------------------------

def write_reference(workload: Workload, out_dir: Path) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    if workload.kind == "ladder":
        doc = json.loads((out_dir / "convergence.json").read_text(encoding="utf-8"))
        keep = {"rows": doc["rows"]}
    else:
        report = json.loads((out_dir / "sandwich_report.json").read_text(encoding="utf-8"))
        keep = {k: report[k] for k in ("q_pair", "epsilon", "epsilon_n", "epsilon_sharp",
                                       "epsilon_clean", "region", "resolution",
                                       "inner_count", "outer_count")}
        stride = WIDE_STRIDE if workload.name == "grid_wide" else 1
        np.savez_compressed(
            REFERENCE_DIR / f"{workload.name}.npz", stride=np.array(stride),
            **{w: read_grid(out_dir / f"grid_{w}.csv")[::stride, 2] for w in ("prev", "curr")},
        )
    (REFERENCE_DIR / f"{workload.name}.json").write_text(
        json.dumps(keep, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    if len(argv) == 4 and argv[0] == "check":
        problems = check_outputs(WORKLOADS[argv[1]], int(argv[2]), Path(argv[3]))
        print(json.dumps(problems))
        return 0
    if len(argv) == 3 and argv[0] == "write-reference":
        write_reference(WORKLOADS[argv[1]], Path(argv[2]))
        return 0
    print(__doc__[__doc__.index("Usage:"):], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
