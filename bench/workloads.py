"""The three rotspec CLI workloads and their seeded operator specs.

Every workload uses the golden rotation parameter. Seed 0 reproduces the
reference commands exactly; any other seed draws unit-modulus phases for
the nonzero coefficients of the operator, so matrix orders, grid sizes
and coefficient moduli stay fixed while the matrices change. The CLI only
ever sees the generated ``--spec``.
"""

from __future__ import annotations

import cmath
import json
import random
from dataclasses import dataclass

THETA = "surd:(-1+1*sqrt(5))/2"
GRID_REGION = ("-4", "4", "-4", "4")
GRID_EPSILON = "0.5"
GRID_FORMATS = ("--format", "csv", "--format", "json", "--format", "pgm")
LADDER_LEVELS = (3, 15)
GRID_SIZES = {"grid_deep": (12, 12), "grid_wide": (256, 256)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "ladder" (converge) or "grid" (pseudospectrum)
    argv: tuple[str, ...]  # CLI arguments without --spec and --out-dir
    artifacts: tuple[str, ...]
    orders: tuple[int, ...]  # matrix orders the run solves


WORKLOADS = {
    "ladder": Workload(
        name="ladder",
        why="converge 3:15 on hermitian U+U*+V+V*: dense eigensolves up to "
            "q=987 and Hausdorff distances, no grid work",
        kind="ladder",
        argv=("converge", "--theta", THETA,
              "--n-range", f"{LADDER_LEVELS[0]}:{LADDER_LEVELS[1]}"),
        artifacts=("convergence.csv", "convergence.json"),
        orders=(2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987),
    ),
    "grid_deep": Workload(
        name="grid_deep",
        why="pseudospectrum level 11 of U+2V on a 12x12 grid, jobs 1: "
            "few sigma_min solves at q=89 (batched SVD) and q=144 (inverse iteration)",
        kind="grid",
        argv=("pseudospectrum", "--theta", THETA, "--level", "11",
              "--epsilon", GRID_EPSILON, "--region", *GRID_REGION,
              "--resolution", *map(str, GRID_SIZES["grid_deep"]),
              *GRID_FORMATS, "--jobs", "1"),
        artifacts=("grid_prev.csv", "grid_curr.csv", "grid_prev.pgm",
                   "grid_curr.pgm", "sandwich_report.json"),
        orders=(89, 144),
    ),
    "grid_wide": Workload(
        name="grid_wide",
        why="pseudospectrum level 5 of U+2V on a 256x256 grid, jobs 1: "
            "131072 tiny batched sigma_min solves at q=5 and 8 plus large CSV output",
        kind="grid",
        argv=("pseudospectrum", "--theta", THETA, "--level", "5",
              "--epsilon", GRID_EPSILON, "--region", *GRID_REGION,
              "--resolution", *map(str, GRID_SIZES["grid_wide"]),
              *GRID_FORMATS, "--jobs", "1"),
        artifacts=("grid_prev.csv", "grid_curr.csv", "grid_prev.pgm",
                   "grid_curr.pgm", "sandwich_report.json"),
        orders=(5, 8),
    ),
}


def _phase(rng: random.Random) -> complex:
    return cmath.exp(2j * cmath.pi * rng.random())


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def spec_json(workload: Workload, seed: int) -> str | None:
    """The ``--spec`` text for a seed, or None for the CLI default.

    The ladder keeps alpha_- = conj(alpha_+) and beta_- = conj(beta_+) so
    its operator stays hermitian; the grid workloads use alpha_+ U +
    beta_+ V with |alpha_+| = 1 and |beta_+| = 2.
    """
    if workload.kind == "ladder":
        if seed == 0:
            return None  # the CLI default U + U* + V + V*
        rng = random.Random(seed)
        a, b = _phase(rng), _phase(rng)
        doc = {"a+": _pair(a), "a-": _pair(a.conjugate()),
               "b+": _pair(b), "b-": _pair(b.conjugate())}
    else:
        if seed == 0:
            a, b = 1 + 0j, 2 + 0j
        else:
            rng = random.Random(seed)
            a, b = _phase(rng), 2 * _phase(rng)
        doc = {"a+": _pair(a), "b+": _pair(b)}
    return json.dumps({"canonical": doc})


def cli_args(workload: Workload, seed: int) -> list[str]:
    spec = spec_json(workload, seed)
    return list(workload.argv) + ([] if spec is None else ["--spec", spec])


def work_units(workload: Workload) -> int:
    """Certified units per run: eigenvalues sum(q_(n-1) + q_n) on the
    ladder, sigma_min evaluations 2*nx*ny on a grid."""
    if workload.kind == "ladder":
        lo, hi = LADDER_LEVELS
        q = workload.orders  # q_k = q[k - 2] for k = 2 .. hi, golden theta
        return sum(q[n - 3] + q[n - 2] for n in range(lo, hi + 1))
    nx, ny = GRID_SIZES[workload.name]
    return 2 * nx * ny
