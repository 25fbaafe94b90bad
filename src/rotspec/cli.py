"""Command-line entry point.

Subcommands mirror the library pipeline: `expand` prints the convergent
table, `spectrum` and `pseudospectrum` emit certified approximations at
a chosen level, `butterfly` sweeps rational parameters, `onesided`
computes sqrt(n)-rate single-model certificates, and `converge` runs a
ladder of levels and cross-checks the empirical Hausdorff distances
against the certified radii.

Deterministic batch semantics: fixed inputs produce byte-identical
outputs at any --jobs setting. Exit codes: 0 success, 2 usage, 3 invalid
or insufficient input, 4 numerical failure, 5 certificate violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .approx import (
    MAX_Q,
    certify_normal,
    certify_pseudospectrum,
    convergence_study,
    one_sided,
)
from .contfrac import convergent_gap, expand, parse_theta
from .errors import (
    CertificateViolation,
    ConvergenceFailure,
    InvalidInput,
    NotHermitian,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    RotspecError,
)
from .matmodel import OperatorSpec, build_operator
from .pseudospectra import (
    GridParams,
    PointCloud,
    cloud_to_csv,
    grid_to_csv,
    grid_to_pgm,
)
from .spectral import hermitian_eigenvalues

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_CERTIFICATE = 5

_DEFAULTS = {
    "out_dir": ".",
    "format": ["csv", "json"],
    "jobs": 1,
    "max_q": MAX_Q,
    "terms": 20,
    "level": 5,
    "resolution": [256, 256],
    "q_max": 50,
}


def _is_str(value) -> bool:
    return isinstance(value, str)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _list_of(item, length: Optional[int] = None):
    return lambda value: (isinstance(value, list)
                          and (length is None or len(value) == length)
                          and all(item(x) for x in value))


# each config key takes the type of its flag (bools are not ints)
_CONFIG_TYPES = {
    "theta": (_is_str, "a string"),
    "spec": (lambda v: isinstance(v, dict), "an object"),
    "out_dir": (_is_str, "a string"),
    "format": (lambda v: _is_str(v) or _list_of(_is_str)(v),
               "a string or a list of strings"),
    "jobs": (_is_int, "an integer"),
    "max_q": (_is_int, "an integer"),
    "terms": (_is_int, "an integer"),
    "level": (_is_int, "an integer"),
    "epsilon": (_is_number, "a number"),
    "region": (_list_of(_is_number, 4), "a list of four numbers"),
    "resolution": (_list_of(_is_int, 2), "a list of two integers"),
    "q_max": (_is_int, "an integer"),
    "n_list": (lambda v: _is_str(v) or _list_of(_is_int)(v),
               "a string or a list of integers"),
    "n_range": (lambda v: _is_str(v) or _list_of(_is_int, 2)(v),
                "a string a:b or a list of two integers"),
}

_FORMATS = ("csv", "json", "pgm")


class _UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# 17-significant-digit JSON
# ---------------------------------------------------------------------------

def dumps_17g(obj, indent: int = 0) -> str:
    """JSON text with every float printed via %.17g so values round-trip
    exactly through the text form."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {dumps_17g(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = [f"{pad}  {dumps_17g(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise InvalidInput(f"non-finite value {x} in JSON output")
        return format(x, ".17g")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# option resolution: flags > config file > defaults
# ---------------------------------------------------------------------------

def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInput(f"cannot read config {path}: {exc}")
    if not isinstance(doc, dict):
        raise InvalidInput("config must be a JSON object")
    unknown = sorted(set(doc) - set(_CONFIG_TYPES))
    if unknown:
        raise InvalidInput(f"unknown config keys: {unknown}")
    for key, value in doc.items():
        check, kind = _CONFIG_TYPES[key]
        if not check(value):
            raise InvalidInput(f"config key {key!r} must be {kind}, got {value!r}")
    return doc


def _resolve(args: argparse.Namespace, cfg: dict, key: str):
    value = getattr(args, key, None)
    if value is None:
        value = cfg.get(key)
    if value is None:
        value = _DEFAULTS.get(key)
    return value


def _resolve_theta(args, cfg):
    text = _resolve(args, cfg, "theta")
    if not text:
        raise _UsageError("--theta is required (or set \"theta\" in --config)")
    return parse_theta(str(text))


def _resolve_spec(args, cfg) -> OperatorSpec:
    doc = None
    if getattr(args, "spec", None) is not None:
        try:
            doc = json.loads(args.spec)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"--spec is not valid JSON: {exc}")
    elif getattr(args, "spec_file", None) is not None:
        try:
            doc = json.loads(Path(args.spec_file).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInput(f"cannot read spec file: {exc}")
    elif "spec" in cfg:
        doc = cfg["spec"]
    if doc is None:
        return OperatorSpec.canonical(1, 1, 1, 1)
    if not isinstance(doc, dict):
        raise InvalidInput("operator spec JSON must be an object")
    return OperatorSpec.from_json(doc)


def _resolve_formats(args, cfg) -> tuple[str, ...]:
    fmts = _resolve(args, cfg, "format")
    if isinstance(fmts, str):
        fmts = [fmts]
    bad = [f for f in fmts if f not in _FORMATS]
    if bad:
        raise InvalidInput(f"unknown output formats {bad}; choose from {_FORMATS}")
    return tuple(dict.fromkeys(fmts))


def _resolve_grid_params(args, cfg) -> GridParams:
    region = _resolve(args, cfg, "region")
    if region is not None:
        region = tuple(float(x) for x in region)
        if not all(math.isfinite(x) for x in region):
            raise _UsageError(f"--region must be finite, got {region}")
    resolution = tuple(int(x) for x in _resolve(args, cfg, "resolution"))
    jobs = int(_resolve(args, cfg, "jobs"))
    if jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {jobs}")
    return GridParams(region=region, resolution=resolution, jobs=jobs)


def _out_dir(args, cfg) -> Path:
    out = Path(str(_resolve(args, cfg, "out_dir")))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write(path: Path, payload) -> Path:
    if isinstance(payload, bytes):
        path.write_bytes(payload)
    else:
        path.write_text(payload, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_expand(args, cfg) -> int:
    theta = _resolve_theta(args, cfg)
    terms = int(_resolve(args, cfg, "terms"))
    if terms < 1:
        raise _UsageError(f"--terms must be >= 1, got {terms}")
    expansion = expand(theta, terms)
    # one extra term supplies q_(k+1) for the last gap row when available
    if expansion.terminated:
        ext = expansion
    else:
        try:
            ext = expand(theta, terms + 1)
        except PrecisionExhausted:
            ext = expansion

    notes = [f"# theta = {theta}", f"# exact = {expansion.exact}"]
    if expansion.periodic_part is not None:
        notes.append(f"# periodic_part = {expansion.periodic_part}")
    if expansion.terminated:
        notes.append("# terminating expansion: theta is rational")
    print("\n".join(notes))
    print("k,a_k,p_k,q_k,gap,bound")
    for k in range(len(expansion.convergents)):
        p, q = expansion.convergent(k)
        a_k = "-" if k == 0 else str(expansion.partial_quotients[k - 1])
        if k + 1 < len(ext.convergents):
            gb = convergent_gap(ext, k)
            gap, bound = format(gb.gap_float, ".17g"), format(float(gb.bound), ".17g")
        elif expansion.terminated:
            gap, bound = "0", "-"
        else:
            gap = bound = "-"
        print(f"{k},{a_k},{p},{q},{gap},{bound}")
    return EXIT_OK


def cmd_spectrum(args, cfg) -> int:
    theta = _resolve_theta(args, cfg)
    spec = _resolve_spec(args, cfg)
    n = int(_resolve(args, cfg, "level"))
    max_q = int(_resolve(args, cfg, "max_q"))
    cloud, cert = certify_normal(theta, spec, n, max_q=max_q)
    out = _out_dir(args, cfg)
    written = []
    formats = _resolve_formats(args, cfg)
    if "csv" in formats:
        written.append(_write(out / "spectrum_cloud.csv", cloud_to_csv(cloud)))
    if "json" in formats:
        written.append(_write(out / "spectrum_certificate.json",
                              dumps_17g(cert.to_json(cloud)) + "\n"))
    print(f"spectrum: n={n} q_pair={cert.q_pair} points={len(cloud)} "
          f"radius={cert.radius:.17g}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_pseudospectrum(args, cfg) -> int:
    theta = _resolve_theta(args, cfg)
    spec = _resolve_spec(args, cfg)
    n = int(_resolve(args, cfg, "level"))
    epsilon = _resolve(args, cfg, "epsilon")
    if epsilon is None:
        raise _UsageError("--epsilon is required")
    epsilon = float(epsilon)
    if not 0 < epsilon < math.inf:
        raise _UsageError(f"--epsilon must be finite and > 0, got {epsilon}")
    gp = _resolve_grid_params(args, cfg)
    max_q = int(_resolve(args, cfg, "max_q"))
    sandwich = certify_pseudospectrum(theta, spec, n, epsilon, gp, max_q=max_q)
    out = _out_dir(args, cfg)
    formats = _resolve_formats(args, cfg)
    written = []
    if "csv" in formats:
        written.append(_write(out / "grid_prev.csv", grid_to_csv(sandwich.grid_prev)))
        written.append(_write(out / "grid_curr.csv", grid_to_csv(sandwich.grid_curr)))
    if "pgm" in formats:
        written.append(_write(out / "grid_prev.pgm", grid_to_pgm(sandwich.grid_prev)))
        written.append(_write(out / "grid_curr.pgm", grid_to_pgm(sandwich.grid_curr)))
    if "json" in formats:
        written.append(_write(out / "sandwich_report.json",
                              dumps_17g(sandwich.to_json()) + "\n"))
    eps_n = "-" if sandwich.epsilon_n is None else format(sandwich.epsilon_n, ".17g")
    print(f"pseudospectrum: n={n} q_pair={sandwich.q_pair} epsilon={epsilon:.17g} "
          f"epsilon_n={eps_n} certified={sandwich.certified} rate={sandwich.rate}")
    for path in written:
        print(f"wrote {path}")
    if not sandwich.inclusion_verified:
        print("inner/outer grid inclusion failed", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_butterfly(args, cfg) -> int:
    spec = _resolve_spec(args, cfg)
    if not spec.is_hermitian:
        raise NotHermitian(
            "the butterfly sweep plots real eigenvalues; the spec must be hermitian"
        )
    q_max = int(_resolve(args, cfg, "q_max"))
    if q_max < 1:
        raise _UsageError(f"--q-max must be >= 1, got {q_max}")
    max_q = int(_resolve(args, cfg, "max_q"))
    if q_max > max_q:
        raise ResourceBudgetExceeded(f"--q-max {q_max} exceeds the order budget {max_q}")
    lines = ["p,q,eigenvalue"]
    fractions = 0
    for q in range(1, q_max + 1):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            fractions += 1
            eigen = hermitian_eigenvalues(build_operator(spec, p, q))
            lines.extend(f"{p},{q},{v:.17g}" for v in eigen.values)
    out = _out_dir(args, cfg)
    formats = _resolve_formats(args, cfg)
    written = []
    if "csv" in formats:
        written.append(_write(out / "butterfly.csv", "\n".join(lines) + "\n"))
    if "json" in formats:
        doc = {"spec": spec.to_json(), "q_max": q_max,
               "fractions": fractions, "rows": len(lines) - 1}
        written.append(_write(out / "butterfly_summary.json", dumps_17g(doc) + "\n"))
    print(f"butterfly: q_max={q_max} fractions={fractions} rows={len(lines) - 1}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _parse_n_list(value) -> list[int]:
    if isinstance(value, (list, tuple)):
        return [int(x) for x in value]
    return [int(x) for x in str(value).split(",") if x.strip()]


def cmd_onesided(args, cfg) -> int:
    theta = _resolve_theta(args, cfg)
    spec = _resolve_spec(args, cfg)
    raw = _resolve(args, cfg, "n_list")
    if raw is None:
        raise _UsageError("--n-list is required, e.g. --n-list 10,50,200")
    n_list = _parse_n_list(raw)
    if not n_list:
        raise _UsageError("--n-list is empty")
    max_q = int(_resolve(args, cfg, "max_q"))
    if max(n_list) > max_q:
        raise ResourceBudgetExceeded(
            f"--n-list entry {max(n_list)} exceeds the order budget {max_q}")
    gp = _resolve_grid_params(args, cfg)
    out = _out_dir(args, cfg)
    formats = _resolve_formats(args, cfg)
    written, summaries = [], []
    for n in n_list:
        result, cert = one_sided(theta, spec, n, gp, max_q=max_q)
        entry = cert.to_json()
        if isinstance(result, PointCloud):
            entry["kind"] = "cloud"
            entry["points"] = len(result)
            if "csv" in formats:
                written.append(_write(out / f"onesided_n{n}.csv", cloud_to_csv(result)))
        else:
            entry["kind"] = "grid"
            entry["region"] = list(result.region)
            entry["resolution"] = list(result.resolution)
            if "csv" in formats:
                written.append(_write(out / f"onesided_n{n}.csv", grid_to_csv(result)))
            if "pgm" in formats:
                written.append(_write(out / f"onesided_n{n}.pgm", grid_to_pgm(result)))
        summaries.append(entry)
        print(f"onesided: n={n} p={cert.chosen_p} radius={cert.radius:.17g} "
              f"kind={entry['kind']}")
    if "json" in formats:
        written.append(_write(out / "onesided_summary.json",
                              dumps_17g({"certificates": summaries}) + "\n"))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _parse_n_range(value) -> list[int]:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        a, b = int(value[0]), int(value[1])
    else:
        text = str(value)
        if ":" not in text:
            raise _UsageError(f"--n-range must look like a:b, got {text!r}")
        lo, hi = text.split(":", 1)
        a, b = int(lo), int(hi)
    if a > b:
        raise _UsageError(f"empty level range {a}:{b}")
    return list(range(a, b + 1))


def cmd_converge(args, cfg) -> int:
    theta = _resolve_theta(args, cfg)
    spec = _resolve_spec(args, cfg)
    raw = _resolve(args, cfg, "n_range")
    if raw is None:
        raise _UsageError("--n-range is required, e.g. --n-range 3:8")
    levels = _parse_n_range(raw)
    max_q = int(_resolve(args, cfg, "max_q"))
    table = convergence_study(theta, spec, levels, max_q=max_q)
    out = _out_dir(args, cfg)
    formats = _resolve_formats(args, cfg)
    written = []
    if "csv" in formats:
        written.append(_write(out / "convergence.csv", table.to_csv()))
    if "json" in formats:
        doc = {
            "theta": str(theta),
            "spec": spec.to_json(),
            "reference_n": table.reference_n,
            "all_verified": table.all_verified,
            "rows": [
                {
                    "n": r.n, "q_prev": r.q_prev, "q_n": r.q_n,
                    "epsilon_sharp": r.epsilon_sharp,
                    "epsilon_clean": r.epsilon_clean,
                    "empirical_dH": r.empirical_dh,
                    "certified_bound": r.certified_bound,
                    "within_bound": r.within_bound,
                }
                for r in table.rows
            ],
        }
        written.append(_write(out / "convergence.json", dumps_17g(doc) + "\n"))
    for r in table.rows:
        print(f"converge: n={r.n} q=({r.q_prev},{r.q_n}) "
              f"eps_sharp={r.epsilon_sharp:.17g} dH={r.empirical_dh:.17g} "
              f"ok={r.within_bound}")
    for path in written:
        print(f"wrote {path}")
    if not table.all_verified:
        bad = [r.n for r in table.rows if not r.within_bound]
        raise CertificateViolation(
            f"empirical Hausdorff distance exceeded the certified radius at n={bad}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--theta", help="rational:p/q | surd:(a+b*sqrt(d))/c | decimal:0.xxxx")
    grp = common.add_mutually_exclusive_group()
    grp.add_argument("--spec", help="operator spec as inline JSON")
    grp.add_argument("--spec-file", dest="spec_file", help="path to spec JSON")
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--out-dir", dest="out_dir", help="output directory (default .)")
    common.add_argument("--format", action="append", choices=list(_FORMATS),
                        help="output format, repeatable (default csv and json)")
    common.add_argument("--jobs", type=int, help="worker threads (results identical)")
    common.add_argument("--max-q", dest="max_q", type=int,
                        help=f"matrix-order budget (default {MAX_Q})")

    parser = argparse.ArgumentParser(
        prog="rotspec",
        description="certified finite-matrix spectra for rotation-algebra operators",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("expand", parents=[common],
                       help="print the continued-fraction convergent table")
    p.add_argument("--terms", type=int, help="number of partial quotients (default 20)")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("spectrum", parents=[common],
                       help="certified spectrum cloud at level n")
    p.add_argument("--level", type=int, help="convergent level n (default 5)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("pseudospectrum", parents=[common],
                       help="certified pseudospectrum grids at level n")
    p.add_argument("--level", type=int, help="convergent level n (default 5)")
    p.add_argument("--epsilon", type=float, help="pseudospectrum level (> 0)")
    p.add_argument("--region", nargs=4, type=float,
                   metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p.add_argument("--resolution", nargs=2, type=int, metavar=("NX", "NY"))
    p.set_defaults(func=cmd_pseudospectrum)

    p = sub.add_parser("butterfly", parents=[common],
                       help="eigenvalues over all reduced rationals p/q, q <= q_max")
    p.add_argument("--q-max", dest="q_max", type=int,
                   help="largest denominator (default 50)")
    p.set_defaults(func=cmd_butterfly)

    p = sub.add_parser("onesided", parents=[common],
                       help="one-sided sqrt(n)-rate certificates at chosen denominators")
    p.add_argument("--n-list", dest="n_list", help="comma-separated denominators")
    p.add_argument("--region", nargs=4, type=float,
                   metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p.add_argument("--resolution", nargs=2, type=int, metavar=("NX", "NY"))
    p.set_defaults(func=cmd_onesided)

    p = sub.add_parser("converge", parents=[common],
                       help="ladder of levels with certified-vs-empirical check")
    p.add_argument("--n-range", dest="n_range", help="inclusive level range a:b")
    p.set_defaults(func=cmd_converge)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return EXIT_OK
        return code if isinstance(code, int) else EXIT_USAGE
    if getattr(args, "func", None) is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        cfg = _load_config(args.config)
        return args.func(args, cfg)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CertificateViolation as exc:
        print(f"certificate violation: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE
    except ConvergenceFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except RotspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
