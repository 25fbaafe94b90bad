"""Command-line entry point.

Subcommands mirror the library pipeline: `expand` prints the convergent
table, `spectrum` and `pseudospectrum` emit certified approximations at
a chosen level, `butterfly` sweeps rational parameters, `onesided`
computes sqrt(n)-rate single-model certificates, and `converge` runs a
ladder of levels and cross-checks the empirical Hausdorff distances
against the certified radii.

Each option is declared once in `_OPTIONS`: its flag, argparse keywords,
default and config type. `_COMMANDS` lists the options each subcommand
reads and the formats it writes; the parser, the config check and the
defaults are generated from the two. A subcommand rejects a flag it does
not read, while a config key it does not read is ignored, so one config
file serves every subcommand. Flags override the config, which overrides
the defaults.

The numeric modules are bound as the package's lazy modules and their
functions read as attributes at call time, and the defaults come from
`errors`: numpy loads when a computing command reads its operator
spec, and `expand`, `--help` and a usage error found before the spec is
read never load it.

Deterministic batch semantics: fixed inputs produce byte-identical
outputs. Every grid runs in one thread: --jobs is checked, then ignored.
Exit codes: 0 success, 2 usage, 3 invalid or insufficient input,
4 numerical failure, 5 certificate violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from . import approx, matmodel, pseudospectra, spectral
from .contfrac import convergent_gap, expand, parse_theta
from .errors import (
    DEFAULT_RESOLUTION,
    MAX_Q,
    RATE_FLAG,
    CertificateViolation,
    ConvergenceFailure,
    InvalidInput,
    PrecisionExhausted,
    ResourceBudgetExceeded,
    RotspecError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_NUMERIC = 4
EXIT_CERTIFICATE = 5


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


_STRING = (_is_str, "a string")
_INTEGER = (_is_int, "an integer")


class _Option(NamedTuple):
    """One option: its flag, the argparse keywords for it, its default,
    and the check and description of the JSON value a config file may
    give it (None: the option has no config key). Config values take the
    type of the flag, and bools are not ints."""

    flag: str
    argparse_kw: dict
    default: object = None
    config: Optional[tuple[Callable[[object], bool], str]] = None


_OPTIONS = {
    "config": _Option("--config", {"help": "JSON config file; flags override it"}),
    "theta": _Option("--theta", {"help": "rational:p/q | surd:(a+b*sqrt(d))/c | decimal:0.xxxx"},
                     config=_STRING),
    "spec": _Option("--spec", {"help": "operator spec as inline JSON"},
                    config=(lambda v: isinstance(v, dict), "an object")),
    "spec_file": _Option("--spec-file", {"help": "path to spec JSON"}),
    "out_dir": _Option("--out-dir", {"help": "output directory"}, ".", _STRING),
    "format": _Option("--format", {"action": "append", "help": "output format, repeatable"},
                      ("csv", "json"),
                      (lambda v: _is_str(v) or _list_of(_is_str)(v),
                       "a string or a list of strings")),
    "jobs": _Option("--jobs", {"type": int, "help": "accepted for compatibility and ignored; "
                                                  "every grid runs in one thread"},
                    1, _INTEGER),
    "max_q": _Option("--max-q", {"type": int, "help": "matrix-order budget"}, MAX_Q, _INTEGER),
    "terms": _Option("--terms", {"type": int, "help": "number of partial quotients"},
                     20, _INTEGER),
    "level": _Option("--level", {"type": int, "help": "convergent level n"}, 5, _INTEGER),
    "epsilon": _Option("--epsilon", {"type": float, "help": "pseudospectrum level (> 0)"},
                       config=(_is_number, "a number")),
    "region": _Option("--region", {"nargs": 4, "type": float,
                                   "metavar": ("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"),
                                   "help": "grid rectangle (default from the matrix norms)"},
                      config=(_list_of(_is_number, 4), "a list of four numbers")),
    "resolution": _Option("--resolution", {"nargs": 2, "type": int, "metavar": ("NX", "NY"),
                                           "help": "grid points per axis"},
                          DEFAULT_RESOLUTION, (_list_of(_is_int, 2), "a list of two integers")),
    "q_max": _Option("--q-max", {"type": int, "help": "largest denominator"}, 50, _INTEGER),
    "n_list": _Option("--n-list", {"help": "comma-separated denominators"},
                      config=(lambda v: _is_str(v) or _list_of(_is_int)(v),
                              "a string or a list of integers")),
    "n_range": _Option("--n-range", {"help": "inclusive level range a:b"},
                       config=(lambda v: _is_str(v) or _list_of(_is_int, 2)(v),
                               "a string a:b or a list of two integers")),
}


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
    np = sys.modules.get("numpy")  # a numpy scalar means numpy is loaded
    if isinstance(obj, float) or np is not None and isinstance(obj, np.floating):
        x = float(obj)
        if not math.isfinite(x):
            raise InvalidInput(f"non-finite value {x} in JSON output")
        return format(x, ".17g")
    if isinstance(obj, int) or np is not None and isinstance(obj, np.integer):
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
    unknown = sorted(k for k in doc if k not in _OPTIONS or _OPTIONS[k].config is None)
    if unknown:
        raise InvalidInput(f"unknown config keys: {unknown}")
    for key, value in doc.items():
        check, kind = _OPTIONS[key].config
        if not check(value):
            raise InvalidInput(f"config key {key!r} must be {kind}, got {value!r}")
    return doc


def _resolve(args: argparse.Namespace, cfg: dict, command: _Command) -> argparse.Namespace:
    """The value of each option the subcommand reads. A config format the
    subcommand does not write, or an empty format list, is refused here,
    before anything runs."""
    opts = argparse.Namespace()
    for key in command.reads:
        value = getattr(args, key)
        setattr(opts, key, cfg.get(key, _OPTIONS[key].default) if value is None else value)
    if command.formats:
        fmts = [opts.format] if isinstance(opts.format, str) else opts.format
        if not fmts:
            raise InvalidInput(f"no output format requested; choose from {command.formats}")
        bad = [f for f in fmts if f not in command.formats]
        if bad:
            raise InvalidInput(f"unknown output formats {bad}; choose from {command.formats}")
        opts.format = tuple(dict.fromkeys(fmts))
    return opts


def _resolve_theta(opts):
    if not opts.theta:
        raise _UsageError("--theta is required (or set \"theta\" in --config)")
    return parse_theta(opts.theta)


def _resolve_spec(opts) -> matmodel.OperatorSpec:
    doc = opts.spec  # --spec text, or the config's object
    if opts.spec_file is not None:  # --spec excludes it, and it overrides the config
        try:
            doc = json.loads(Path(opts.spec_file).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInput(f"cannot read spec file: {exc}")
    elif isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"--spec is not valid JSON: {exc}")
    if doc is None:
        return matmodel.OperatorSpec.canonical(1, 1, 1, 1)
    return matmodel.OperatorSpec.from_json(doc)


def _resolve_grid_params(opts) -> tuple[Optional[pseudospectra.Region], tuple[int, int]]:
    """The grid's region (None: derived from the norms) and resolution."""
    region = opts.region
    if region is not None:
        region = tuple(float(x) for x in region)
        if not all(math.isfinite(x) for x in region):
            raise _UsageError(f"--region must be finite, got {region}")
    if opts.jobs < 1:
        raise _UsageError(f"--jobs must be >= 1, got {opts.jobs}")
    return region, tuple(opts.resolution)


class _Output:
    """Writes a run's artifacts in the requested formats to --out-dir,
    creating it at the first write, and reports what it wrote."""

    def __init__(self, opts):
        self.dir = Path(opts.out_dir)
        self.formats = opts.format
        self.written: list[Path] = []
        self.made = [d for d in (self.dir, *self.dir.parents) if not d.exists()]

    def write(self, fmt: str, name: str,
              payload: Callable[[], Iterable[str | bytes]]) -> None:
        """Write the pieces of payload() to name.partial, each as it arrives
        (text as UTF-8), and rename it to name, if fmt was requested; the
        payload is built only then. A failure removes it, the artifacts
        this run wrote before it and the directories the run made, so a
        run whose write fails leaves nothing; an OSError, such as an
        --out-dir that is a file, is then InvalidInput naming the path."""
        if fmt not in self.formats:
            return
        path = self.dir / name
        partial = self.dir / f"{name}.partial"
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
            with open(partial, "wb") as fh:
                for piece in payload():
                    fh.write(piece.encode("utf-8") if isinstance(piece, str) else piece)
            partial.replace(path)
        except BaseException as exc:
            for done in (partial, *self.written):
                if done.exists():
                    done.unlink()
            for d in self.made:  # the deepest first, each if the run made it
                if d.is_dir():
                    d.rmdir()
            self.written.clear()
            if isinstance(exc, OSError):
                raise InvalidInput(f"cannot write {path}: {exc}") from exc
            raise
        self.written.append(path)

    def report(self) -> None:
        for path in self.written:
            print(f"wrote {path}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_expand(opts) -> int:
    theta = _resolve_theta(opts)
    terms = opts.terms
    if terms < 1:
        raise _UsageError(f"--terms must be >= 1, got {terms}")
    # every theta has 0 <= p_k <= q_k and q_k >= F(k) (contfrac.fibonacci), so
    # p_k/q_k prints until q_k reaches 10**limit, the int-to-str digit limit
    # (none when 0): the expansion stops at --terms or at the first k whose
    # F(k) reaches it, and such a q_k is refused before any line is printed
    limit = sys.get_int_max_str_digits()
    unprintable, cap, f, g = 10**limit, 0, 1, 1
    while limit and cap < terms and f < unprintable:
        cap, f, g = cap + 1, g, f + g
    expansion = expand(theta, cap if limit else terms)
    k = next((k for k, (_, q) in enumerate(expansion.convergents)
              if limit and q >= unprintable), 0)  # q_0 = 1 always prints
    if k:
        fits = f"--terms {k - 1} is the largest that prints" if k > 1 else "no --terms prints"
        raise _UsageError(f"p_{k}/q_{k} has more than {limit} decimal digits; {fits}")

    try:  # one extra term supplies q_(k+1) for the last gap row when available
        ext = expansion if expansion.terminated else expand(theta, terms + 1)
    except PrecisionExhausted:
        ext = expansion

    notes = [f"# theta = {theta}", f"# exact = {expansion.exact}"]
    if expansion.periodic_part is not None:
        notes.append(f"# periodic_part = {expansion.periodic_part}")
    if expansion.terminated:
        notes.append("# terminating expansion: theta is rational")
    print("\n".join(notes))
    print("k,a_k,p_k,q_k,gap,bound")
    for k, (p, q) in enumerate(expansion.convergents):
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


def cmd_spectrum(opts) -> int:
    theta = _resolve_theta(opts)
    spec = _resolve_spec(opts)
    n = opts.level
    cloud, cert = approx.certify_normal(theta, spec, n, max_q=opts.max_q)
    out = _Output(opts)
    out.write("csv", "spectrum_cloud.csv", lambda: pseudospectra.cloud_to_csv(cloud))
    out.write("json", "spectrum_certificate.json",
              lambda: (dumps_17g(cert.to_json(cloud)), "\n"))
    print(f"spectrum: n={n} q_pair={cert.q_pair} points={len(cloud)} "
          f"radius={cert.radius:.17g}")
    out.report()
    return EXIT_OK


def cmd_pseudospectrum(opts) -> int:
    theta = _resolve_theta(opts)
    spec = _resolve_spec(opts)
    n = opts.level
    if opts.epsilon is None:
        raise _UsageError("--epsilon is required")
    epsilon = float(opts.epsilon)
    if not 0 < epsilon < math.inf:
        raise _UsageError(f"--epsilon must be finite and > 0, got {epsilon}")
    region, resolution = _resolve_grid_params(opts)
    sandwich = approx.certify_pseudospectrum(theta, spec, n, epsilon, region, resolution,
                                             max_q=opts.max_q)
    out = _Output(opts)
    out.write("csv", "grid_prev.csv", lambda: pseudospectra.grid_to_csv(sandwich.grid_prev))
    out.write("csv", "grid_curr.csv", lambda: pseudospectra.grid_to_csv(sandwich.grid_curr))
    out.write("pgm", "grid_prev.pgm", lambda: pseudospectra.grid_to_pgm(sandwich.grid_prev))
    out.write("pgm", "grid_curr.pgm", lambda: pseudospectra.grid_to_pgm(sandwich.grid_curr))
    out.write("json", "sandwich_report.json", lambda: (dumps_17g(sandwich.to_json()), "\n"))
    eps_n = "-" if sandwich.epsilon_n is None else format(sandwich.epsilon_n, ".17g")
    print(f"pseudospectrum: n={n} q_pair={sandwich.q_pair} epsilon={epsilon:.17g} "
          f"epsilon_n={eps_n} certified={sandwich.certified} rate={RATE_FLAG}")
    out.report()
    if not sandwich.inclusion_verified:
        print("inner/outer grid inclusion failed", file=sys.stderr)
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_butterfly(opts) -> int:
    spec = _resolve_spec(opts)
    q_max = opts.q_max
    if q_max < 1:
        raise _UsageError(f"--q-max must be >= 1, got {q_max}")
    if q_max > opts.max_q:
        raise ResourceBudgetExceeded(f"--q-max {q_max} exceeds the order budget {opts.max_q}")
    fractions = rows = 0

    def csv() -> Iterator[str]:  # one spectrum at a time, not all 0.2 q_max^3 rows
        nonlocal fractions, rows
        yield "p,q,eigenvalue\n"
        for q in range(1, q_max + 1):
            for p in range(q):
                if math.gcd(p, q) == 1:
                    eigen = spectral.hermitian_eigenvalues(matmodel.build_operator(spec, p, q))
                    fractions, rows = fractions + 1, rows + eigen.size
                    yield "".join([f"{p},{q},{v:.17g}\n" for v in eigen.tolist()])

    out = _Output(opts)
    pieces = csv()
    out.write("csv", "butterfly.csv", lambda: pieces)
    for _ in pieces:  # a run without the CSV still solves every fraction
        pass
    out.write("json", "butterfly_summary.json",
              lambda: (dumps_17g({"spec": spec.to_json(), "q_max": q_max,
                                  "fractions": fractions, "rows": rows}), "\n"))
    print(f"butterfly: q_max={q_max} fractions={fractions} rows={rows}")
    out.report()
    return EXIT_OK


def _parse_n_list(value) -> list[int]:
    """The denominators of a flag's text or a config list, each once, in
    the order of first occurrence."""
    if not isinstance(value, list):
        try:
            value = [int(x) for x in value.split(",") if x.strip()]
        except ValueError:
            raise _UsageError(f"--n-list must be comma-separated integers, got {value!r}")
    return list(dict.fromkeys(value))


def cmd_onesided(opts) -> int:
    theta = _resolve_theta(opts)
    spec = _resolve_spec(opts)
    if opts.n_list is None:
        raise _UsageError("--n-list is required, e.g. --n-list 10,50,200")
    n_list = _parse_n_list(opts.n_list)
    if not n_list:
        raise _UsageError("--n-list is empty")
    if min(n_list) < 1:
        raise _UsageError(f"--n-list entries must be >= 1, got {min(n_list)}")
    if max(n_list) > opts.max_q:
        raise ResourceBudgetExceeded(
            f"--n-list entry {max(n_list)} exceeds the order budget {opts.max_q}")
    region, resolution = _resolve_grid_params(opts)
    # every denominator is certified before the first file is written
    runs = [(n, *approx.one_sided(theta, spec, n, region, resolution, max_q=opts.max_q))
            for n in n_list]
    out = _Output(opts)
    summaries = []
    for n, result, cert in runs:
        entry = cert.to_json()
        if isinstance(result, pseudospectra.PseudospectrumGrid):
            entry["kind"] = "grid"
            entry["region"] = list(result.region)
            entry["resolution"] = list(result.resolution)
            out.write("csv", f"onesided_n{n}.csv", lambda: pseudospectra.grid_to_csv(result))
            out.write("pgm", f"onesided_n{n}.pgm", lambda: pseudospectra.grid_to_pgm(result))
        else:
            entry["kind"] = "cloud"
            entry["points"] = len(result)
            out.write("csv", f"onesided_n{n}.csv", lambda: pseudospectra.cloud_to_csv(result))
        summaries.append(entry)
        print(f"onesided: n={n} p={cert.chosen_p} radius={cert.radius:.17g} "
              f"kind={entry['kind']}")
    out.write("json", "onesided_summary.json",
              lambda: (dumps_17g({"certificates": summaries}), "\n"))
    out.report()
    return EXIT_OK


def _parse_n_range(value) -> list[int]:
    if isinstance(value, list):
        a, b = value
    else:
        lo, _, hi = value.partition(":")
        try:
            a, b = int(lo), int(hi)
        except ValueError:
            raise _UsageError(f"--n-range must look like a:b, got {value!r}")
    if a > b:
        raise _UsageError(f"empty level range {a}:{b}")
    return list(range(a, b + 1))


def cmd_converge(opts) -> int:
    theta = _resolve_theta(opts)
    spec = _resolve_spec(opts)
    if opts.n_range is None:
        raise _UsageError("--n-range is required, e.g. --n-range 3:8")
    levels = _parse_n_range(opts.n_range)
    table = approx.convergence_study(theta, spec, levels, max_q=opts.max_q)

    def report() -> dict:
        return {
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

    out = _Output(opts)
    out.write("csv", "convergence.csv", table.to_csv)
    out.write("json", "convergence.json", lambda: (dumps_17g(report()), "\n"))
    for r in table.rows:
        print(f"converge: n={r.n} q=({r.q_prev},{r.q_n}) "
              f"eps_sharp={r.epsilon_sharp:.17g} dH={r.empirical_dh:.17g} "
              f"ok={r.within_bound}")
    out.report()
    if not table.all_verified:
        bad = [r.n for r in table.rows if not r.within_bound]
        raise CertificateViolation(
            f"empirical Hausdorff distance exceeded the certified radius at n={bad}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------

class _Command(NamedTuple):
    run: Callable[[argparse.Namespace], int]
    help: str
    reads: tuple[str, ...]  # options besides --config; --spec and --spec-file exclude each other
    formats: tuple[str, ...] = ()  # --format choices


_WRITES = ("out_dir", "format")
_SPEC = ("spec", "spec_file")

_COMMANDS = {
    "expand": _Command(cmd_expand, "print the continued-fraction convergent table",
                       ("theta", "terms")),
    "spectrum": _Command(cmd_spectrum, "certified spectrum cloud at level n",
                         ("theta", *_SPEC, *_WRITES, "max_q", "level"), ("csv", "json")),
    "pseudospectrum": _Command(cmd_pseudospectrum, "certified pseudospectrum grids at level n",
                               ("theta", *_SPEC, *_WRITES, "jobs", "max_q", "level",
                                "epsilon", "region", "resolution"), ("csv", "json", "pgm")),
    "butterfly": _Command(cmd_butterfly,
                          "eigenvalues over all reduced rationals p/q, q <= q_max",
                          (*_SPEC, *_WRITES, "max_q", "q_max"), ("csv", "json")),
    "onesided": _Command(cmd_onesided,
                         "one-sided sqrt(n)-rate certificates at chosen denominators",
                         ("theta", *_SPEC, *_WRITES, "jobs", "max_q", "n_list",
                          "region", "resolution"), ("csv", "json", "pgm")),
    "converge": _Command(cmd_converge, "ladder of levels with certified-vs-empirical check",
                         ("theta", *_SPEC, *_WRITES, "max_q", "n_range"), ("csv", "json")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotspec",
        description="certified finite-matrix spectra for rotation-algebra operators",
    )
    sub = parser.add_subparsers(dest="command")
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        spec_group = p.add_mutually_exclusive_group() if "spec" in command.reads else None
        for key in ("config", *command.reads):
            opt = _OPTIONS[key]
            kw = dict(opt.argparse_kw, dest=key)
            if key == "format":
                kw["choices"] = command.formats
            if opt.default is not None:
                kw["help"] += f" (default {json.dumps(opt.default)})"
            (spec_group if key in _SPEC else p).add_argument(opt.flag, **kw)
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
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    command = _COMMANDS[args.command]
    try:
        cfg = _load_config(args.config)
        return command.run(_resolve(args, cfg, command))
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
