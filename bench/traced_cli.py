"""Run the rotspec CLI once with a span around every call into a layer.

Usage: python bench/traced_cli.py SPANS.json CLI-ARG...

Each traced function is wrapped at every ``rotspec`` module that binds
it, because ``approx`` and ``cli`` import names directly. Only the
outermost call of a function is recorded, so recursion (``dumps_17g``)
and calls routed through a second binding count once. Spans (name, start,
end, parent, sizes) stay in memory and are written to SPANS.json when the
run ends; :func:`layer_metrics` turns them into per-layer metrics.
"""

from __future__ import annotations

import inspect
import json
import sys
import threading
import time
from collections import defaultdict
from functools import wraps

# (module that defines the function, function, span name)
TRACED = (
    ("rotspec.cli", "main", "cli.main"),
    ("rotspec.cli", "dumps_17g", "cli.dumps_17g"),
    ("rotspec.approx", "convergence_study", "approx.driver"),
    ("rotspec.approx", "certify_normal", "approx.driver"),
    ("rotspec.approx", "certify_pseudospectrum", "approx.driver"),
    ("rotspec.approx", "sharp_bound", "approx.bounds"),
    ("rotspec.approx", "clean_bound", "approx.bounds"),
    ("rotspec.approx", "hausdorff_distance", "approx.hausdorff"),
    ("rotspec.contfrac", "expand", "contfrac.expand"),
    ("rotspec.matmodel", "build_operator", "matmodel.build"),
    ("rotspec.spectral", "hermitian_eigenvalues", "spectral.eig"),
    ("rotspec.spectral", "normal_eigenvalues", "spectral.eig"),
    ("rotspec.pseudospectra", "compute_grid", "pseudospectra.grid"),
    ("rotspec.pseudospectra", "grid_to_csv", "pseudospectra.grid_to_csv"),
    ("rotspec.pseudospectra", "grid_to_pgm", "pseudospectra.grid_to_pgm"),
    ("rotspec.pseudospectra", "cloud_to_csv", "pseudospectra.cloud_to_csv"),
)


def _order(matrix) -> int:
    return int(getattr(matrix, "order", None) or len(matrix))


# span name -> sizes recorded from the bound call arguments
SIZES = {
    "spectral.eig": lambda a: {"q": _order(a["A"])},
    "pseudospectra.grid": lambda a: {"q": _order(a["A"]),
                                     "points": int(a["resolution"][0]) * int(a["resolution"][1])},
    "approx.hausdorff": lambda a: {"p": len(a["P"]), "q": len(a["Q"])},
    "matmodel.build": lambda a: {"q": int(a["q"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
            self._local.active = set()
        return self._local.stack

    def wrap(self, fn, name: str):
        sig = inspect.signature(fn)
        sizes = SIZES.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if fn in self._local.active:  # inner call of a recorded one
                return fn(*args, **kwargs)
            span = {"name": name, "fn": fn.__name__,
                    "parent": stack[-1] if stack else None,
                    "thread": threading.get_ident()}
            if sizes is not None:
                span.update(sizes(sig.bind(*args, **kwargs).arguments))
            with self._lock:
                index = len(self.spans)
                self.spans.append(span)
            stack.append(index)
            self._local.active.add(fn)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._local.active.discard(fn)
                stack.pop()

        return traced

    def install(self) -> None:
        """Replace each traced function in every rotspec module binding it."""
        wrappers = {}
        for module, attr, name in TRACED:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self.wrap(fn, name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rotspec" and not mod_name.startswith("rotspec."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def layer_metrics(spans: list[dict], grid_orders) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from recorded spans."""
    dur = [s["end"] - s["start"] for s in spans]
    child = defaultdict(float)
    for s, d in zip(spans, dur):
        if s["parent"] is not None:
            child[s["parent"]] += d
    total, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
    for i, (s, d) in enumerate(zip(spans, dur)):
        total[s["name"]] += d
        calls[s["name"]] += 1
        self_s[s["name"]] += d - child[i]

    eig = [s for s in spans if s["name"] == "spectral.eig"]
    seen, repeats = set(), 0
    for s in sorted(eig, key=lambda s: s["start"]):
        repeats += s["q"] in seen
        seen.add(s["q"])
    grid_s, grid_pts = defaultdict(float), defaultdict(int)
    for s, d in zip(spans, dur):
        if s["name"] == "pseudospectra.grid":
            grid_s[s["q"]] += d
            grid_pts[s["q"]] += s["points"]

    m = {
        "spectral.eig_s": (total["spectral.eig"], "s"),
        "spectral.eig_calls": (calls["spectral.eig"], "count"),
        "spectral.eig_rows": (sum(s["q"] for s in eig), "count"),
        "spectral.eig_repeat_calls": (repeats, "count"),
        "pseudospectra.grid_s": (total["pseudospectra.grid"], "s"),
        "pseudospectra.grid_points": (sum(grid_pts.values()), "count"),
    }
    for q in grid_orders:
        us = 1e6 * grid_s[q] / grid_pts[q] if grid_pts[q] else 0.0
        m[f"pseudospectra.us_per_point.q{q}"] = (us, "us")
    m.update({
        "pseudospectra.grid_to_csv_s": (total["pseudospectra.grid_to_csv"], "s"),
        "pseudospectra.grid_to_pgm_s": (total["pseudospectra.grid_to_pgm"], "s"),
        "pseudospectra.cloud_to_csv_s": (total["pseudospectra.cloud_to_csv"], "s"),
        "cli.dumps_17g_s": (total["cli.dumps_17g"], "s"),
        "approx.hausdorff_s": (total["approx.hausdorff"], "s"),
        "approx.hausdorff_calls": (calls["approx.hausdorff"], "count"),
        # computed: two directed passes, each a |P| x |Q| complex distance matrix
        "approx.hausdorff_bytes": (sum(2 * 16 * s["p"] * s["q"] for s in spans
                                       if s["name"] == "approx.hausdorff"), "bytes"),
        "matmodel.build_s": (total["matmodel.build"], "s"),
        "matmodel.builds": (calls["matmodel.build"], "count"),
        "matmodel.build_bytes": (sum(16 * s["q"] ** 2 for s in spans
                                     if s["name"] == "matmodel.build"), "bytes"),
        "contfrac.expand_s": (total["contfrac.expand"], "s"),
        "contfrac.expand_calls": (calls["contfrac.expand"], "count"),
        "approx.bounds_s": (total["approx.bounds"], "s"),
        "approx.bounds_calls": (calls["approx.bounds"], "count"),
        "approx.driver_self_s": (self_s["approx.driver"], "s"),
        "cli.main_self_s": (self_s["cli.main"], "s"),
    })
    return m


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import rotspec.cli

    tracer = Tracer()
    tracer.install()
    try:
        return rotspec.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
