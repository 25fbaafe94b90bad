"""rotspec benchmark: launch the CLI on a named workload and report metrics.

Usage (from the repository root, no install needed):

    python3 bench/run.py --workload {ladder,grid_deep,grid_wide} \
        --seed N --seconds S --trace {0,1} [--record FILE]

The CLI runs as ``python -m rotspec.cli`` with ``src`` on PYTHONPATH and
BLAS pinned to one thread (see BLAS_THREADS). One run of the benchmark:

1. after one warm-up launch, alternates two launches for ``--seconds``
   seconds: a set-up probe (launch until ``rotspec.cli`` is imported and
   its parser built) and a workload run, recording wall time, child CPU
   time and peak RSS; once three pairs are done it starts no pair that
   would likely end after ``--seconds`` seconds. Spreading both kinds of
   launch over the whole window keeps a burst of host load from landing
   on all samples of one kind;
2. checks every run: exit code 0, artifacts byte-identical across the
   set, and the content checks of ``check.py`` on the first run;
3. with ``--trace 1``, runs the workload once more under
   ``traced_cli.py`` and reports the per-layer metrics from its spans.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
BASELINE = BENCH / "baseline.json"

from workloads import WORKLOADS, cli_args, work_units  # noqa: E402

MIN_SAMPLES = 3
RUN_TIMEOUT_S = 120.0
BUDGET_S = 150.0  # stop launching once the next run could end past this
SETUP_CODE = "import rotspec.cli as c; c.build_parser()"
# One BLAS thread per child: on a few shared cores, BLAS threads that wait
# on each other turn every stolen time slice into a stall of the whole
# solve, and the wall times of identical runs then swing by a quarter.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def launch(cmd: list[str], out: Path, timeout: float = RUN_TIMEOUT_S) -> dict:
    """Run cmd to completion; wall time, rusage and exit code of the child.

    Linux folds the spawning process's resident set into the child's
    ru_maxrss (the high-water mark before exec), so this process loads no
    numpy and reads no artifact into memory: checks run in check.py.
    """
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "stdout.txt", "wb") as so, open(out / "stderr.txt", "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=so, stderr=se)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mib": usage.ru_maxrss / 1024.0, "exit": proc.returncode}


def probe(script: str, *args: str) -> object:
    """JSON printed by a helper script run in its own process, so the
    parent stays small (see launch)."""
    done = subprocess.run([sys.executable, str(BENCH / script), *args], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{script} failed: {done.stderr.strip()}")
    return json.loads(done.stdout)


def artifact_digests(out_dir: Path, workload) -> dict[str, str]:
    """sha256 of every artifact the workload must write; raises
    FileNotFoundError when one is missing."""
    digests = {}
    for name in workload.artifacts:
        with open(out_dir / name, "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def setup_probe(work: Path) -> float:
    """Wall time of one launch that only imports rotspec.cli and builds its parser."""
    rec = launch([sys.executable, "-c", SETUP_CODE], work / "setup")
    if rec["exit"] != 0:
        raise RuntimeError("cannot import rotspec.cli: "
                           + (work / "setup" / "stderr.txt").read_text(errors="replace"))
    return rec["wall_s"]


def run_set(workload, seed: int, seconds: float, work: Path):
    """Set-up probes and untraced workload launches, alternating for
    `seconds`; per-run records (each with the probe made before it) and
    the set's digests."""
    base_cmd = [sys.executable, "-m", "rotspec.cli", *cli_args(workload, seed)]
    out = work / "run"
    runs, digests = [], None
    setup_probe(work)  # warm-up: fills bytecode and page caches
    t_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t_start
        pair = [r["setup_s"] + r["wall_s"] for r in runs]
        # no pair starts that would likely end past `seconds` (once there
        # are MIN_SAMPLES) or past the hard budget
        if runs and (len(runs) >= MIN_SAMPLES and elapsed + pair[-1] > seconds
                     or elapsed + 1.5 * max(pair) > BUDGET_S):
            break
        setup_s = setup_probe(work)
        shutil.rmtree(out, ignore_errors=True)
        rec = launch(base_cmd + ["--out-dir", str(out)], out)
        rec["setup_s"] = setup_s
        rec["problems"] = run_problems(workload, seed, out, rec, digests)
        if not rec["problems"] and digests is None:
            digests = artifact_digests(out, workload)
        runs.append(rec)
    return runs, digests


def run_problems(workload, seed: int, out: Path, rec: dict, digests) -> list[str]:
    """Why a run fails: nonzero exit, missing artifacts, artifacts that
    differ from the set's first good run or, for the first good run, the
    content checks of check.py."""
    if rec["exit"] != 0:
        tail = (out / "stderr.txt").read_text(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {rec['exit']}: {' '.join(tail)}"]
    try:
        got = artifact_digests(out, workload)
    except FileNotFoundError as exc:
        return [f"missing artifact: {exc.filename}"]
    if digests is None:
        return probe("check.py", "check", workload.name, str(seed), str(out))
    changed = sorted(k for k in got if got[k] != digests[k])
    return [f"artifacts differ from the first run of the set: {changed}"] if changed else []


def traced_run(workload, seed: int, work: Path, digests) -> tuple[dict, list[dict]]:
    out = work / "traced"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    spans_path = work / "spans.json"
    cmd = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path),
           *cli_args(workload, seed), "--out-dir", str(out)]
    rec = launch(cmd, out)
    rec["problems"] = run_problems(workload, seed, out, rec, digests)
    rec["bytes_written"] = sum((out / name).stat().st_size for name in workload.artifacts
                               if (out / name).exists())
    spans = json.loads(spans_path.read_text()) if spans_path.exists() else []
    return rec, spans


def compare_baseline(env: dict, workload: str, trace: int, metrics: dict) -> list[str]:
    if not BASELINE.exists():
        return ["baseline: none recorded"]
    base = json.loads(BASELINE.read_text(encoding="utf-8"))
    diff = sorted(k for k in env if env[k] != base["environment"].get(k))
    if diff:
        return [f"baseline: NOT COMPARABLE, environment differs in {diff}"]
    ref = base["results"].get(workload, {}).get(f"trace{trace}", {}).get("metrics", {})
    lines = ["baseline: comparable environment"]
    for name, m in metrics.items():
        if name in ref and ref[name]["value"]:
            lines.append(f"  {name}: {m['value']:.6g} vs baseline {ref[name]['value']:.6g} "
                         f"({m['value'] / ref[name]['value'] - 1:+.1%})")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="also write the full result record to this JSON file")
    args = ap.parse_args(argv)

    if not (SRC / "rotspec" / "cli.py").is_file():
        print(f"error: rotspec sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return report(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, args, work: Path) -> int:
    env = probe("environment.py")
    runs, digests = run_set(workload, args.seed, args.seconds, work)
    walls = [r["wall_s"] for r in runs]
    setup = [r["setup_s"] for r in runs]
    w1, w2, w3 = quartiles(walls)
    cpu = statistics.median(r["cpu_s"] for r in runs)
    rss = statistics.median(r["peak_rss_mib"] for r in runs)
    units = work_units(workload)
    end_to_end = {
        "wall_s": (w2, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (cpu, "s"),
        "peak_rss_mib": (rss, "MiB"),
        "work_per_s": (units / w2, "1/s"),
    }
    problems = [p for r in runs for p in r["problems"]]
    attempted, failed = len(runs), sum(1 for r in runs if r["problems"])

    lines = [f"workload {workload.name} seed {args.seed}: {workload.why}",
             "environment " + json.dumps(env, sort_keys=True),
             f"wall_s samples={len(walls)} q1={w1:.4f} median={w2:.4f} q3={w3:.4f}",
             f"setup_s samples={len(setup)} " + " ".join(f"{t:.4f}" for t in setup),
             f"work units per run = {units}"]
    lines += [f"{k} = {v:.6g} {u}" for k, (v, u) in end_to_end.items()]

    per_layer = {}
    if args.trace:
        from traced_cli import layer_metrics

        rec, spans = traced_run(workload, args.seed, work, digests)
        attempted += 1
        failed += bool(rec["problems"])
        problems += [f"traced run: {p}" for p in rec["problems"]]
        grid_orders = sorted({q for w in WORKLOADS.values() if w.kind == "grid"
                              for q in w.orders})
        per_layer = layer_metrics(spans, grid_orders)
        per_layer["cli.bytes_written"] = (rec["bytes_written"], "bytes")
        per_layer["trace.overhead_s"] = (rec["wall_s"] - w2, "s")
        lines.append(f"traced wall_s = {rec['wall_s']:.4f} s")
        timed = {k: v for k, (v, u) in per_layer.items()
                 if u == "s" and k != "trace.overhead_s"}
        lines.append(f"largest layer span: {max(timed, key=timed.get)}")
        lines += [f"{k} = {v:.6g} {u}" + (f" ({v / w2:.1%} of wall_s)" if u == "s" else "")
                  for k, (v, u) in per_layer.items()]

    lines.append(f"fail_ratio = {failed / attempted:.4g} ({failed} of {attempted} runs failed)")
    lines += [f"FAILED CHECK: {p}" for p in problems]
    chosen = per_layer if args.trace else end_to_end
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    lines += compare_baseline(env, workload.name, args.trace, metrics)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.record:
        record = dict(result, workload=workload.name, seed=args.seed, trace=args.trace,
                      environment=env, cli_args=cli_args(workload, args.seed),
                      wall_s_samples=walls, setup_s_samples=setup,
                      end_to_end={k: {"value": v, "unit": u}
                                  for k, (v, u) in end_to_end.items()},
                      problems=problems)
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
