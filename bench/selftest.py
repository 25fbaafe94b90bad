"""Show that the benchmark's output check can fail.

Usage: python3 bench/selftest.py

Runs grid_deep at seed 0 once, then feeds the run's check with:

* the untouched artifacts (must pass);
* one sigma_min value moved by 1e-12 relative, inside tolerance (must pass);
* one sigma_min value moved by 1e-6 relative, beyond tolerance (must fail);
* an artifact that differs from the set's first run (must fail);
* a CLI run that exits nonzero (must fail).

Exits 0 when every case behaves as stated.
"""

from __future__ import annotations

import shutil
import sys

from run import WORK, artifact_digests, launch, run_problems
from workloads import WORKLOADS, cli_args


def perturb_sigma(path, row: int, factor: float) -> None:
    lines = path.read_text(encoding="ascii").split("\n")
    re_, im_, sig = lines[row].split(",")
    lines[row] = f"{re_},{im_},{float(sig) * factor!r}"
    path.write_text("\n".join(lines), encoding="ascii")


def main() -> int:
    workload = WORKLOADS["grid_deep"]
    base = WORK / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    good = base / "good"
    cmd = [sys.executable, "-m", "rotspec.cli", *cli_args(workload, 0)]
    rec = launch(cmd + ["--out-dir", str(good)], good)
    problems = run_problems(workload, 0, good, rec, None)
    digests = artifact_digests(good, workload)
    cases = [("untouched artifacts", problems, False)]

    for name, factor, fails in (("sigma_min moved by 1e-12 relative", 1 + 1e-12, False),
                                ("sigma_min moved by 1e-6 relative", 1 + 1e-6, True)):
        out = base / "perturbed"
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(good, out)
        perturb_sigma(out / "grid_curr.csv", 100, factor)
        cases.append((name, run_problems(workload, 0, out, rec, None), fails))
        if not fails:
            cases.append(("artifact differs from the first run of the set",
                          run_problems(workload, 0, out, rec, digests), True))

    bad = base / "bad_exit"
    bad_cmd = [arg if arg != "0.5" else "-0.5" for arg in cmd]  # epsilon <= 0: usage error
    bad_rec = launch(bad_cmd + ["--out-dir", str(bad)], bad)
    cases.append(("CLI exits nonzero",
                  run_problems(workload, 0, bad, bad_rec, digests), True))

    ok = True
    for name, found, should_fail in cases:
        behaved = bool(found) == should_fail
        ok &= behaved
        verdict = "fails" if found else "passes"
        print(f"{'ok ' if behaved else 'BAD'} {name}: check {verdict}"
              + (f" ({found[0]})" if found else ""))
    shutil.rmtree(base, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
