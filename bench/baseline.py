"""Record the benchmark baseline: every workload at seed 0, untraced and
traced, into bench/baseline.json.

Usage: python3 bench/baseline.py [--seconds S]

run.py compares later results against this file and marks them as not
comparable when the environment record differs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from run import BASELINE, BENCH, WORK
from workloads import WORKLOADS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seconds", default="35")
    args = ap.parse_args()
    WORK.mkdir(exist_ok=True)
    results, environment = {}, None
    for name in WORKLOADS:
        for trace in (0, 1):
            record_path = WORK / f"baseline-{name}-{trace}.json"
            subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", name,
                            "--seed", "0", "--seconds", args.seconds,
                            "--trace", str(trace), "--record", str(record_path)],
                           check=True, stdout=subprocess.DEVNULL)
            record = json.loads(record_path.read_text(encoding="utf-8"))
            record_path.unlink()
            environment = record.pop("environment")
            results.setdefault(name, {})[f"trace{trace}"] = record
            print(f"{name} trace {trace}: correct={record['correct']}", flush=True)
    BASELINE.write_text(json.dumps({"environment": environment, "results": results},
                                   indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
