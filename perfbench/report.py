"""Print every benchmark metric, by name and unit, for every workload.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 20160626] [--seconds 40]

Runs each workload of ``BENCHMARK.json`` twice through ``run.py`` — once
untraced for the end-to-end metrics, once traced for the per-layer ones —
and prints one table row per metric. Exits non-zero if any run fails or
any output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            result = run(workload, args.seed, seconds, trace)
            ok = ok and result["correct"]
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"{workload:<13} {name:<36} {metric['value']:>16.6g} "
                      f"{metric['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
