#!/usr/bin/env python3
"""Tiny-scale self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

For every workload, at a bank scale small enough to finish in seconds:
  * --trace 0 prints every end-to-end metric of BENCHMARK.json, non-zero and
    with its unit, and --trace 1 prints every per-layer metric;
  * a run whose first m8 is corrupted on purpose counts that as a failure,
    reports "correct": false and exits non-zero.
Exits 0 when every check holds.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCALE = "0.02"


def run(workload, trace, corrupt=False):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", SCALE] + (["--corrupt"] if corrupt else [])
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, json.loads(lines[-1]) if lines else None, p.stderr


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, result, err = run(w, trace)
            if code != 0 or result is None or not result["correct"]:
                problems.append(f"{w} trace={trace}: exit {code}: {err[-300:]}")
                continue
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{w} trace={trace}: {m['name']} missing "
                                    f"or not in {m['unit']}: {got}")
                elif trace == 0 and not got["value"] > 0:
                    problems.append(f"{w}: {m['name']} is {got['value']}")
            extra = set(metrics) - {m["name"] for m in wanted}
            if extra:
                problems.append(f"{w} trace={trace}: unexpected metrics "
                                f"{sorted(extra)}")
        code, result, _ = run(w, 0, corrupt=True)
        if code == 0 or result is None or result["correct"] \
                or result["failed"] < 1:
            problems.append(f"{w}: corrupted m8 not counted as a failure "
                            f"(exit {code}, {result and result['failed']})")
        print(f"selfcheck: {w} done", flush=True)
    for p in problems:
        print(f"selfcheck: FAIL {p}")
    print("selfcheck: ok" if not problems else "selfcheck: failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
