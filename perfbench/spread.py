#!/usr/bin/env python3
"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload fold_large --seeds 1-10

Runs perfbench/run.py once per seed (sequentially, untraced) and prints,
for every end-to-end metric, the median, the quartile spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json. A spread
under a third of its bound is marked "ok", setup_s included.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print("seed %d: %d of %d checks FAILED" % (
                seed, result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, m["value"]) for n, m in result["metrics"].items())),
            flush=True)
    print("%-14s %12s %8s %6s" % ("metric", "median", "spread", "bound"))
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        spread = stats.quartile_spread(xs) if len(xs) > 1 else 0.0
        verdict = "ok" if spread < m["bound"] / 3 else "WIDE"
        print("%-14s %12.6g %8.4f %6.2f %s" % (
            m["name"], statistics.median(xs), spread, m["bound"], verdict))


if __name__ == "__main__":
    main()
