#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one metrics line.

    python3 perfbench/run.py --workload synth_cold|fold_large|serve_mix \\
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (a CMake project over
../src) into $CARGO_TARGET_DIR or .bench_build, runs the perfbench binary
in a fresh scratch directory (its own TMPDIR, jit cache and serve cache
directories), prints the named metrics with their units, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a trace run also writes a Chrome trace
(opens in Perfetto) under <build dir>/traces/. perfbench/meta.json says
what every metric means on every workload and holds the expected tiers
and certification verdicts the run checks against.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

ROOT = HERE.parent
WORKLOADS = ("synth_cold", "fold_large", "serve_mix")
FOLD_ELEMENTS = 1 << 24
BINARY_TIMEOUT_S = 175
# Environment switches that silently change which path runs.
PINNED_OFF = ("GRASSP_JIT_DISABLE", "GRASSP_DIST_NO_SHM")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(out):
    """Configures (once) and builds the perfbench target; returns it."""
    tree = out / "perfbench"
    log = out / "perfbench-build.log"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (tree / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(tree)])
    steps.append(["cmake", "--build", str(tree), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                f.flush()
                tail = log.read_text().splitlines()[-20:]
                fail("build failed (%s):\n%s" % (log, "\n".join(tail)))
    return tree / "perfbench"


def run_binary(binary, args, scratch, trace_file):
    env = {k: v for k, v in os.environ.items() if k not in PINNED_OFF}
    tmp = scratch / "tmp"
    tmp.mkdir(parents=True)
    env["TMPDIR"] = str(tmp)
    env["GRASSP_JIT_CACHE_DIR"] = str(scratch / "jit")
    meta = json.loads((HERE / "meta.json").read_text())["expected"]
    lines = ["tier %s %s" % kv for kv in sorted(meta["tiers"].items())]
    lines += ["verdict %s %s" % kv for kv in sorted(meta["verdicts"].items())]
    (scratch / "expect.txt").write_text("\n".join(lines) + "\n")
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--raw", str(scratch / "raw.json"),
           "--expect", str(scratch / "expect.txt"),
           "--jit-root", str(scratch / "jit"),
           "--trace-out", str(trace_file)]
    # Own session: on a timeout the whole group (server, solver and dist
    # workers included) is killed, and every process is waited for.
    proc = subprocess.Popen(cmd, cwd=scratch, env=env, start_new_session=True,
                            stdout=sys.stderr)
    try:
        rc = proc.wait(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (args.workload,
                                                BINARY_TIMEOUT_S))
    if rc != 0:
        fail("perfbench binary exited with %d" % rc)
    return json.loads((scratch / "raw.json").read_text())


class Raw:
    """Accessors over the binary's raw measurements."""

    def __init__(self, raw):
        self.samples = raw["samples"]
        self.values = raw["values"]
        self.labels = raw["labels"]

    def med(self, key, default=None):
        xs = self.samples.get(key)
        if not xs:
            if default is None:
                raise stats.InsufficientSamples("no samples of " + key)
            return default
        return stats.median(xs)

    def per_program(self, key):
        """{program: samples} of a per-program series key@program."""
        out = {}
        for k, xs in self.samples.items():
            base, _, prog = k.partition("@")
            if base == key and prog:
                out[prog] = xs
        return out

    def summed_medians(self, key, default=0.0):
        progs = self.per_program(key)
        return sum(stats.median(xs) for xs in progs.values()) if progs else default


def end_to_end(workload, r):
    """The slot values t1_s..t4_s plus the named metrics they map to."""
    if workload == "synth_cold":
        t = [r.med("synth_cold.pass_s"),
             stats.median(r.samples["synth_cold.program_s"]),
             r.med("synth_cold.synth_phase_s"),
             r.med("synth_cold.synth_cpu_s")]
        named = [("synth_wall_s", t[0], "s"), ("synth_p50_s", t[1], "s"),
                 ("certify_s", r.summed_medians("chc.certify_s"), "s")]
        counts = {"passes": len(r.samples["synth_cold.pass_s"]),
                  "programs": len(r.samples["synth_cold.program_s"])}
    elif workload == "fold_large":
        per = [stats.geomean([stats.median(xs) for xs in
                              r.per_program(path).values()])
               for path in ("fold.serial_s", "fold.pool_s", "fold.dist_s")]
        upd = r.samples["tree.update_s"]
        qry = r.samples["tree.query_s"]
        t = per + [stats.median(upd)]
        named = [("fold_serial_eps", stats.elements_per_second(FOLD_ELEMENTS, per[0]), "1/s"),
                 ("fold_pool_eps", stats.elements_per_second(FOLD_ELEMENTS, per[1]), "1/s"),
                 ("fold_dist_eps", stats.elements_per_second(FOLD_ELEMENTS, per[2]), "1/s"),
                 ("stream_update_p50_s", t[3], "s"),
                 ("mergetree_query_p50_s", stats.median(qry), "s"),
                 ("fold_round_s", r.summed_medians("fold_large.round_s"), "s")]
        tail = stats.tail_percentile(upd)
        if tail:
            named.append(("stream_update_p%g_s" % (tail[0] * 100), tail[1], "s"))
        counts = {"rounds": min(len(x) for x in r.per_program("fold.serial_s").values()),
                  "updates": len(upd), "queries": len(qry)}
    else:
        hits = r.samples["serve.hit_s"]
        runs = r.samples["serve.run_s"]
        window, requests = r.values["serve.window_s"], r.values["serve.requests"]
        # Hits and runs are gated apart; serve_rps blends them with the
        # workload's chosen 1-in-4 run share, so it is printed only.
        t = [stats.percentile(runs, 0.9), stats.median(hits),
             stats.percentile(hits, 0.99), stats.median(runs)]
        named = [("serve_run_p90_s", t[0], "s"),
                 ("serve_hit_p50_s", t[1], "s"),
                 ("serve_hit_p99_s", t[2], "s"),
                 ("serve_run_p50_s", t[3], "s"),
                 ("serve_run_p99_s", stats.percentile(runs, 0.99), "s"),
                 ("serve_rps", requests / window, "1/s"),
                 ("serve_miss_p50_s", r.med("serve.miss_s"), "s")]
        counts = {"hits": len(hits), "runs": len(r.samples["serve.run_s"]),
                  "misses": len(r.samples["serve.miss_s"])}
    return t, named, counts


def per_layer(raw, r, trace_file, names):
    out = {n: 0.0 for n in names}
    for n in names:
        if n.startswith("synth.task_s."):
            out[n] = r.med(n, 0.0)
    for n in ("synth.candidates", "synth.ladder_attempts", "smt.checks",
              "smt.unknowns", "chc.certify_max_s", "dist.bytes_per_elem",
              "serve.miss_s", "serve.solve_s", "serve.miss_wait_s"):
        out[n] = r.med(n, 0.0)
    for n in ("ir.plan_build_s", "jit.cold_build_s", "jit.compiles",
              "jit.disk_hits", "jit.memory_hits", "jit.failures",
              "dist.prewarm_s", "dist.cold_run_s", "serve.hit_ratio",
              "serve.coalesced", "serve.shed", "serve.solver_respawns"):
        out[n] = r.values.get(n, 0.0)
    for n in names:
        if n.startswith("runtime.ns_per_elem."):
            out[n] = r.values.get(n, 0.0)
    for n in ("runtime.pool.worker_max_s", "runtime.pool.merge_s",
              "runtime.pool.wait_s", "runtime.pool.retries",
              "runtime.mergetree.append_s", "runtime.mergetree.replace_s",
              "runtime.mergetree.query_s", "runtime.mergetree.combines",
              "chc.certify_s",
              "dist.warm_run_s", "dist.merge_s", "dist.floor_s",
              "dist.task_frames", "dist.publish_frames", "dist.recoveries"):
        out[n] = r.summed_medians(n)
    events = json.loads(trace_file.read_text())["traceEvents"]
    shares, _ = stats.layer_shares(events)
    for n in names:
        if n.startswith("layer.") and n.endswith(".share"):
            out[n] = shares.get(n[len("layer."):-len(".share")], 0.0)
    out["trace.uncovered_share"] = shares.get("bench", 0.0)
    out["trace.overhead_frac"] = (r.values["trace.traced_unit_s"] /
                                  r.values["trace.untraced_unit_s"] - 1)
    out["chc.verdict_mismatches"] = float(sum(
        len(xs) for xs in r.per_program("chc.verdict_mismatch").values()))
    out["error_frac"] = raw["failed"] / max(1, raw["attempted"])
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative", 2)
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        fail("no GRASSP sources at %s; run from a full checkout" % ROOT, 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = build_dir()
    binary = build(out)
    scratch = out / "runs" / ("%s-s%d-%d" % (args.workload, args.seed,
                                             os.getpid()))
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_file = traces / ("%s-seed%d.json" % (args.workload, args.seed))
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        raw = run_binary(binary, args, scratch, trace_file)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    r = Raw(raw)

    print("workload %s seed %d seconds %d trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host " + json.dumps({k[5:]: v for k, v in sorted(r.labels.items())
                                if k.startswith("host.")}))
    tiers = {k[len("runtime.tier."):]: v for k, v in r.labels.items()
             if k.startswith("runtime.tier.")}
    if tiers:
        print("tiers " + json.dumps(tiers, sort_keys=True))
    for note in raw["failures"]:
        print("FAILED " + note)

    if args.trace:
        metrics = per_layer(raw, r, trace_file,
                            [m["name"] for m in spec["per_layer"]])
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print("trace %s (%d spans)" % (trace_file,
                                       int(r.values.get("trace.spans", 0))))
    else:
        t, named, counts = end_to_end(args.workload, r)
        metrics = {"setup_s": stats.median(r.samples["setup_s"]),
                   "peak_rss_mb": (r.values["rss.self_kb"] +
                                   r.values["rss.children_kb"]) / 1024}
        for i, v in enumerate(t):
            metrics["t%d_s" % (i + 1)] = v
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        for name, v, unit in named:
            print("%-24s %.6g %s" % (name, v, unit))
        print("error_frac               %.6g (%d of %d checks failed)" % (
            raw["failed"] / max(1, raw["attempted"]), raw["failed"],
            raw["attempted"]))
        print("samples " + json.dumps(counts))
    for name in units:
        print("%-40s %.6g %s" % (name, metrics[name], units[name]))
    result = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
