#!/usr/bin/env python3
"""Measure the benchmark baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py [--commit TEXT]

Run it from the repository root. For every workload in BENCHMARK.json it
makes two sets of ten untraced runs (seeds 1..10) and reports each
end-to-end metric's median, quartiles and spread (interquartile distance as
a share of the median, as statistics.quantiles(values, n=4) gives them),
and how far the second set's median moved from the first. Each spread and
each move is checked against the metric's bound. One run on the held-out
seed 1000 is compared with the first set's median against each bound. One traced run (seed 1) gives the per-layer
metrics; its trace file is copied to perfbench/baseline/. Host provenance
is recorded alongside. Exit 1 when a run fails or a check misses its bound.
"""
import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = list(range(1, 11))
HELD_OUT_SEED = 1000
SETS = 2


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1]) if proc.returncode == 0 else None
    if result is None or not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"{workload} seed {seed} trace {trace}: "
          + " ".join(f"{k}={v:.6g}" for k, v in values.items()), flush=True)
    return values, lines


def worse_by(metric, value, base):
    """How much worse `value` is than `base`, as a share of `base`."""
    change = value / base - 1.0
    return -change if metric["better"] == "higher" else change


def summarize(runs):
    out = {}
    for name in runs[0]:
        values = [r[name] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "values": values}
    return out


def host_provenance(lines, commit):
    head = "\n".join(lines[:2])
    cpu = re.search(r'host cpu "([^"]*)"', head)
    build = re.search(r"build (\S+)\s+(.+?)\s+flags:(.*)", head)
    if commit is None:
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL,
                                    text=True).stdout.strip() or "unknown"
        except OSError:
            commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu.group(1) if cpu else "unknown",
        "build_type": build.group(1) if build else "unknown",
        "compiler": build.group(2) if build else "unknown",
        "cxx_flags": build.group(3).strip() if build else "unknown",
        "commit": commit,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--commit", help="commit measured (default: git HEAD)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    out = {"host": None, "run_seconds": seconds,
           "seeds": SEEDS, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    ok = True
    os.makedirs(os.path.join(HERE, "baseline"), exist_ok=True)
    for w in (x["name"] for x in bench["workloads"]):
        entry = {}
        sets = [summarize([run(w, s, seconds, 0)[0] for s in SEEDS])
                for _ in range(SETS)]
        entry["end_to_end"], entry["end_to_end_second_set"] = sets
        for name, m in metrics.items():
            for k, summary in enumerate(sets):
                if summary[name]["spread"] > m["bound"]:
                    print(f"{w} {name}: set {k + 1} spread exceeds bound "
                          f"{m['bound']}")
                    ok = False
            moved = worse_by(m, sets[1][name]["median"],
                             sets[0][name]["median"])
            sets[1][name]["worse_by"] = moved
            if moved > m["bound"]:
                print(f"{w} {name}: second median worse by {moved:.3f}")
                ok = False

        held, lines = run(w, HELD_OUT_SEED, seconds, 0)
        entry["held_out"] = {}
        for name, m in metrics.items():
            moved = worse_by(m, held[name], entry["end_to_end"][name]["median"])
            within = moved <= m["bound"]
            entry["held_out"][name] = {"value": held[name], "worse_by": moved,
                                       "within_bound": within}
            ok = ok and within
        if out["host"] is None:
            out["host"] = host_provenance(lines, args.commit)
        threads = re.search(r"threads (\d+)", lines[0])
        entry["threads"] = int(threads.group(1)) if threads else None

        layers, lines = run(w, SEEDS[0], seconds, 1)
        entry["per_layer"] = layers
        trace = next((l.split(" -> ")[1] for l in lines
                      if l.startswith("trace: ")), None)
        if trace:
            dest = os.path.join("perfbench", "baseline",
                                os.path.basename(trace))
            shutil.copyfile(trace, os.path.join(ROOT, dest))
            entry["trace_file"] = dest
        out["workloads"][w] = entry

    with open(os.path.join(HERE, "baseline.json"), "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("wrote perfbench/baseline.json" + ("" if ok else " (checks FAILED)"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
