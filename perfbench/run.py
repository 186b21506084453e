#!/usr/bin/env python3
"""Repository benchmark: build perfbench from source, run one workload, and
print its metrics as one JSON line (the last line of standard output).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under perfbench/, scratch files and the trace to
run-<workload>/ beside it. Every trial is checked; when
perfbench/reference.json holds digests for the seed, each trial must match
its recorded digest. The exit code is 0 only when every check passed.

    python3 perfbench/run.py --workload NAME --seed N --record

runs the workload briefly and records the seed's reference digests.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1_campaign", "million_flood", "fast_wakeup_parallel")
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="record this seed's reference digests")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    reference_path = os.path.join(HERE, "reference.json")
    reference = (load_json(reference_path)
                 if os.path.exists(reference_path) else {})

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                            ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(0.1 if args.record else args.seconds),
           "--trace", str(0 if args.record else args.trace),
           "--work-dir", os.path.join(build_dir, "run-" + args.workload)]
    expect = reference.get(args.workload, {}).get(str(args.seed))
    if expect and not args.record:
        cmd += ["--expect", ",".join(expect)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")

    if args.record:
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            return proc.returncode
        digests = next(l for l in lines if l.startswith("digests: "))
        reference.setdefault(args.workload, {})[str(args.seed)] = (
            digests[len("digests: "):].split(","))
        with open(reference_path, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"recorded {args.workload} seed {args.seed}")
        return 0

    try:
        result = json.loads(lines[-1])
        declared = bench["per_layer" if args.trace else "end_to_end"]
        if set(result["metrics"]) != {m["name"] for m in declared}:
            raise ValueError("printed metrics differ from BENCHMARK.json")
    except (ValueError, KeyError) as e:
        sys.stderr.write(proc.stdout)
        print(f"run.py: bad result line: {e}", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
