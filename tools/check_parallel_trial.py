#!/usr/bin/env python3
"""Gate the round-parallel sync engine (bench_million_node part two).

Parses the ``PARHOST``/``PARJOB`` lines that ``bench_million_node`` prints —
one PARJOB row per ``--trial-jobs`` value — and fails (exit 1) unless:

  * every row's ``digest`` equals the trial-jobs=1 row (the deterministic-
    reduction contract: every chunk count is bit-identical to one chunk
    per round), and
  * every row's ``allocs`` is 0 (the steady-state zero-allocation contract
    extends to the parallel path), and
  * the largest-jobs row shows ``speedup >= --efficiency x
    min(trial_jobs, cores)`` (default efficiency 0.6) — SKIPPED, never the
    digest or allocation checks, when the machine has fewer than
    --min-cores (default 4) hardware threads, because a speedup target is
    meaningless without real parallelism. The skip is printed loudly.

Typical CI usage:

    bench_million_node --n 1000000 --trials 3 --trial-jobs 1,4 | tee out.txt
    python3 tools/check_parallel_trial.py out.txt

Standard library only; no third-party dependencies.
"""

import argparse
import re
import sys

PARHOST = re.compile(r"^PARHOST cores=(\d+)")
PARJOB = re.compile(
    r"^PARJOB jobs=(\d+) digest=([0-9a-f]+) best_ms=([0-9.]+) "
    r"events=(\d+) evps=([0-9.]+)M allocs=(\d+) speedup=([0-9.]+)"
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", help="captured bench_million_node stdout")
    parser.add_argument(
        "--efficiency",
        type=float,
        default=0.6,
        help="required fraction of min(trial_jobs, cores) as speedup "
        "(default 0.6)",
    )
    parser.add_argument(
        "--min-cores",
        type=int,
        default=4,
        help="skip the speedup gate (never digest/allocs) below this many "
        "hardware threads (default 4)",
    )
    args = parser.parse_args()

    cores = None
    rows = []
    with open(args.output, encoding="utf-8") as f:
        for line in f:
            if m := PARHOST.match(line):
                cores = int(m.group(1))
            elif m := PARJOB.match(line):
                rows.append(
                    {
                        "jobs": int(m.group(1)),
                        "digest": m.group(2),
                        "best_ms": float(m.group(3)),
                        "events": int(m.group(4)),
                        "allocs": int(m.group(6)),
                        "speedup": float(m.group(7)),
                    }
                )

    if cores is None:
        raise SystemExit("error: no PARHOST line in the output")
    if len(rows) < 2:
        raise SystemExit("error: need at least two PARJOB rows (got %d)"
                         % len(rows))
    base = next((r for r in rows if r["jobs"] == 1), None)
    if base is None:
        raise SystemExit("error: no trial-jobs=1 baseline row")

    failures = []
    for row in rows:
        print(
            f"[row] jobs={row['jobs']}: digest={row['digest']} "
            f"best_ms={row['best_ms']:.1f} speedup={row['speedup']:.2f}x "
            f"allocs={row['allocs']}"
        )
        if row["digest"] != base["digest"]:
            failures.append(
                f"jobs={row['jobs']}: digest {row['digest']} != sequential "
                f"{base['digest']} (determinism bug)"
            )
        if row["allocs"] != 0:
            failures.append(
                f"jobs={row['jobs']}: {row['allocs']} steady-state "
                "allocations (gate: 0)"
            )

    top = max(rows, key=lambda r: r["jobs"])
    if top["jobs"] > 1:
        if cores < args.min_cores:
            print(
                f"SKIP speedup gate: {cores} hardware thread(s) < "
                f"{args.min_cores} (digest + allocation gates still applied)"
            )
        else:
            target = args.efficiency * min(top["jobs"], cores)
            verdict = "ok" if top["speedup"] >= target else "FAIL"
            print(
                f"[gate] jobs={top['jobs']} on {cores} cores: speedup "
                f"{top['speedup']:.2f}x vs target {target:.2f}x -> {verdict}"
            )
            if top["speedup"] < target:
                failures.append(
                    f"jobs={top['jobs']}: speedup {top['speedup']:.2f}x "
                    f"below {target:.2f}x "
                    f"({args.efficiency:.2f} x min(jobs, cores))"
                )
    else:
        failures.append("no trial-jobs > 1 row to gate")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print(f"OK ({len(rows)} rows, digest {base['digest']}, {cores} cores)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
