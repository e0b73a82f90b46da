#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the command in BENCHMARK.json once per seed for each workload,
parses the result line, and prints, per metric, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to a third of the metric's bound. It also prints
each run's output digest line and metric values, so same-seed runs can be
compared.

    python3 e2ebench/spread.py --workloads fleet_ingest --seeds 1-5
    python3 e2ebench/spread.py --seeds 1-10 --trace 1

Run from the repository root. Exits 1 if a run fails or reports
correct = false.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", args.seconds, "--trace", args.trace,
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            digest = next((l for l in lines if "_digest " in l), "")
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= bool(result["correct"])
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {digest}")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("   ", " ".join(f"{name}={m['value']:.6g}"
                                  for name, m in sorted(result["metrics"].items())))
        for name, vals in sorted(values.items()):
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            limit = bounds.get(name)
            mark = ""
            if limit is not None:
                mark = f"  bound/3 {limit / 3:.4f} {'ok' if spread < limit / 3 else 'WIDE'}"
            print(f"  {name:44} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                  f"  spread {spread:.4f}{mark}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
