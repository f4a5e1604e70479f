#!/usr/bin/env python3
"""Runs the benchmark several times per workload and reports, for every
metric, the median and quartiles across runs and the quartile spread as a
share of the median, next to the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--workloads cold,warm] [--seeds 1-10]
        [--trace 0|1] [--seconds S] [--bin PATH] [--out FILE]

Run it from the repository root. Each run uses its own seed. Without
--bin it runs the BENCHMARK.json command (building first if needed);
--out writes the summary as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", default=str(bench["run_seconds"]))
    ap.add_argument("--bin")
    ap.add_argument("--out")
    args = ap.parse_args()

    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            run = command + ["--workload", workload, "--seed", str(seed),
                             "--seconds", args.seconds, "--trace", args.trace]
            started = time.monotonic()
            proc = subprocess.run(run, capture_output=True, text=True)
            elapsed = time.monotonic() - started
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stdout + proc.stderr)
                sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, xs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
                ok = False
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": spread, "runs": len(xs)}
            print(f"  {workload:<6} {name:<28} median {med:<14.6g} q1 {q1:<14.6g} "
                  f"q3 {q3:<14.6g} spread {spread:7.2%}"
                  + (f" (bound {bound:.0%})" if bound is not None else "") + flag)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
