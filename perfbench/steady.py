#!/usr/bin/env python3
"""Steadiness mode: run every workload k times, interleaved, and report the
spread of every metric.

Run from the repository root:

    python3 perfbench/steady.py [--k 10] [--trace 0|1]
                                [--save FILE] [--against FILE]

Round r (from 1) runs each of BENCHMARK.json's workloads once with seed r
for its `run_seconds`, so a host slow patch lands on every workload instead
of on one. For each metric it prints the median, quartiles
(`statistics.quantiles(n=4)`), range, and the spread `(q3 - q1) / median`
next to the metric's bound from BENCHMARK.json: `ok` below a third of the
bound, `wide` below the bound, `FAIL` above it. `--save` writes the raw values;
`--against` compares this set's medians with a saved set and fails a metric
whose median got worse by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace, timeout):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result["metrics"]


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    parser.add_argument("--against")
    opts = parser.parse_args()
    if opts.k < 2:
        parser.error("--k must be at least 2 for quartiles")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    specs = {m["name"]: m for m in
             bench["per_layer" if opts.trace else "end_to_end"]}

    values = {w: {} for w in workloads}
    first = True
    for r in range(opts.k):
        seed = r + 1
        for w in workloads:
            started = time.monotonic()
            metrics = run_once(bench["command"], w, seed, seconds, opts.trace,
                               900 if first else 180)
            first = False
            for name, m in metrics.items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"round {r + 1}/{opts.k} {w} seed {seed}: "
                  f"{time.monotonic() - started:.1f} s", file=sys.stderr)

    baseline = json.loads(Path(opts.against).read_text()) if opts.against else {}
    failed = False
    print(f"{'workload':<12} {'metric':<34} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'min':>12} {'max':>12} {'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        for name, vals in values[w].items():
            q1, med, q3, rel = spread(vals)
            spec = specs.get(name, {})
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                if rel <= bound / 3:
                    verdict = "ok"
                elif rel <= bound:
                    verdict = "wide"
                else:
                    verdict, failed = "FAIL", True
                then = baseline.get(w, {}).get(name)
                if then:
                    old = statistics.median(then)
                    change = (med - old) / old if old else 0.0
                    worse = change if spec["better"] == "lower" else -change
                    verdict += f"; {change:+.1%} vs saved"
                    if worse > bound:
                        verdict, failed = verdict + " FAIL", True
            print(f"{w:<12} {name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{min(vals):>12.6g} {max(vals):>12.6g} {rel:>7.2%} "
                  f"{'' if bound is None else bound:>6}  {verdict}")
    if opts.save:
        Path(opts.save).write_text(json.dumps(values, indent=1))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
