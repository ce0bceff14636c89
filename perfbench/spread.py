#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

For every metric: the median over the seeds, and the distance between the
first and third quartile (statistics.quantiles, n=4) as a share of the
median. End-to-end metrics are compared with a third of their bound in
BENCHMARK.json, the steadiness target.

    python3 perfbench/spread.py --workload tc-dense --seeds 1-10
    python3 perfbench/spread.py --workload mst-dense --seeds 11-15 --trace 1

Run it from the repository root. By default it calls the benchmark
command of BENCHMARK.json (which builds on first use); --binary runs an
already built executable instead, e.g. one copy per commit to compare.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--binary", help="built benchmark executable to run")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in args.seeds:
        cmd = ([args.binary] if args.binary else bench["command"]) + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", args.trace,
        ]
        done = subprocess.run(cmd, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: incorrect output")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
            if n in bounds or args.trace == "1"), file=sys.stderr)

    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        verdict = ""
        # setup_s has no spread requirement, only a bound on its median.
        if bound is not None and name != "setup_s":
            ok = spread <= bound / 3
            steady &= ok
            verdict = "ok" if ok else f"ABOVE {bound / 3:.3f}"
        print(f"{name:32s} median {med:14.6g}  spread {spread:8.4f}  {verdict}")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
