"""Runs benchmark workloads repeatedly and prints each metric's quartiles.

    python3 perfbench/repeat.py [--workloads radical,catalog,rejects]
        [--runs 10] [--first-seed 1] [--against FIRST_SEED]

Each run is ``perfbench/run.py --trace 0`` for BENCHMARK.json's run_seconds,
in its own process, with seeds first-seed, first-seed+1, ...  For every
workload and end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the quartile spread as
a share of the median, next to the metric's bound.  The runs are written to
perfbench/results/repeat-<workload>-seed<first-seed>.json.  With --against,
it also prints how far each median lies from the median of the set saved
for that first seed, as a share of the saved median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="radical,catalog,rejects")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--against", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    (HERE / "results").mkdir(exist_ok=True)

    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']}"
                  f" attempted={result['attempted']} failed={result['failed']}",
                  flush=True)
        out = HERE / "results" / f"repeat-{workload}-seed{args.first_seed}.json"
        out.write_text(json.dumps(runs, indent=1) + "\n")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, failed share {sorted(shares)},"
              f" all correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<12} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}"
                  f"  spread {spread:7.2%}  bound {bounds[name]}", flush=True)
        if args.against is not None:
            saved = json.loads((HERE / "results" /
                                f"repeat-{workload}-seed{args.against}.json").read_text())
            for name in runs[0]["metrics"]:
                old = statistics.median(r["metrics"][name]["value"] for r in saved)
                new = statistics.median(r["metrics"][name]["value"] for r in runs)
                print(f"  {name:<12} median {new:12.5g} against {old:12.5g}"
                      f" (seeds from {args.against}): {new / old - 1:+7.2%}"
                      f"  bound {bounds[name]}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
