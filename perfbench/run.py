"""pencil-forge benchmark: one workload, measured end to end or traced.

    python3 perfbench/run.py --workload radical|catalog|rejects \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each round runs the workload's program
processes (perfbench/child.py) one after another; rounds repeat until S
seconds have passed and at least MIN_ROUNDS have run, so every run attempts
whole rounds.  Afterwards every
verdict is checked: the expected PASS/FAIL, no check ending in "error",
the probe oracle's report on ``catalog``, and agreement of the
``curvature_constant`` and ``killing`` checks with the independent
evaluator in perfbench/reference.py at seed-drawn points.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones; with --trace 1, rounds alternate untraced and traced and the metrics
are the per-layer ones, medians over the traced rounds, plus the tracing
overhead.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
RESULTS = HERE / "results"

WORKLOADS = ("radical", "catalog", "rejects")
CATALOG = ("g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8", "astigmatism", "wdvv3")
# two-component families whose perturbations finish in seconds; g9's do not
REJECT_FAMILIES = ("g1", "g2", "g3", "g4", "g5", "g6", "g7", "g8")
# small integer shifts: rational ones cost ~15% more and would make the
# round's cost depend on the seed
REJECT_SHIFTS = (1, 2, 3, -1, -2, -3)
CATALOG_PROBES = 100
CHILD_TIMEOUT_S = 170
# one g9 round takes 14-19 s and a catalog round about 20 s, so a 20 s run
# would often have a single round; two give every median two samples and,
# traced, one untraced round to take the overhead against
MIN_ROUNDS = 2


class Job:
    """One program process: child.py arguments plus the case data and the
    verdict each target must get."""

    def __init__(self, mode, targets, cases, expect_pass, probes=0):
        self.mode = mode
        self.targets = targets
        self.cases = cases  # target -> case data dict
        self.expect_pass = expect_pass
        self.probes = probes


def make_jobs(workload: str, seed: int) -> list[Job]:
    sys.path.insert(0, str(ROOT / "src"))
    from pencil_forge import catalog

    rng = random.Random(f"{workload}:{seed}")
    if workload == "radical":
        return [Job("case", ["g9"], {"g9": catalog.builtin_case("g9").data}, True)]
    if workload == "catalog":
        names = list(CATALOG)
        rng.shuffle(names)
        return [Job("case", [name], {name: catalog.builtin_case(name).data}, True,
                    probes=CATALOG_PROBES) for name in names]
    out_dir = WORK / f"rejects-seed{seed}"
    out_dir.mkdir(parents=True, exist_ok=True)
    # a fixed order: the files share one warm process, and each file's time
    # depends on what the sympy cache already holds
    cases = {}
    for family in REJECT_FAMILIES:
        data = dict(catalog.builtin_case(family).data)
        data.pop("references", None)
        shift = rng.choice(REJECT_SHIFTS)
        first = data["coordinates"][0]
        metric = [list(row) for row in data["metric"]]
        sign = "+" if shift > 0 else "-"
        metric[0][0] = f"({metric[0][0]}) {sign} {abs(shift)}*{first}"
        data["metric"] = metric
        data["name"] = f"{family}-shift11-{shift}{first}"
        data["description"] = f"{family} with metric entry (1,1) shifted by {shift}*{first}"
        path = out_dir / f"{data['name']}.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        cases[str(path)] = data
    return [Job("files", list(cases), cases, False)]


def run_job(job: Job, trace_path: Path | None) -> dict:
    """Runs one child process; returns its result with setup_s added, or
    {"crash": message}."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PENCIL_FORGE_PROBES", None)
    if job.probes:
        env["PENCIL_FORGE_PROBES"] = str(job.probes)
    cmd = [sys.executable, str(HERE / "child.py"), job.mode, *job.targets]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crash": f"timed out after {CHILD_TIMEOUT_S}s: {job.targets}"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def op_problems(job: Job, op: dict) -> tuple[str | None, str | None]:
    """(failure, wrong output) for one verified case, each None if absent."""
    report = op["report"]
    if report is None or op["rc"] not in (None, 0, 1):
        return f"{op['target']}: exit {op['rc']}", None
    errors = [c["name"] for c in report["checks"] if c["status"] == "error"]
    if errors:
        return f"{op['target']}: checks ended in error: {errors}", None
    if report["passed"] != job.expect_pass:
        want = "PASS" if job.expect_pass else "FAIL"
        failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
        return None, f"{op['target']}: expected {want}, failing checks {failing}"
    if op["rc"] is not None and op["rc"] != (0 if job.expect_pass else 1):
        return None, f"{op['target']}: exit code {op['rc']}"
    return None, None


def check_reference(jobs: list[Job], rounds: list, seed: int) -> list[str]:
    """Compares the program's curvature_constant and killing verdicts with
    the independent evaluator; returns the disagreements."""
    from reference import reference_verdicts

    wrong = []
    expected = {}
    for job in jobs:
        for target, data in job.cases.items():
            expected[target] = reference_verdicts(data, seed=f"{seed}:{data['name']}")
    for results in rounds:
        for result in results:
            for op in result.get("ops", ()):
                if op["report"] is None:
                    continue
                status = {c["name"]: c["status"] == "pass" for c in op["report"]["checks"]}
                ref = expected[op["target"]]
                for check in ("curvature_constant", "killing"):
                    if status.get(check) != ref[check]:
                        wrong.append(f"{op['target']}: {check} is {status.get(check)},"
                                     f" reference evaluator says {ref[check]}")
    return wrong


def median(values):
    return statistics.median(values) if values else 0.0


def with_units(values: dict, key: str) -> dict:
    """Attaches the units BENCHMARK.json gives under ``key``, the one place
    the metric names and units are written down; the measured names must
    be exactly the listed ones."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[key]}
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} are"
                         f" not both measured and listed in BENCHMARK.json {key}")
    out = {}
    for name, unit in units.items():
        value = values[name]
        if unit == "count" and float(value).is_integer():
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pencil_forge" / "__init__.py").is_file():
        print(f"error: no pencil_forge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))

    jobs = make_jobs(args.workload, args.seed)
    trace_dir = RESULTS / f"trace-{args.workload}-seed{args.seed}"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    rounds, traced_flags = [], []
    began = time.monotonic()
    while len(rounds) < MIN_ROUNDS or time.monotonic() - began < args.seconds:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        results = []
        for j, job in enumerate(jobs):
            path = trace_dir / f"round{len(rounds)}-job{j}.jsonl" if traced else None
            results.append(run_job(job, path))
        rounds.append(results)
        traced_flags.append(traced)

    attempted = failed = 0
    problems = []
    for results in rounds:
        for job, result in zip(jobs, results):
            attempted += len(job.targets)
            if "crash" in result:
                failed += len(job.targets)
                print(f"FAILED: {result['crash']}", file=sys.stderr)
                continue
            for op in result["ops"]:
                failure, wrong = op_problems(job, op)
                if failure:
                    failed += 1
                    print(f"FAILED: {failure}", file=sys.stderr)
                if wrong:
                    problems.append(wrong)
            if job.probes and (result["probe_checked"] == 0 or result["probe_disagreements"]):
                problems.append(f"{job.targets}: probe oracle checked"
                                f" {result['probe_checked']} zero tests,"
                                f" disagreements {result['probe_disagreements']}")
    problems += check_reference(jobs, rounds, args.seed)
    for p in problems:
        print(f"INCORRECT: {p}", file=sys.stderr)

    def round_wall(results):
        return sum(op["seconds"] for r in results for op in r.get("ops", ()))

    plain = [r for r, t in zip(rounds, traced_flags) if not t]
    if args.trace:
        metrics = layer_metrics(rounds, traced_flags, median([round_wall(r) for r in plain]))
        print_layers(args.workload, metrics)
    else:
        results = [r for rs in plain for r in rs if "crash" not in r]
        # each case's median over the rounds first: the median of the pooled
        # times would jump between cases as the number of rounds changes
        per_case = {}
        for r in results:
            for op in r["ops"]:
                per_case.setdefault(op["target"], []).append(op["seconds"])
        values = {
            "setup_s": median([r["setup_s"] for r in results]),
            "wall_s": median([round_wall(rs) for rs in plain]),
            "case_s_p50": median([median(v) for v in per_case.values()]),
            "peak_rss_mb": max((r["maxrss_kb"] / 1024 for r in results), default=0.0),
        }
        metrics = with_units(values, "end_to_end")
        for k, m in metrics.items():
            print(f"{args.workload} {k} = {m['value']:.4f} {m['unit']}"
                  f" ({len(plain)} rounds, {attempted} cases)")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(rounds, traced_flags, plain_wall: float) -> dict:
    from tracer import layer_metric_names

    names = layer_metric_names()
    per_round = []
    for results, traced in zip(rounds, traced_flags):
        if not traced:
            continue
        sums = dict.fromkeys(names, 0.0)
        wall = 0.0
        for result in results:
            for key, value in result.get("trace", {}).items():
                sums[key] += value
            wall += sum(op["seconds"] for op in result.get("ops", ()))
        sums["trace.overhead_s"] = wall - plain_wall
        per_round.append(sums)
    return with_units({name: median([r[name] for r in per_round]) for name in names},
                      "per_layer")


def print_layers(workload: str, metrics: dict):
    print(f"{workload}: per-module self time (median over traced rounds)")
    from tracer import WRAPPED, function_spans

    for mod in WRAPPED:
        print(f"  {mod:<10} {metrics[f'{mod}.self_s']['value']:9.4f} s")
    print(f"{workload}: per-function calls, self and total seconds")
    for name in function_spans():
        calls = metrics[f"{name}.calls"]["value"]
        if calls:
            print(f"  {name:<34} {calls:>7} {metrics[f'{name}.self_s']['value']:9.4f}"
                  f" {metrics[f'{name}.total_s']['value']:9.4f}")
    print(f"  normal-form cache hits {metrics['symcore.normalize.cache_hits']['value']},"
          f" probed zero tests {metrics['symcore.probe.checked']['value']}")
    print(f"{workload}: tracing overhead {metrics['trace.overhead_s']['value']:.4f} s"
          " (traced minus untraced wall_s)")


if __name__ == "__main__":
    sys.exit(main())
