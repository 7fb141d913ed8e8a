"""One fresh program process of the benchmark.

    python3 perfbench/child.py case <builtin name>... [--trace SPANS.jsonl]
    python3 perfbench/child.py files <case file>... [--trace SPANS.jsonl]

Imports pencil_forge (and with it sympy), builds the named built-in cases,
then times ``catalog.verify_case`` on each case, or
``cli.main(["verify", <file>, "--format", "json"])`` on each file in this
one warm process.  The last stdout line is a JSON object: the monotonic
clock when set-up ended, one entry per call (seconds, report, exit code),
the probe oracle's report, the peak RSS and, with --trace, the span summary.
pencil_forge must be importable (PYTHONPATH=src).
"""

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    mode, targets, trace_path = argv[0], argv[1:], None
    if "--trace" in targets:
        at = targets.index("--trace")
        trace_path = targets[at + 1]
        del targets[at:at + 2]
    if mode not in ("case", "files") or not targets:
        print(__doc__, file=sys.stderr)
        return 2

    import sympy  # noqa: F401
    from pencil_forge import catalog, cli, symcore

    imported = time.perf_counter()
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.record("setup.import", _START, imported)
        tracer.install()
    built = time.perf_counter()
    cases = [catalog.builtin_case(name) for name in targets] if mode == "case" else targets
    if tracer:
        tracer.record("setup.cases", built, time.perf_counter())
    ready = time.monotonic()

    ops = []
    for target, case in zip(targets, cases):
        if tracer:
            tracer.case = target
        out = io.StringIO()
        start = time.perf_counter()
        if mode == "case":
            report = catalog.verify_case(case)
            seconds = time.perf_counter() - start
            ops.append({"target": target, "seconds": seconds, "rc": None,
                        "report": report.to_dict()})
            continue
        with contextlib.redirect_stdout(out):
            rc = cli.main(["verify", case, "--format", "json"])
        seconds = time.perf_counter() - start
        report = json.loads(out.getvalue()) if rc in (0, 1) else None
        ops.append({"target": target, "seconds": seconds, "rc": rc, "report": report})

    checked, disagreements = symcore.probe_report()
    result = {
        "ready": ready,
        "ops": ops,
        "probe_checked": checked,
        "probe_disagreements": disagreements,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer:
        result["trace"] = tracer.summary(checked)
        tracer.write(trace_path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
