"""Replays the antiderivative corpus tests/golden/kernel/antiderivative.jsonl.gz.

It holds one JSON object per line for every distinct call symcore.antiderivative
receives while verifying the eleven built-in cases, printing their recursion
and Magri goldens, verifying the five tests/golden/perturbed cases and the
case files of perfbench/work/rejects-seed*, and for extra integrands: those
of tests/test_symcore.py::TestAntiderivative, one degree-8 denominator
(-3*v*(alpha + 2*u)^3*(alpha*u - beta)^2*(3*u - 2*v + 1)^3 up to its
content) and a seeded random set with repeated linear factors, function
atoms and roots or logarithms in the coefficients, and irreducible
quadratic factors:

    {"case": first run that met it, e.g. "verify g1" or "random linear",
     "context": {"fields", "independents", "parameters",
                 "functions": [[name, argument text]]},
     "input": srepr of the integrand's canonical tree,
     "var": name of the variable of integration,
     "out": srepr of the result's canonical tree}

with "error" and "message" in place of "out" where the call raised.
The corpus changes only with a change that means to change antiderivatives.
"""

import functools
import gzip
import json
from pathlib import Path

import sympy as sp

from pencil_forge import symcore as sc
from test_kernel_corpus import _context

CORPUS = Path(__file__).parent / "golden" / "kernel" / "antiderivative.jsonl.gz"


@functools.lru_cache(maxsize=None)
def _entries() -> tuple[tuple[dict, sc.Expr], ...]:
    """Each entry with its integrand, parsed once for every test."""
    with gzip.open(CORPUS, "rt", encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    return tuple(
        (entry, sc.Expr(_context(json.dumps(entry["context"], sort_keys=True)),
                        sp.sympify(entry["input"])))
        for entry in entries
    )


def _replay(entry: dict, e: sc.Expr) -> dict:
    try:
        out = sc.antiderivative(e, entry["var"])
    except Exception as exc:  # the corpus pins the error too
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"out": sp.srepr(out.canonical)}


def test_corpus_covers_every_run():
    entries = [entry for entry, _ in _entries()]
    assert len(entries) > 100
    keys = {(json.dumps(e["context"], sort_keys=True), e["input"], e["var"])
            for e in entries}
    assert len(keys) == len(entries)
    assert {e["case"].split()[0] for e in entries} >= {
        "verify", "magri", "perturbed", "tests", "degree8", "random"}
    assert {e["var"] for e in entries} >= {"u", "v", "x"}
    quadratic = [e for e in entries if e["case"] == "random quadratic"]
    assert quadratic and all(e["error"] == "NotIntegrableError" for e in quadratic)
    assert CORPUS.stat().st_size < 100_000


def test_input_trees_round_trip():
    for entry, e in _entries():
        assert sp.srepr(e.raw) == entry["input"]


def test_corpus_replays_exactly():
    mismatches = []
    for entry, e in _entries():
        want = {k: entry[k] for k in ("out", "error", "message") if k in entry}
        if _replay(entry, e) != want:
            mismatches.append((entry["case"], entry["var"], entry["input"][:80]))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:3]}"
