"""Replays the kernel corpus under tests/golden/kernel/.

diff.jsonl.gz holds one JSON object per line for every distinct
derivative the program takes while verifying the eleven built-in cases,
printing their recursion and Magri goldens, verifying one seed of the
benchmark's perturbed case files (perfbench/work/rejects-seed1) and
running tests/test_symcore.py and tests/test_hierarchy.py:

    {"case": first case that met it, "context": {"fields", "independents",
     "parameters", "functions": [[name, argument text]]},
     "op": "diff" | "total_x_derivative", "var": symbol name or null,
     "input": srepr of the operand's canonical tree,
     "out": srepr of the result's canonical tree}

with "error" and "message" in place of "out" where the call raised.
The corpus changes only with a change that means to change derivatives.
"""

import functools
import gzip
import json
from pathlib import Path

import sympy as sp

from pencil_forge import symcore as sc

CORPUS = Path(__file__).parent / "golden" / "kernel" / "diff.jsonl.gz"


def _entries() -> list[dict]:
    with gzip.open(CORPUS, "rt", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@functools.lru_cache(maxsize=None)
def _context(spec: str) -> sc.Context:
    data = json.loads(spec)
    return sc.Context(
        fields=data["fields"],
        independents=data["independents"],
        parameters=data["parameters"],
        functions=[tuple(f) for f in data["functions"]],
    )


def _replay(entry: dict) -> dict:
    ctx = _context(json.dumps(entry["context"], sort_keys=True))
    e = sc.Expr(ctx, sp.sympify(entry["input"]))
    try:
        if entry["op"] == "diff":
            out = sc.diff(e, entry["var"])
        else:
            out = sc.total_x_derivative(e)
    except Exception as exc:  # the corpus pins the error too
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"out": sp.srepr(out.canonical)}


def test_corpus_covers_both_operations():
    entries = _entries()
    assert len(entries) > 500
    assert {e["op"] for e in entries} == {"diff", "total_x_derivative"}
    assert any("error" in e for e in entries)


def test_input_trees_round_trip():
    for entry in _entries():
        assert sp.srepr(sp.sympify(entry["input"])) == entry["input"]


def test_corpus_replays_exactly():
    mismatches = []
    for entry in _entries():
        want = {k: entry[k] for k in ("out", "error", "message") if k in entry}
        got = _replay(entry)
        if got != want:
            mismatches.append((entry["case"], entry["op"], entry["var"]))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:3]}"
