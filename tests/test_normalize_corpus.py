"""Replays the normalization corpus under tests/golden/kernel/.

normalize.jsonl.gz holds one JSON object per line for every distinct tree
symcore._normalize receives while verifying the eleven built-in cases,
printing their recursion and Magri goldens, verifying the five
tests/golden/perturbed cases and verifying the eight case files of one
seed of the benchmark's perturbed cases (perfbench/work/rejects-seed1)
through cli.main:

    {"case": first run that met it, e.g. "verify g9", "perturbed g3-12"
     or "rejects g4-shift11-2u",
     "context": {"fields", "independents", "parameters",
                 "functions": [[name, argument text]]},
     "input": srepr of the tree,
     "out": srepr of the normal form's canonical tree}

with "error" and "message" in place of "out" where normalization raised.
The corpus changes only with a change that means to change normal forms.
"""

import functools
import gzip
import json
from pathlib import Path

import sympy as sp

from pencil_forge import symcore as sc

CORPUS = Path(__file__).parent / "golden" / "kernel" / "normalize.jsonl.gz"


@functools.lru_cache(maxsize=None)
def _entries() -> tuple[tuple[dict, sp.Expr], ...]:
    """Each entry with its input tree, parsed once for every test."""
    with gzip.open(CORPUS, "rt", encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    return tuple((entry, sp.sympify(entry["input"])) for entry in entries)


def _replay(tree: sp.Expr) -> dict:
    try:
        nf = sc._normalize.__wrapped__(tree)
    except Exception as exc:  # the corpus pins the error too
        return {"error": type(exc).__name__, "message": str(exc)}
    return {"out": sp.srepr(nf.rebuild())}


def test_corpus_covers_every_run():
    entries = [entry for entry, _ in _entries()]
    assert len(entries) > 500
    assert len({e["input"] for e in entries}) == len(entries)
    assert {e["case"].split()[0] for e in entries} >= {"verify", "magri", "perturbed", "rejects"}
    assert CORPUS.stat().st_size < 1_000_000


def test_input_trees_round_trip():
    for entry, tree in _entries():
        assert sp.srepr(tree) == entry["input"]


def test_corpus_replays_exactly():
    mismatches = []
    for entry, tree in _entries():
        want = {k: entry[k] for k in ("out", "error", "message") if k in entry}
        if _replay(tree) != want:
            mismatches.append((entry["case"], entry["input"][:80]))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[:3]}"
