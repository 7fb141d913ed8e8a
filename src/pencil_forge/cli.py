"""Command-line front end.

Subcommands: verify a builtin case or case file, print a recursion
operator in the factored matrix layout, run Magri steps from a seed
density, and list or export the builtin catalog.  Reports go to stdout
(text or JSON), diagnostics to stderr.  Exit codes: 0 all checks pass,
1 at least one check failed or a recursion obstruction occurred,
2 load, schema or parse errors, 141 (128 + SIGPIPE) standard output was
closed before the whole report was written, as when a pipe's reader exits.

The environment variable PENCIL_FORGE_PROBES (an integer point count)
enables the oracle behind every zero test: exact evaluation modulo the
prime 2^61 - 1 at that many seeded rational points, once per distinct
expression tree and process, its verdict reused for equal trees.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog as cat
from . import hierarchy as hy
from . import symcore as sc
from .catalog import CaseFileError, CaseRecord, ValidationReport, validate_case_data

__all__ = ["main", "CaseFileError", "load_case_file", "validate_case_data"]


def load_case_file(path: str) -> CaseRecord:
    """Loads, schema-checks and parse-checks a case file; the parse takes
    the normal form of every metric, isometry, epsilon and c entry, so an
    entry outside the kernel's class is refused here, by name and text."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CaseFileError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CaseFileError(f"invalid JSON in {path}: {exc}") from exc
    case = CaseRecord(data)
    try:
        case.metric(), case.isometry(), case.epsilon(), case.c()
    except (sc.ParseError, ValueError) as exc:
        raise CaseFileError(f"expression error in {path}: {exc}") from exc
    return case


def _resolve_target(target: str) -> CaseRecord:
    looks_like_path = (
        target.endswith(".json") or os.sep in target or target.startswith(".")
    )
    if looks_like_path or os.path.exists(target):
        return load_case_file(target)
    try:
        return cat.builtin_case(target)
    except KeyError:
        names = ", ".join(c.name for c in cat.builtin_cases())
        raise CaseFileError(
            f"unknown case {target!r}; builtin cases: {names}"
        ) from None


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _print_report(report: ValidationReport, fmt: str):
    if fmt == "json":
        print(_dump_json(report.to_dict()))
        return
    verdict = "PASS" if report.passed else "FAIL"
    print(f"case {report.case}: {verdict} ({report.seconds:.2f}s)")
    for c in report.checks:
        line = f"  [{c.status}] {c.name} ({c.seconds:.2f}s)"
        if c.witness:
            line += f": {c.witness}"
        print(line)


def cmd_verify(args) -> int:
    case = _resolve_target(args.target)
    report = cat.verify_case(case)
    _print_report(report, args.format)
    return 0 if report.passed else 1


def _coeff_str(e: sc.Expr) -> str:
    text = str(e)
    if " + " in text or " - " in text or text.startswith("-"):
        return f"({text})"
    return text


def _symbol_str(sym: hy.OperatorSymbol) -> str:
    pieces = []
    if not sc.is_zero(sym.dx):
        if sym.dx.equals(1):
            pieces.append("Dx")
        else:
            pieces.append(f"{_coeff_str(sym.dx)}*Dx")
    mult = str(sym.mult)
    if not sc.is_zero(sym.mult):
        pieces.append(mult)
    for left, right in sym.tails:
        lt = "" if left.equals(1) else f"{_coeff_str(left)}*"
        rt = "" if right.equals(1) else f"*{_coeff_str(right)}"
        pieces.append(f"{lt}Dx^-1{rt}")
    if not pieces:
        return "0"
    out = pieces[0]
    for p in pieces[1:]:
        if p.startswith("-"):
            out += f" - {p[1:]}"
        else:
            out += f" + {p}"
    return out


def _symbol_dict(sym: hy.OperatorSymbol) -> dict:
    return {
        "dx": str(sym.dx),
        "mult": str(sym.mult),
        "tails": [[str(l), str(r)] for l, r in sym.tails],
    }


def cmd_recursion(args) -> int:
    case = _resolve_target(args.target)
    ref = case.references.get("recursion") or {}
    op = cat._bind_operator(case, ref.get("binds"))
    R = hy.recursion_operator(case.eta(), op)
    has_reference = "entries" in ref
    if args.format == "json":
        payload = {
            "case": case.name,
            "trailing": "Dx^-1",
            "entries": [
                [_symbol_dict(R.entries[i][j]) for j in range(R.n)]
                for i in range(R.n)
            ],
        }
        if not has_reference:
            payload["note"] = "no printed reference"
        print(_dump_json(payload))
        return 0
    n = R.n
    cells = [[_symbol_str(R.entries[i][j]) for j in range(n)] for i in range(n)]
    widths = [max(len(cells[i][j]) for i in range(n)) for j in range(n)]
    print(f"recursion operator for {case.name}:")
    for i in range(n):
        row = "  ".join(cells[i][j].ljust(widths[j]) for j in range(n))
        suffix = "  * Dx^-1" if i == n - 1 else ""
        print(f"  [ {row} ]{suffix}")
    if not has_reference:
        print("  (no printed reference)")
    return 0


def cmd_magri(args) -> int:
    case = _resolve_target(args.target)
    ctx = case.context()
    if args.steps < 1:
        raise CaseFileError("--steps must be at least 1")
    try:
        h = hy.Density(ctx.parse(args.density))
    except (sc.ParseError, ValueError) as exc:
        raise CaseFileError(f"invalid density: {exc}") from exc
    op = case.operator()
    A = case.eta()
    steps = []
    for k in range(1, args.steps + 1):
        try:
            h = hy.magri_step(A, op, h)
        except (hy.NotExactError, hy.NotClosedError,
                hy.NonlocalUnresolvedError) as exc:
            if args.format == "json":
                print(_dump_json({
                    "case": case.name,
                    "steps": steps,
                    "obstruction": {"step": k, "kind": type(exc).__name__,
                                    "witness": str(exc)},
                }))
            else:
                for line in _magri_text(case.name, steps):
                    print(line)
                print(
                    f"step {k}: recursion left the hydrodynamic class"
                    f" ({type(exc).__name__})",
                    file=sys.stderr,
                )
                print(f"  {exc}", file=sys.stderr)
            return 1
        flow = hy.flow_from_density(A, h)
        steps.append({
            "step": k,
            "density": str(h.h),
            "coordinates": list(ctx.fields),
            "V": [[str(e) for e in row] for row in flow.V],
            "sigma": [str(e) for e in flow.sigma],
        })
    if args.format == "json":
        print(_dump_json({"case": case.name, "steps": steps}))
    else:
        for line in _magri_text(case.name, steps):
            print(line)
    return 0


def _magri_text(name: str, steps: list[dict]) -> list[str]:
    lines = [f"Magri recursion for {name}:"]
    for s in steps:
        coords = s["coordinates"]
        lines.append(f"  h_{s['step']} = {s['density']}")
        lines.append(f"  flow of h_{s['step']}:")
        n = len(s["sigma"])
        for i in range(n):
            terms = []
            for j in range(n):
                coeff = s["V"][i][j]
                if coeff != "0":
                    terms.append(f"({coeff})*{coords[j]}_x")
            if s["sigma"][i] != "0":
                terms.append(f"({s['sigma'][i]})")
            rhs = " + ".join(terms) if terms else "0"
            lines.append(f"    {coords[i]}_t = {rhs}")
    return lines


def cmd_catalog(args) -> int:
    cases = cat.builtin_cases()
    if args.action == "list":
        if args.format == "json":
            print(_dump_json([
                {"name": c.name, "n": c.n, "description": c.description}
                for c in cases
            ]))
        else:
            print(f"{len(cases)} builtin cases:")
            for c in cases:
                print(f"  {c.name} (n={c.n}): {c.description}")
        return 0
    # export
    out_dir = args.directory
    try:
        os.makedirs(out_dir, exist_ok=True)
        for c in cases:
            path = os.path.join(out_dir, f"{c.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(_dump_json(c.data))
                fh.write("\n")
    except OSError as exc:
        raise CaseFileError(f"export failed: {exc}") from exc
    print(f"wrote {len(cases)} case files to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pencil-forge",
        description="Certify first-order Hamiltonian operators of hydrodynamic"
                    " type, their isometry extensions, and operator pairs.",
        epilog="Set PENCIL_FORGE_PROBES=<n> to cross-check every zero test"
               " by exact evaluation at n seeded rational points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all checks for a case")
    p.add_argument("target", help="builtin case name or case file path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("recursion", help="print the recursion operator")
    p.add_argument("target")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_recursion)

    p = sub.add_parser("magri", help="run Magri recursion steps")
    p.add_argument("target")
    p.add_argument("--density", required=True, help="seed density, e.g. '-2*v'")
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_magri)

    p = sub.add_parser("catalog", help="list or export builtin cases")
    psub = p.add_subparsers(dest="action", required=True)
    pl = psub.add_parser("list")
    pl.add_argument("--format", choices=("text", "json"), default="text")
    pl.set_defaults(fn=cmd_catalog)
    pe = psub.add_parser("export")
    pe.add_argument("directory")
    pe.set_defaults(fn=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # let option values begin with a minus sign, e.g. --density "-2*v"
    merged = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a in ("--density",) and i + 1 < len(argv):
            merged.append(f"{a}={argv[i + 1]}")
            i += 2
        else:
            merged.append(a)
            i += 1
    args = parser.parse_args(merged)
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except (CaseFileError, sc.ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone; devnull takes the flush at interpreter exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
