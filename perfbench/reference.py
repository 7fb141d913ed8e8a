"""Independent reference evaluator for the benchmark's verdict checks.

Reads a case's metric, isometry and curvature constant as text with plain
sympy and evaluates, at seeded random rational points, the curvature defect

    R^i_{jkl} - c (delta^i_k g_{jl} - delta^i_l g_{jk})

of the contravariant metric g^{ij} and the Lie derivative

    f^k d_k g^{ij} - g^{kj} d_k f^i - g^{ik} d_k f^j

of the metric along the isometry f.  Nothing here goes through
``pencil_forge``: only the symbolic first and second partial derivatives of
the metric entries come from sympy; the inverse metric, the Christoffel
symbols and the curvature are computed from numbers at each point.

Each sample draws rational values for the parameters (respecting the case's
``nonzero`` assumptions), a random cubic polynomial for every function atom,
and a point with signed rational coordinates.  Cases without square roots
are evaluated exactly in ``fractions.Fraction``; cases with a square root
are evaluated in mpmath at ``RADICAL_DPS`` digits and a value counts as
zero below ``RADICAL_ZERO``.  A verdict is "zero" when the defect vanishes
at every sample.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import mpmath
import sympy as sp
from sympy.parsing.sympy_parser import (
    convert_xor,
    parse_expr,
    standard_transformations,
)

RADICAL_DPS = 60
RADICAL_ZERO = mpmath.mpf(10) ** -30
SAMPLES = 3
MAX_ATTEMPTS = 200

_TRANSFORMS = standard_transformations + (convert_xor,)
_PRIMED = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)('+)\(")


class BadPoint(ValueError):
    """The sampled point leaves the domain: a pole, a degenerate metric,
    a vanishing assumption or a negative radicand."""


def _rational(rng: random.Random) -> sp.Rational:
    """A nonzero rational p/q with |p| <= 12 and 1 <= q <= 7."""
    num = rng.randint(1, 12) * rng.choice((1, -1))
    return sp.Rational(num, rng.randint(1, 7))


def _parse(text: str, names: dict) -> sp.Expr:
    text = _PRIMED.sub(lambda m: f"{m.group(1)}__d{len(m.group(2))}(", text)
    expr = parse_expr(text, local_dict=dict(names), transformations=_TRANSFORMS)
    return sp.sympify(expr)


def _flatten(tree) -> list:
    if isinstance(tree, list):
        return [x for t in tree for x in _flatten(t)]
    return [tree]


def _unflatten(tree, values):
    if isinstance(tree, list):
        return [_unflatten(t, values) for t in tree]
    return next(values)


class CaseSample:
    """One draw of parameter values and function polynomials for a case,
    with the metric, its first and second partial derivatives, the
    isometry and its first partial derivatives as sympy expressions in the
    fields."""

    def __init__(self, data: dict, rng: random.Random):
        self.fields = x = [sp.Symbol(name) for name in data["coordinates"]]
        n = len(x)
        names = {"sqrt": sp.sqrt, "ln": sp.log}
        names.update({s.name: s for s in x})
        for p in data.get("parameters", ()):
            names[p["name"]] = _rational(rng)
        z = sp.Symbol("z")
        nonzero_atoms = []
        for f in data.get("functions", ()):
            poly = sum(_rational(rng) * z**d for d in range(4))
            names[f["name"]] = sp.Lambda(z, poly)
            for order in (1, 2, 3):
                names[f"{f['name']}__d{order}"] = sp.Lambda(z, sp.diff(poly, z, order))
            if f.get("nonzero"):
                nonzero_atoms.append(_parse(f"{f['name']}({f['arg']})", names))
        for p in data.get("parameters", ()):
            cond = p.get("nonzero")
            if cond and _parse(cond, names) == 0:
                raise BadPoint(f"assumption {cond} vanishes")
        metric = [[_parse(t, names) for t in row] for row in data["metric"]]
        isometry = [_parse(t, names) for t in data["isometry"]]
        c = _parse(data.get("c", "0"), names)
        if c.free_symbols:
            raise ValueError("the curvature constant must not depend on the fields")
        d_metric = [[[sp.diff(e, x[a]) for e in row] for row in metric] for a in range(n)]
        dd_metric = [[[[sp.diff(e, x[b]) for e in row] for row in d_metric[a]]
                      for b in range(n)] for a in range(n)]
        d_isometry = [[sp.diff(e, x[a]) for e in isometry] for a in range(n)]
        self.tree = [metric, d_metric, dd_metric, isometry, d_isometry, [c],
                     nonzero_atoms]
        flat = _flatten(self.tree)
        extra = set().union(*(e.free_symbols for e in flat)) - set(x)
        if extra:
            raise ValueError(f"undeclared symbols {sorted(map(str, extra))}")
        self.radical = any(
            p.exp.is_Rational and p.exp.q != 1
            for e in flat for p in e.atoms(sp.Pow)
        )
        self._compiled = (
            sp.lambdify(x, flat, modules="mpmath") if self.radical else None
        )

    def values_at(self, point: dict) -> list:
        """The expressions of self.tree evaluated at point, same nesting:
        Fractions, or mpfs for radical cases."""
        flat = _flatten(self.tree)
        if self._compiled is None:
            values = []
            for e in flat:
                v = e.xreplace(point)
                if not v.is_Rational:
                    raise BadPoint(f"value {v} is not a finite rational")
                values.append(Fraction(int(v.p), int(v.q)))
        else:
            args = [mpmath.mpf(point[s].p) / point[s].q for s in self.fields]
            values = [mpmath.mpmathify(v) for v in self._compiled(*args)]
            for v in values:
                if isinstance(v, mpmath.mpc) or not mpmath.isfinite(v):
                    raise BadPoint(f"value {v} is not a finite real")
        tree = _unflatten(self.tree, iter(values))
        if any(_is_zero(v) for v in tree[-1]):
            raise BadPoint("a nonzero function atom vanishes")
        return tree


def _inverse(m):
    n = len(m)
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(aug[r][col]))
        if _is_zero(aug[pivot][col]):
            raise BadPoint("degenerate metric")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _mul(*ms):
    out = ms[0]
    for m in ms[1:]:
        n, k, p = len(out), len(m), len(m[0])
        out = [[sum(out[i][s] * m[s][j] for s in range(k)) for j in range(p)]
               for i in range(n)]
    return out


def defects_at(sample: CaseSample, point: dict):
    """(curvature defect components, Lie derivative components) at point."""
    G, dG, ddG, f, df, (c,), _ = sample.values_at(point)
    rng_n = range(len(G))

    L = _inverse(G)  # covariant metric g_{ij}
    dL = [[[-v for v in row] for row in _mul(L, dG[a], L)] for a in rng_n]
    ddL = []
    for a in rng_n:
        row_b = []
        for b in rng_n:
            t1 = _mul(L, dG[b], L, dG[a], L)
            t2 = _mul(L, dG[a], L, dG[b], L)
            t3 = _mul(L, ddG[a][b], L)
            row_b.append([[t1[i][j] + t2[i][j] - t3[i][j] for j in rng_n]
                          for i in rng_n])
        ddL.append(row_b)

    # Christoffel symbols of the first kind and their derivatives
    first = [[[(dL[i][j][l] + dL[j][i][l] - dL[l][i][j]) / 2 for j in rng_n]
              for i in rng_n] for l in rng_n]
    d_first = [[[[(ddL[m][i][j][l] + ddL[m][j][i][l] - ddL[m][l][i][j]) / 2
                  for j in rng_n] for i in rng_n] for l in rng_n] for m in rng_n]
    gamma = [[[sum(G[k][l] * first[l][i][j] for l in rng_n) for j in rng_n]
              for i in rng_n] for k in rng_n]
    d_gamma = [[[[sum(dG[m][k][l] * first[l][i][j] + G[k][l] * d_first[m][l][i][j]
                      for l in rng_n) for j in rng_n] for i in rng_n] for k in rng_n]
               for m in rng_n]

    curvature = []
    for i in rng_n:
        for j in rng_n:
            for k in rng_n:
                for l in rng_n:
                    r = d_gamma[k][i][l][j] - d_gamma[l][i][k][j] + sum(
                        gamma[i][k][m] * gamma[m][l][j] - gamma[i][l][m] * gamma[m][k][j]
                        for m in rng_n)
                    template = (L[j][l] if i == k else 0) - (L[j][k] if i == l else 0)
                    curvature.append(r - c * template)
    lie = []
    for i in rng_n:
        for j in rng_n:
            lie.append(sum(f[k] * dG[k][i][j] - G[k][j] * df[k][i] - G[i][k] * df[k][j]
                           for k in rng_n))
    return curvature, lie


def _is_zero(v) -> bool:
    if isinstance(v, Fraction) or isinstance(v, int):
        return v == 0
    return abs(v) <= RADICAL_ZERO


def reference_verdicts(data: dict, seed, samples: int = SAMPLES) -> dict:
    """{"curvature_constant": bool, "killing": bool, "samples": int} for a
    case data dict; True means the defect vanished at every sample."""
    rng = random.Random(seed)
    verdicts = {"curvature_constant": True, "killing": True}
    taken = attempts = 0
    with mpmath.workdps(RADICAL_DPS):
        while taken < samples:
            attempts += 1
            if attempts > MAX_ATTEMPTS:
                raise RuntimeError(
                    f"no admissible sample point for {data.get('name')!r}"
                    f" after {MAX_ATTEMPTS} attempts")
            try:
                sample = CaseSample(data, rng)
                point = {s: _rational(rng) for s in sample.fields}
                curvature, lie = defects_at(sample, point)
            except (BadPoint, ZeroDivisionError):
                continue
            taken += 1
            if not all(_is_zero(v) for v in curvature):
                verdicts["curvature_constant"] = False
            if not all(_is_zero(v) for v in lie):
                verdicts["killing"] = False
    verdicts["samples"] = taken
    return verdicts
