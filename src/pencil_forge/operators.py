"""Hamiltonian-operator data types and validity checks.

A local first-order operator g^{ij} d_x + Gamma^{ij}_k u^k_x defines a
Poisson bracket iff g is symmetric and flat and Gamma are its Levi-Civita
symbols raised by Gamma^{ij}_k = -g^{is} Gamma^j_{sk}.  The nonlocal
extension adds c u^i_x dx^{-1} u^j_x + eps f^i dx^{-1} f^j and is Poisson
iff the connection is symmetric and metric-compatible with constant
curvature c, and f is a Killing field satisfying the cyclic condition.

Every condition is scanned by diffgeo.first_nonzero and reported through
scan_verdict; the Levi-Civita, connection-symmetry and compatibility scans run
backwards, so their witness is the last nonzero component.  A verdict is a
CheckItem (name, pass/fail/error, witness, seconds) that ValidationReport.add
times when it is decided; the validators, the pair criterion and
catalog.verify_case all record through it.  ConstantOp keeps eta as a
Metric, whose inverse and connection it shares.
poincare_potential integrates a closed set of partial derivatives; the
Liouville potential here and the Magri step in hierarchy both use it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import reduce
from itertools import product
from typing import Callable, Sequence

from . import diffgeo as dg
from . import symcore as sc
from .diffgeo import (
    DegenerateMetricError, Metric, VectorField, contract, first_nonzero, skew_indices, tensor,
)
from .symcore import Context, Expr

__all__ = [
    "NotLiouvilleError",
    "CheckItem",
    "ValidationReport",
    "LocalFirstOrderOp",
    "NonlocalIsometryOp",
    "ConstantOp",
    "validate_local",
    "validate_nonlocal",
    "liouville_potential",
    "h_potential_check",
    "poincare_potential",
    "killing_verdict",
    "scan_verdict",
]


class NotLiouvilleError(ValueError):
    """Symbols Gamma^{ij}_k are not closed in k; no potential matrix exists."""


@dataclass(frozen=True)
class CheckItem:
    name: str
    status: str  # "pass" | "fail" | "error"
    witness: str | None = None
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"


class ValidationReport:
    """Check items in the order they are decided.  add() times each item
    from the previous decision (the first from the report's creation), so
    the items' seconds add up to the report's whole run."""

    def __init__(self, case: str | None = None):
        self.case = case
        self.checks: list[CheckItem] = []
        self._mark = time.perf_counter()

    def _lap(self) -> float:
        now = time.perf_counter()
        lap, self._mark = now - self._mark, now
        return lap

    def add(self, name: str, ok: bool, witness: str | None = None, error: bool = False) -> bool:
        """Records a verdict decided just now; returns ok."""
        status = "error" if error else "pass" if ok else "fail"
        self.checks.append(CheckItem(name, status, witness, self._lap()))
        return ok

    def extend(self, sub: "ValidationReport") -> None:
        """Appends a finished sub-report's items; the time since this
        report's last decision that sub did not measure goes to its first
        item."""
        if sub.checks:
            first = sub.checks[0]
            extra = self._lap() - sub.seconds
            self.checks += [replace(first, seconds=first.seconds + extra), *sub.checks[1:]]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def seconds(self) -> float:
        return sum(c.seconds for c in self.checks)

    def failed(self) -> tuple[CheckItem, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckItem:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self, include_timings: bool = False) -> dict:
        checks = [{"name": c.name, "status": c.status,
                   **({"witness": c.witness} if c.witness else {}),
                   **({"seconds": round(c.seconds, 3)} if include_timings else {})}
                  for c in self.checks]
        return {"case": self.case, "passed": self.passed, "checks": checks}


def scan_verdict(found: tuple | None, witness: Callable[..., str]) -> tuple[bool, str | None]:
    """(True, None) when the first_nonzero scan found nothing, else
    (False, witness(*found))."""
    return found is None, None if found is None else witness(*found)


def killing_verdict(g: Metric, f: VectorField) -> tuple[bool, str | None]:
    """The Killing condition of f for g."""
    return scan_verdict(
        dg.killing_defect(g, f),
        lambda i, j, value: f"Lie derivative component ({i+1},{j+1}) = {value}",
    )


GammaTable = tuple  # [i][j][k] -> Expr, raised symbols Gamma^{ij}_k


@dataclass(frozen=True)
class LocalFirstOrderOp:
    """g^{ij} d_x + Gamma^{ij}_k u^k_x with explicitly stored symbols."""

    metric: Metric
    gamma: GammaTable

    @property
    def ctx(self) -> Context:
        return self.metric.ctx

    @property
    def n(self) -> int:
        return self.metric.n

    @classmethod
    def from_metric(cls, g: Metric) -> "LocalFirstOrderOp":
        return cls(g, dg.levi_civita(g).raised)


@dataclass(frozen=True)
class NonlocalIsometryOp:
    """g^{ij} d_x + Gamma^{ij}_k u^k_x + c u^i_x dx^{-1} u^j_x
    + eps f^i dx^{-1} f^j; c and eps must be free of field variables."""

    metric: Metric
    gamma: GammaTable
    c: Expr
    epsilon: Expr
    isometry: VectorField

    def __post_init__(self):
        for value, label in ((self.c, "c"), (self.epsilon, "epsilon")):
            if any(value.depends_on(name) for name in self.ctx.fields):
                raise ValueError(f"{label} must not depend on field variables")

    @property
    def ctx(self) -> Context:
        return self.metric.ctx

    @property
    def n(self) -> int:
        return self.metric.n

    @classmethod
    def from_metric(
        cls, g: Metric, isometry: VectorField, epsilon: Expr, c: Expr | None = None
    ) -> "NonlocalIsometryOp":
        ctx = g.ctx
        return cls(
            g, dg.levi_civita(g).raised,
            c if c is not None else ctx.number(0), epsilon, isometry,
        )

    def local_part(self) -> LocalFirstOrderOp:
        return LocalFirstOrderOp(self.metric, self.gamma)


class ConstantOp:
    """eta^{ij} d_x with a constant symmetric nondegenerate matrix."""

    def __init__(self, ctx: Context, entries: Sequence[Sequence[Expr]]):
        self.ctx = ctx
        self.entries = tuple(tuple(row) for row in entries)
        self.n = len(self.entries)
        for row in self.entries:
            for e in row:
                if not e.is_rational_constant():
                    raise ValueError(f"eta entries must be rational constants, got {e}")
        self.metric = Metric(ctx, self.entries)
        if not self.metric.is_symmetric():
            raise ValueError("eta must be symmetric")
        if self.metric.is_degenerate():
            raise DegenerateMetricError("eta is degenerate")

    @classmethod
    def antidiagonal(cls, ctx: Context) -> "ConstantOp":
        n = ctx.n
        zero, one = ctx.number(0), ctx.number(1)
        return cls(ctx, tensor(n, 2, lambda i, j: one if i + j == n - 1 else zero))

    @property
    def covariant(self):
        """eta_{ij}, the inverse matrix."""
        return self.metric.covariant


def _backwards(n: int, rank: int):
    """Index tuples in reverse lexicographic order, so a scan names the last nonzero."""
    return product(range(n - 1, -1, -1), repeat=rank)


def validate_local(op: LocalFirstOrderOp) -> ValidationReport:
    """(a) g symmetric, (b) Gamma is the Levi-Civita raising, (c) g flat."""
    report = ValidationReport()
    g = op.metric
    if g.is_degenerate():
        raise DegenerateMetricError("operator has an identically degenerate metric")
    if report.add("metric_symmetric", g.is_symmetric()):
        lc = dg.levi_civita(g).raised
        report.add("levi_civita_symbols", *scan_verdict(
            first_nonzero(_backwards(g.n, 3), lambda i, j, k: op.gamma[i][j][k] - lc[i][j][k]),
            lambda i, j, k, d: f"Gamma^{{{i+1}{j+1}}}_{k+1} differs from Levi-Civita by {d}",
        ))
        report.add("flat", *scan_verdict(
            dg.riemann(g).first_nonzero(),
            lambda i, j, k, l, comp: f"R^{i+1}_{{{j+1}{k+1}{l+1}}} = {comp}",
        ))
    else:
        for name in ("levi_civita_symbols", "flat"):
            report.add(name, False, "metric not symmetric")
    return report


def validate_nonlocal(op: NonlocalIsometryOp) -> ValidationReport:
    """Ferapontov conditions: metric-compatible symmetric connection of
    constant curvature c, Killing isometry, cyclic condition; for c = 0 the
    local part must additionally be a valid first-order operator.

    The operator's symbols are carried into the metric's factored algebra
    (diffgeo.carry) and lowered there, Gamma^j_{mk} = -g_{mi} Gamma^{ij}_k,
    so connection symmetry, metric compatibility, Killing and the cyclic
    condition test numerators for zero, each on the tree the Expr formulas
    build; a symbol or isometry outside the algebra carries no value, and
    is_zero normalizes those trees."""
    report = ValidationReport()
    g = op.metric
    if g.is_degenerate():
        raise DegenerateMetricError("operator has an identically degenerate metric")
    ctx = op.ctx
    n = op.n
    if report.add("metric_symmetric", g.is_symmetric()):
        entries, cov = g.leaves, g.covariant_leaves
        gamma = tensor(n, 3, lambda i, j, k: dg.carry(g._algebra(), op.gamma[i][j][k]))
        # Gamma^j_{mk} = -g_{mi} Gamma^{ij}_k, in lowest terms
        lower = tensor(n, 3, lambda j, m, k: contract(
            ctx, n, lambda i: -(cov[m][i] * gamma[i][j][k])
        ).normalized())
        # connection symmetry Gamma^j_{mk} = Gamma^j_{km}
        report.add("connection_symmetric", *scan_verdict(
            first_nonzero(
                (index for index in _backwards(n, 3) if index[1] < index[2]),
                lambda j, m, k: lower[j][m][k] - lower[j][k][m],
            ),
            lambda j, m, k, d: f"Gamma^{j+1}_{{{m+1}{k+1}}} asymmetry {d}",
        ))
        # metric compatibility: d_k g^{ij} + Gamma^i_{ks} g^{sj} + Gamma^j_{ks} g^{si} = 0
        report.add("metric_compatible", *scan_verdict(
            first_nonzero(_backwards(n, 3), lambda i, j, k: (
                sc.diff(entries[i][j], ctx.fields[k]) + contract(ctx, n, lambda s: (
                    lower[i][k][s] * entries[s][j] + lower[j][k][s] * entries[s][i]
                ))
            )),
            lambda i, j, k, total: f"grad_k g^{{{i+1}{j+1}}} nonzero for k={k+1}: {total}",
        ))
        # constant curvature equals c
        cc = dg.constant_curvature(g)
        match = cc is not None and sc.is_zero(cc - op.c)
        report.add("curvature_constant", match, None if match else (
            "curvature not constant" if cc is None else f"curvature {cc} != c = {op.c}"
        ))
        report.add("killing", *killing_verdict(g, op.isometry))
        report.add("cyclic", *scan_verdict(
            dg.cyclic_defect(g, op.isometry),
            lambda i, j, k, total: f"cyclic sum ({i+1},{j+1},{k+1}) = {total}",
        ))
    else:
        for name in ("connection_symmetric", "metric_compatible"):
            report.add(name, False, "metric not symmetric")
        report.add("curvature_constant", False, "curvature not constant")
        for name in ("killing", "cyclic"):
            report.add(name, False, "metric not symmetric")

    if sc.is_zero(op.c):
        local = validate_local(op.local_part())
        report.add("local_part_valid", local.passed, None if local.passed else "; ".join(
            f"{c.name}: {c.witness or 'failed'}" for c in local.failed()
        ))
    return report


def poincare_potential(ctx: Context, coords: Sequence[str], comps: Sequence[Expr]) -> Expr:
    """phi with d(phi)/d(coords[j]) = comps[j], integrating one coordinate
    at a time with zero constants; closedness is assumed, not checked."""
    def integrate(phi: Expr, j: int) -> Expr:
        return phi + sc.antiderivative(comps[j] - sc.diff(phi, coords[j]), coords[j])

    return reduce(integrate, range(len(coords)), ctx.number(0)).normalized()


def liouville_potential(op, reference: Sequence[Sequence[Expr]] | None = None):
    """Matrix r^{ij} with d r^{ij}/du^k = Gamma^{ij}_k and r + r^T = g.

    Integration constants: the symmetric part is fixed by g; the remaining
    antisymmetric constant is zero unless a gauge-equivalent reference is
    given, in which case the result matches it exactly.  Raises
    NotLiouvilleError when the symbols are not closed in k.
    """
    ctx = op.ctx
    n = op.n
    g = op.metric
    open_index = first_nonzero(skew_indices(n), lambda i, j, k, l: (
        sc.diff(op.gamma[i][j][k], ctx.fields[l]) - sc.diff(op.gamma[i][j][l], ctx.fields[k])
    ))
    if open_index is not None:
        i, j, k, l, _ = open_index
        raise NotLiouvilleError(
            f"d_{ctx.fields[l]} Gamma^{{{i+1}{j+1}}}_{k+1} !="
            f" d_{ctx.fields[k]} Gamma^{{{i+1}{j+1}}}_{l+1}"
        )
    r0 = tensor(n, 2, lambda i, j: poincare_potential(ctx, ctx.fields, op.gamma[i][j]))

    def corrected(i: int, j: int) -> Expr:
        # symmetric constant correction: r + r^T must equal g exactly
        s = (g.entries[i][j] - r0[i][j] - r0[j][i]).normalized()
        if any(s.depends_on(name) for name in ctx.fields):
            raise NotLiouvilleError(
                f"g^{{{i+1}{j+1}}} - r^{{{i+1}{j+1}}} - r^{{{j+1}{i+1}}}"
                f" is not constant: {s}"
            )
        return (r0[i][j] + s / 2).normalized()

    r = tensor(n, 2, corrected)
    if reference is not None:
        delta = tensor(n, 2, lambda i, j: (reference[i][j] - r[i][j]).normalized())
        gauge_ok = first_nonzero(
            product(range(n), range(n), ctx.fields), lambda i, j, name: sc.diff(delta[i][j], name)
        ) is None and first_nonzero(
            product(range(n), repeat=2), lambda i, j: delta[i][j] + delta[j][i]
        ) is None
        if gauge_ok:
            r = tensor(n, 2, lambda i, j: (r[i][j] + delta[i][j]).normalized())
    return r


def h_potential_check(op, eta: ConstantOp, H: Sequence[Expr]) -> bool:
    """Checks g^{ij} = eta^{is} d_s H^j + eta^{js} d_s H^i and
    Gamma^{ij}_k = eta^{is} d^2 H^j / du^s du^k componentwise."""
    ctx = op.ctx
    n = op.n
    if len(H) != n:
        raise ValueError(f"expected {n} potential components, got {len(H)}")
    dH = tensor(n, 2, lambda j, s: sc.diff(H[j], ctx.fields[s]))
    metric_ok = first_nonzero(product(range(n), repeat=2), lambda i, j: (
        -op.metric.entries[i][j] + contract(
            ctx, n, lambda s: eta.entries[i][s] * dH[j][s] + eta.entries[j][s] * dH[i][s]
        )
    )) is None
    return metric_ok and first_nonzero(product(range(n), repeat=3), lambda i, j, k: (
        -op.gamma[i][j][k] + contract(
            ctx, n, lambda s: eta.entries[i][s] * sc.diff(dH[j][s], ctx.fields[k])
        )
    )) is None
