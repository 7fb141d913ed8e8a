"""Hamiltonian-operator data types and validity checks.

A local first-order operator g^{ij} d_x + Gamma^{ij}_k u^k_x defines a
Poisson bracket iff g is symmetric and flat and Gamma are its Levi-Civita
symbols raised by Gamma^{ij}_k = -g^{is} Gamma^j_{sk}.  The nonlocal
extension adds c u^i_x dx^{-1} u^j_x + eps f^i dx^{-1} f^j and is Poisson
iff the connection is symmetric and metric-compatible with constant
curvature c, and f is a Killing field satisfying the cyclic condition.

The flatness witness is CurvatureTensor.first_nonzero of the metric, and
ConstantOp keeps eta as a Metric, whose inverse and connection it shares.
poincare_potential integrates a closed set of partial derivatives; the
Liouville potential here and the Magri step in hierarchy both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from . import diffgeo as dg
from . import symcore as sc
from .diffgeo import DegenerateMetricError, Metric, VectorField, contract, tensor
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
]


class NotLiouvilleError(ValueError):
    """Symbols Gamma^{ij}_k are not closed in k; no potential matrix exists."""


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[CheckItem, ...]

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> tuple[CheckItem, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def __getitem__(self, name: str) -> CheckItem:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


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
            for name in self.ctx.fields:
                if value.depends_on(name):
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


def _lower_connection(op) -> tuple:
    """Gamma^j_{mk} = -g_{mi} Gamma^{ij}_k from the operator's raised symbols."""
    cov = op.metric.covariant
    return tensor(op.n, 3, lambda j, m, k: contract(
        op.ctx, op.n, lambda i: -(cov[m][i] * op.gamma[i][j][k])
    ).normalized())


def validate_local(op: LocalFirstOrderOp) -> ValidationReport:
    """(a) g symmetric, (b) Gamma is the Levi-Civita raising, (c) g flat."""
    g = op.metric
    if g.is_degenerate():
        raise DegenerateMetricError("operator has an identically degenerate metric")
    checks = []
    sym = g.is_symmetric()
    checks.append(CheckItem("metric_symmetric", sym))
    if sym:
        lc = dg.levi_civita(g).raised
        witness = None
        ok = True
        for i in range(g.n):
            for j in range(g.n):
                for k in range(g.n):
                    d = op.gamma[i][j][k] - lc[i][j][k]
                    if not sc.is_zero(d):
                        ok = False
                        witness = (
                            f"Gamma^{{{i+1}{j+1}}}_{k+1} differs from Levi-Civita"
                            f" by {d.normalized()}"
                        )
        checks.append(CheckItem("levi_civita_symbols", ok, witness))
        curved = dg.riemann(g).first_nonzero()
        witness = None
        if curved is not None:
            i, j, k, l, comp = curved
            witness = f"R^{i+1}_{{{j+1}{k+1}{l+1}}} = {comp.normalized()}"
        checks.append(CheckItem("flat", curved is None, witness))
    else:
        checks.append(CheckItem("levi_civita_symbols", False, "metric not symmetric"))
        checks.append(CheckItem("flat", False, "metric not symmetric"))
    return ValidationReport(tuple(checks))


def validate_nonlocal(op: NonlocalIsometryOp) -> ValidationReport:
    """Ferapontov conditions: metric-compatible symmetric connection of
    constant curvature c, Killing isometry, cyclic condition; for c = 0 the
    local part must additionally be a valid first-order operator."""
    g = op.metric
    if g.is_degenerate():
        raise DegenerateMetricError("operator has an identically degenerate metric")
    ctx = op.ctx
    n = op.n
    checks = []
    sym = g.is_symmetric()
    checks.append(CheckItem("metric_symmetric", sym))

    lower = _lower_connection(op) if sym else None

    # connection symmetry Gamma^j_{mk} = Gamma^j_{km}
    conn_sym = True
    witness = None
    if lower is not None:
        for j in range(n):
            for m in range(n):
                for k in range(m + 1, n):
                    d = lower[j][m][k] - lower[j][k][m]
                    if not sc.is_zero(d):
                        conn_sym = False
                        witness = f"Gamma^{j+1}_{{{m+1}{k+1}}} asymmetry {d.normalized()}"
        checks.append(CheckItem("connection_symmetric", conn_sym, witness))
    else:
        checks.append(CheckItem("connection_symmetric", False, "metric not symmetric"))

    # metric compatibility: d_k g^{ij} + Gamma^i_{ks} g^{sj} + Gamma^j_{ks} g^{si} = 0
    witness = None
    metricity = True
    if lower is not None:
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    total = sc.diff(g.entries[i][j], ctx.fields[k]) + contract(ctx, n, lambda s: (
                        lower[i][k][s] * g.entries[s][j] + lower[j][k][s] * g.entries[s][i]
                    ))
                    if not sc.is_zero(total):
                        metricity = False
                        witness = (
                            f"grad_k g^{{{i+1}{j+1}}} nonzero for k={k+1}:"
                            f" {total.normalized()}"
                        )
        checks.append(CheckItem("metric_compatible", metricity, witness))
    else:
        checks.append(CheckItem("metric_compatible", False, "metric not symmetric"))

    # constant curvature equals c
    cc = dg.constant_curvature(g) if sym else None
    if cc is None:
        checks.append(CheckItem("curvature_constant", False, "curvature not constant"))
    else:
        match = sc.is_zero(cc - op.c)
        checks.append(CheckItem(
            "curvature_constant", match,
            None if match else f"curvature {cc} != c = {op.c}",
        ))

    if sym:
        kd = dg.killing_defect(g, op.isometry)
        checks.append(CheckItem(
            "killing", kd is None,
            None if kd is None else
            f"Lie derivative component ({kd[0]+1},{kd[1]+1}) = {kd[2]}",
        ))
        cd = dg.cyclic_defect(g, op.isometry)
        checks.append(CheckItem(
            "cyclic", cd is None,
            None if cd is None else
            f"cyclic sum ({cd[0]+1},{cd[1]+1},{cd[2]+1}) = {cd[3]}",
        ))
    else:
        checks.append(CheckItem("killing", False, "metric not symmetric"))
        checks.append(CheckItem("cyclic", False, "metric not symmetric"))

    if sc.is_zero(op.c):
        local = validate_local(op.local_part())
        checks.append(CheckItem(
            "local_part_valid", local.valid,
            None if local.valid else "; ".join(
                f"{c.name}: {c.witness or 'failed'}" for c in local.failed()
            ),
        ))
    return ValidationReport(tuple(checks))


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
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    d = (
                        sc.diff(op.gamma[i][j][k], ctx.fields[l])
                        - sc.diff(op.gamma[i][j][l], ctx.fields[k])
                    )
                    if not sc.is_zero(d):
                        raise NotLiouvilleError(
                            f"d_{ctx.fields[l]} Gamma^{{{i+1}{j+1}}}_{k+1} !="
                            f" d_{ctx.fields[k]} Gamma^{{{i+1}{j+1}}}_{l+1}"
                        )
    r0 = tensor(n, 2, lambda i, j: poincare_potential(ctx, ctx.fields, op.gamma[i][j]))

    def corrected(i: int, j: int) -> Expr:
        # symmetric constant correction: r + r^T must equal g exactly
        s = (g.entries[i][j] - r0[i][j] - r0[j][i]).normalized()
        for name in ctx.fields:
            if s.depends_on(name):
                raise NotLiouvilleError(
                    f"g^{{{i+1}{j+1}}} - r^{{{i+1}{j+1}}} - r^{{{j+1}{i+1}}}"
                    f" is not constant: {s}"
                )
        return (r0[i][j] + s / 2).normalized()

    r = tensor(n, 2, corrected)
    if reference is not None:
        delta = tensor(n, 2, lambda i, j: (reference[i][j] - r[i][j]).normalized())
        gauge_ok = all(
            not delta[i][j].depends_on(name)
            for i in range(n) for j in range(n) for name in ctx.fields
        ) and all(
            sc.is_zero(delta[i][j] + delta[j][i])
            for i in range(n) for j in range(n)
        )
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
    return all(
        sc.is_zero(-op.metric.entries[i][j] + contract(
            ctx, n, lambda s: eta.entries[i][s] * dH[j][s] + eta.entries[j][s] * dH[i][s]
        ))
        for i in range(n) for j in range(n)
    ) and all(
        sc.is_zero(-op.gamma[i][j][k] + contract(
            ctx, n, lambda s: eta.entries[i][s] * sc.diff(dH[j][s], ctx.fields[k])
        ))
        for i in range(n) for j in range(n) for k in range(n)
    )
