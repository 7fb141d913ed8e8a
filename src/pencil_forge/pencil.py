"""Compatibility of metric pairs and the bi-Hamiltonian pair criterion.

A pair (g, gt) is almost compatible when the Levi-Civita symbols of
g + lambda*gt are affine in lambda, Gamma + lambda*Gammat, and compatible
when additionally the curvature splits, R_lambda = R + lambda*Rt,
identically in lambda.  The parameter lambda is adjoined to the context as
an ordinary symbol, so the "for every lambda" statements are decided
exactly on rational functions of lambda.

Almost-compatibility is decided without the connection of g + lambda*gt
(Mokhov, Compatible and almost compatible pseudo-Riemannian metrics,
Funct. Anal. Appl. 35, 2001).  The raised symbols Gamma + lambda*Gammat
satisfy the metric condition d_k G^{ij} = Gamma^{ij}_k + Gamma^{ji}_k of
G = g + lambda*gt for every lambda, since it is linear; for nondegenerate
G the Levi-Civita symbols are its unique solution that also satisfies
G^{is} Gamma^{jk}_s = G^{js} Gamma^{ik}_s.  The lambda^0 and lambda^2
parts of that symmetry hold for g and gt on their own, so the pair is
almost compatible exactly when the lambda^1 part vanishes:

    T^{ijk} = g^{is} Gammat^{jk}_s + gt^{is} Gamma^{jk}_s - (i <-> j) = 0.

For a pair (eta*d_x, B) with B a nonlocal isometry extension and c = 0,
the pair is bi-Hamiltonian iff eta and the leading metric of B are
compatible and the isometry is Killing for both leading coefficients
(Mokhov-Ferapontov 1990).
"""

from __future__ import annotations

from itertools import product

from . import diffgeo as dg
from . import symcore as sc
from .diffgeo import Metric
from .operators import ConstantOp, NonlocalIsometryOp, ValidationReport, killing_verdict
from .symcore import Expr

__all__ = [
    "DegeneratePencilError",
    "PENCIL_PARAMETER",
    "Pencil",
    "almost_compatible",
    "compatible",
    "pair_check",
]

PENCIL_PARAMETER = "lam"


class DegeneratePencilError(ValueError):
    """det(g + lambda*gt) vanishes identically as a rational matrix in lambda."""


class Pencil:
    """g + lambda*gt with a fresh parameter lambda adjoined to the context."""

    def __init__(self, g: Metric, gt: Metric):
        if g.n != gt.n:
            raise ValueError("pencil metrics must share the dimension")
        base = g.ctx
        if not base.subsumes(gt.ctx):
            base = gt.ctx if gt.ctx.subsumes(g.ctx) else None
            if base is None:
                raise ValueError("pencil metrics from incompatible contexts")
        if base.has(PENCIL_PARAMETER):
            raise ValueError(
                f"context already declares {PENCIL_PARAMETER!r};"
                " the pencil parameter must be fresh"
            )
        self.ctx = base.extend(parameters=(PENCIL_PARAMETER,))
        self.lam = self.ctx.var(PENCIL_PARAMETER)
        # keep the original metric objects: their cached connections and
        # curvatures stay valid in the extended context
        self.g = g
        self.gt = gt
        self.combined = Metric(self.ctx, [
            [self.g.entries[i][j] + self.lam * self.gt.entries[i][j]
             for j in range(g.n)]
            for i in range(g.n)
        ])
        if self.combined.is_degenerate():
            raise DegeneratePencilError(
                "det(g + lambda*gt) is identically zero"
            )

    @property
    def n(self) -> int:
        return self.g.n


def almost_compatible(g: Metric, gt: Metric) -> bool:
    """Levi-Civita symbols of g + lambda*gt equal Gamma + lambda*Gammat.

    Decided by Mokhov's identity T^{ijk} = g^{is} Gammat^{jk}_s
    + gt^{is} Gamma^{jk}_s - (i <-> j) = 0 for i < j, from the connections
    of g and gt alone (see the module docstring), decided in g's factored
    algebra with gt's entries and symbols lifted into it (diffgeo.Lifted);
    raises DegeneratePencilError when det(g + lambda*gt) vanishes
    identically.
    """
    pencil = Pencil(g, gt)
    return _almost(pencil)


def _almost(pencil: Pencil) -> bool:
    n = pencil.n
    alg = pencil.g._algebra()
    g = dg.lifted_metric(pencil.g)
    _, conn_g = dg.lifted_connection(pencil.g)
    gt = dg.tensor(n, 2, lambda i, j: dg.Lifted.of(alg, pencil.gt.entries[i][j]))
    raised_t = dg.levi_civita(pencil.gt).raised
    conn_t = dg.tensor(n, 3, lambda i, j, k: dg.Lifted.of(alg, raised_t[i][j][k]))

    def torsion(i: int, j: int, k: int) -> Expr:
        return dg.Lifted.contract(alg, pencil.ctx, n, lambda s: (
            g[i][s] * conn_t[j][k][s] + gt[i][s] * conn_g[j][k][s]
            - g[j][s] * conn_t[i][k][s] - gt[j][s] * conn_g[i][k][s]
        )).expr()

    upper = ((i, j, k) for i, j, k in product(range(n), repeat=3) if i < j)
    return dg.first_nonzero(upper, torsion) is None


def _connection_vanishes(g: Metric) -> bool:
    conn = dg.levi_civita(g).raised
    return dg.first_nonzero(
        product(range(g.n), repeat=3), lambda i, j, k: conn[i][j][k]
    ) is None


def compatible(g: Metric, gt: Metric) -> bool:
    """Almost compatible and the curvature of the pencil splits additively.

    When one side has identically vanishing Levi-Civita symbols (a constant
    metric in these coordinates) and almost-compatibility holds, the pencil
    connection coincides with the other side's connection, so the splitting
    reduces to the vanishing of the constant metric's raising of the mixed
    curvature; that shortcut is exact, not approximate.
    """
    # orient the constant-connection member, if any, into the gt slot
    if not _connection_vanishes(gt) and _connection_vanishes(g):
        g, gt = gt, g
    pencil = Pencil(g, gt)
    if not _almost(pencil):
        return False
    indices = dg.skew_indices(pencil.n)
    if _connection_vanishes(pencil.gt):
        curv = dg.riemann(pencil.g)
        # flat, or the lambda-part gt^{is} R^j_{skl} of the raised pencil
        # curvature vanishes
        return curv.first_nonzero() is None or dg.first_nonzero(
            indices, lambda i, j, k, l: curv.raised_component(pencil.gt, i, j, k, l)
        ) is None
    curv_l = dg.riemann(pencil.combined).raised
    curv_g = dg.riemann(pencil.g).raised
    curv_t = dg.riemann(pencil.gt).raised
    return dg.first_nonzero(indices, lambda i, j, k, l: (
        curv_l[i][j][k][l] - curv_g[i][j][k][l] - pencil.lam * curv_t[i][j][k][l]
    )) is None


def pair_check(A: ConstantOp, B: NonlocalIsometryOp) -> ValidationReport:
    """Bi-Hamiltonian pair criterion for (eta*d_x, B) with c = 0:
    (i) eta and g_B compatible, (ii) f Killing for eta, (iii) f Killing
    for g_B; then A + lambda*B is Hamiltonian for every lambda."""
    report = ValidationReport()
    if not sc.is_zero(B.c):
        raise ValueError("pair criterion requires a c = 0 nonlocal tail")
    compat = compatible(B.metric, A.metric)
    report.add("pencil_compatible", compat, None if compat else
               "pencil symbols are not affine in lambda or the curvature does not split")
    report.add("eta_killing", *killing_verdict(A.metric, B.isometry))
    report.add("metric_killing", *killing_verdict(B.metric, B.isometry))
    return report
