"""Riemannian computations on contravariant metrics in flat-style coordinates.

Conventions (all indices 1-based in the docs, 0-based in code):

* metrics are stored contravariantly, entries g^{ij};
* lowered Christoffel symbols Gamma^i_{jk} come from the inverse metric by
  the standard Levi-Civita formula and are symmetric in (j, k);
* raised symbols follow Gamma^{ij}_k = -g^{is} Gamma^j_{sk};
* curvature uses R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
  + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}, raised to
  R^{ij}_{kl} = g^{is} R^j_{skl}.

Matrix inversion is by exact adjugate over determinant; all results are
normalized kernel expressions.

Every index contraction in the package goes through contract (a sum of
terms over one index, added left to right onto zero), and every tensor
table is built by tensor (an n x ... x n nested tuple from an index
function).  Neither normalizes: callers normalize where a value is kept.
Every vanishing condition is decided by first_nonzero, the one scan: it
zero-tests components in a given order and returns the first nonzero one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Sequence

from . import symcore as sc
from .symcore import Context, Expr

__all__ = [
    "DegenerateMetricError",
    "Metric",
    "Connection",
    "CurvatureTensor",
    "VectorField",
    "levi_civita",
    "riemann",
    "is_flat",
    "constant_curvature",
    "killing_check",
    "cyclic_check",
    "mat_det",
    "mat_inverse",
    "contract",
    "tensor",
    "first_nonzero",
    "skew_indices",
]


class DegenerateMetricError(ValueError):
    """Determinant is identically zero; no parameter assumption saves it."""


ExprMatrix = tuple[tuple[Expr, ...], ...]


def contract(ctx: Context, n: int, term: Callable[[int], Expr]) -> Expr:
    """term(0) + ... + term(n-1), added left to right onto ctx.number(0)."""
    return sum((term(s) for s in range(n)), ctx.number(0))


def tensor(n: int, rank: int, entry: Callable[..., Expr]) -> tuple:
    """The rank-fold nested n x ... x n tuple with entry(i, j, ...) at
    [i][j]...; entries are built in lexicographic index order."""
    if rank == 1:
        return tuple(entry(i) for i in range(n))
    return tuple(tensor(n, rank - 1, partial(entry, i)) for i in range(n))


def first_nonzero(indices: Iterable[tuple], component: Callable[..., Expr]) -> tuple | None:
    """(*index, value) for the first index tuple, in the order given, whose
    component(*index) is not identically zero; None when all vanish."""
    for index in indices:
        value = component(*index)
        if not sc.is_zero(value):
            return (*index, value)
    return None


def skew_indices(n: int) -> list[tuple[int, int, int, int]]:
    """(i, j, k, l) with k < l, in lexicographic order."""
    return [index for index in product(range(n), repeat=4) if index[2] < index[3]]


def _cofactor(rows: Sequence[Sequence[Expr]], i: int, j: int, scale: Expr | None = None) -> Expr:
    """(-1)^(i+j) (scale *) det of rows without row i and column j."""
    n = len(rows)
    minor = mat_det([
        [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
    ])
    term = minor if scale is None else scale * minor
    return -term if (i + j) % 2 else term


def mat_det(rows: Sequence[Sequence[Expr]]) -> Expr:
    """Exact determinant by cofactor expansion (intended for n <= 4)."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return contract(rows[0][0].ctx, n, lambda j: _cofactor(rows, 0, j, rows[0][j]))


def mat_inverse(rows: Sequence[Sequence[Expr]], det: Expr | None = None) -> ExprMatrix:
    """Exact inverse via the adjugate; raises DegenerateMetricError on
    identically vanishing determinant."""
    n = len(rows)
    if det is None:
        det = mat_det(rows)
    if sc.is_zero(det):
        raise DegenerateMetricError("determinant vanishes identically")
    if n == 1:
        return ((rows[0][0].ctx.number(1) / det,),)
    return tensor(n, 2, lambda i, j: _cofactor(rows, j, i) / det)


class Metric:
    """Contravariant n x n metric; determinant is the nondegeneracy witness.

    Construction does not enforce symmetry (validators report on it), but
    the geometric operations below require it.
    """

    def __init__(self, ctx: Context, entries: Sequence[Sequence[Expr]]):
        self.ctx = ctx
        self.entries = tuple(tuple(row) for row in entries)
        self.n = len(self.entries)
        if any(len(row) != self.n for row in self.entries):
            raise ValueError("metric entries must form a square matrix")
        self._symmetric: bool | None = None
        self._det: Expr | None = None
        self._inverse: ExprMatrix | None = None
        self._connection: "Connection | None" = None
        self._curvature: "CurvatureTensor | None" = None

    @property
    def det(self) -> Expr:
        if self._det is None:
            self._det = mat_det(self.entries).normalized()
        return self._det

    @property
    def covariant(self) -> ExprMatrix:
        """Inverse matrix g_{ij}."""
        if self._inverse is None:
            self._inverse = mat_inverse(self.entries, self.det)
        return self._inverse

    def is_symmetric(self) -> bool:
        if self._symmetric is None:
            self._symmetric = first_nonzero(
                ((i, j) for i in range(self.n) for j in range(i + 1, self.n)),
                lambda i, j: self.entries[i][j] - self.entries[j][i],
            ) is None
        return self._symmetric

    def is_degenerate(self) -> bool:
        return sc.is_zero(self.det)

    def __getitem__(self, ij: tuple[int, int]) -> Expr:
        return self.entries[ij[0]][ij[1]]

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"Metric[{rows}]"


@dataclass(frozen=True)
class Connection:
    """lower[i][j][k] = Gamma^i_{jk}; raised[i][j][k] = Gamma^{ij}_k."""

    ctx: Context
    lower: tuple
    raised: tuple

    @property
    def n(self) -> int:
        return len(self.lower)


class CurvatureTensor:
    """mixed[i][j][k][l] = R^i_{jkl}; raised (R^{ij}_{kl} = g^{is} R^j_{skl})
    is materialized on first access.  Both are antisymmetric in (k, l)."""

    def __init__(self, metric: "Metric", mixed: tuple):
        self.ctx = metric.ctx
        self.metric = metric
        self.mixed = mixed
        self._raised: tuple | None = None

    @property
    def n(self) -> int:
        return len(self.mixed)

    def raised_component(self, g: "Metric", i: int, j: int, k: int, l: int) -> Expr:
        """g^{is} R^j_{skl}, unnormalized, for any contravariant metric g."""
        return contract(self.ctx, self.n, lambda s: g.entries[i][s] * self.mixed[j][s][k][l])

    @property
    def raised(self) -> tuple:
        if self._raised is None:
            self._raised = _skew_tensor(
                self.ctx, self.n,
                lambda i, j, k, l: self.raised_component(self.metric, i, j, k, l),
            )
        return self._raised

    def first_nonzero(self) -> tuple[int, int, int, int, Expr] | None:
        """(i, j, k, l, R^i_{jkl}) for the first nonzero mixed component
        with k < l, in lexicographic order; None when the metric is flat."""
        return first_nonzero(skew_indices(self.n), lambda i, j, k, l: self.mixed[i][j][k][l])


def _skew_tensor(ctx: Context, n: int, component: Callable[..., Expr]) -> tuple:
    """T[i][j][k][l] antisymmetric in (k, l): component(i, j, k, l)
    normalized for k < l, its normalized negative for k > l, zero on k = l."""
    upper = tensor(n, 4, lambda i, j, k, l: component(i, j, k, l).normalized() if k < l else None)
    return tensor(n, 4, lambda i, j, k, l: (
        upper[i][j][k][l] if k < l
        else (-upper[i][j][l][k]).normalized() if k > l
        else ctx.number(0)
    ))


@dataclass(frozen=True)
class VectorField:
    components: tuple[Expr, ...]

    @property
    def n(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Expr:
        return self.components[i]


def levi_civita(g: Metric) -> Connection:
    """Levi-Civita connection of the metric, lowered and raised forms."""
    if g._connection is not None:
        return g._connection
    if not g.is_symmetric():
        raise ValueError("metric must be symmetric")
    n = g.n
    ctx = g.ctx
    cov = g.covariant
    fields = ctx.fields
    d_cov = tensor(n, 3, lambda i, j, k: sc.diff(cov[i][j], fields[k]))
    lower = tensor(n, 3, lambda i, j, k: (contract(ctx, n, lambda s: g.entries[i][s] * (
        d_cov[s][k][j] + d_cov[s][j][k] - d_cov[j][k][s]
    )) / 2).normalized())
    raised = tensor(n, 3, lambda i, j, k: contract(
        ctx, n, lambda s: -(g.entries[i][s] * lower[j][s][k])
    ).normalized())
    g._connection = Connection(ctx, lower, raised)
    return g._connection


def riemann(g: Metric) -> CurvatureTensor:
    """Curvature of the Levi-Civita connection; only k < l components are
    computed, the rest follow by antisymmetry."""
    if g._curvature is not None:
        return g._curvature
    gamma = levi_civita(g).lower
    n = g.n
    ctx = g.ctx
    fields = ctx.fields
    d_cache: dict[tuple[int, int, int, int], Expr] = {}

    def d_gamma(i: int, j: int, k: int, m: int) -> Expr:
        key = (i, j, k, m)
        if key not in d_cache:
            d_cache[key] = sc.diff(gamma[i][j][k], fields[m])
        return d_cache[key]

    def component(i: int, j: int, k: int, l: int) -> Expr:
        return d_gamma(i, l, j, k) - d_gamma(i, k, j, l) + contract(ctx, n, lambda s: (
            gamma[i][k][s] * gamma[s][l][j] - gamma[i][l][s] * gamma[s][k][j]
        ))

    g._curvature = CurvatureTensor(g, _skew_tensor(ctx, n, component))
    return g._curvature


def is_flat(g: Metric) -> bool:
    return riemann(g).first_nonzero() is None


def constant_curvature(g: Metric) -> Expr | None:
    """Returns the sectional curvature c when it is constant, else None.

    In the stored convention this means R^{ij}_{kl} = c (d^i_l d^j_k -
    d^i_k d^j_l) identically; a round 2-sphere of radius 1 gives c = 1.
    """
    curv = riemann(g)
    n = g.n
    ctx = g.ctx
    if n == 1:
        return ctx.number(0)
    c = curv.raised[0][1][1][0]
    if first_nonzero(zip(ctx.fields), lambda name: sc.diff(c, name)) or first_nonzero(
        product(range(n), repeat=4), lambda i, j, k, l: (
            curv.raised[i][j][k][l] - c * ((i == l and j == k) - (i == k and j == l))
        )
    ):
        return None
    return c.normalized()


def killing_defect(g: Metric, f: VectorField) -> tuple[int, int, Expr] | None:
    """First nonzero component of the Lie derivative of the contravariant
    metric along f: f^k d_k g^{ij} - g^{kj} d_k f^i - g^{ik} d_k f^j."""
    n = g.n
    fields = g.ctx.fields
    return first_nonzero(
        ((i, j) for i, j in product(range(n), repeat=2) if i <= j),
        lambda i, j: contract(g.ctx, n, lambda k: (
            f[k] * sc.diff(g.entries[i][j], fields[k])
            - g.entries[k][j] * sc.diff(f[i], fields[k])
            - g.entries[i][k] * sc.diff(f[j], fields[k])
        )),
    )


def killing_check(g: Metric, f: VectorField) -> bool:
    """Vanishing Lie derivative of the contravariant metric along f."""
    return killing_defect(g, f) is None


def cyclic_defect(g: Metric, f: VectorField) -> tuple[int, int, int, Expr] | None:
    """First nonzero component of f^j grad^i f^k + f^k grad^j f^i
    + f^i grad^k f^j, with grad^i = g^{is} grad_s and
    grad_s f^k = d_s f^k + Gamma^k_{sm} f^m."""
    n = g.n
    ctx = g.ctx
    conn = levi_civita(g)
    nabla_lower = tensor(n, 2, lambda s, k: sc.diff(f[k], ctx.fields[s]) + contract(
        ctx, n, lambda m: conn.lower[k][s][m] * f[m]
    ))
    nabla_upper = tensor(n, 2, lambda i, k: contract(
        ctx, n, lambda s: g.entries[i][s] * nabla_lower[s][k]
    ))
    return first_nonzero(product(range(n), repeat=3), lambda i, j, k: (
        f[j] * nabla_upper[i][k] + f[k] * nabla_upper[j][i] + f[i] * nabla_upper[k][j]
    ))


def cyclic_check(g: Metric, f: VectorField) -> bool:
    """Vanishing cyclic sum over all index triples."""
    return cyclic_defect(g, f) is None
