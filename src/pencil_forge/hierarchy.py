"""Flows, Magri recursion and recursion operators over an operator pair.

Densities and covectors are jet-free functions of (x, u); applying an
operator produces a quasilinear flow u^i_t = V^i_j(x,u) u^j_x + sigma^i(x,u).
The nonlocal tail eps f^i dx^{-1} (f^j psi_j) only resolves when the kernel
f^j psi_j is free of field variables, in which case dx^{-1} is an explicit
antiderivative in x; everything else raises instead of introducing nonlocal
field variables.

Recursion operators R = B o A^{-1} are kept as formal symbol matrices
(coefficient * d_x, multiplication terms of jet degree one, and
left * dx^{-1} * right tails) with a trailing formal dx^{-1} factor; no
composition calculus is attempted beyond that factored display form.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product

from . import symcore as sc
from .diffgeo import contract, first_nonzero, tensor
from .operators import ConstantOp, NonlocalIsometryOp, poincare_potential
from .symcore import Context, Expr

__all__ = [
    "NonlocalUnresolvedError",
    "NotExactError",
    "NotClosedError",
    "Density",
    "Covector",
    "QuasilinearFlow",
    "OperatorSymbol",
    "RecursionOperator",
    "variational_gradient",
    "apply_operator",
    "flow_from_density",
    "magri_step",
    "recursion_operator",
    "commute_check",
    "wdvv_flow",
    "operator_symbols",
    "symbols_equal",
]


class NonlocalUnresolvedError(ValueError):
    """The nonlocal kernel f^j psi_j depends on field variables."""


class NotExactError(ValueError):
    """A flow component is not a total x-derivative of a function of (x, u)."""


class NotClosedError(ValueError):
    """The candidate gradient covector is not closed in the field variables."""


def _require_jet_free(ctx: Context, e: Expr, what: str):
    jets = {s.name for s in ctx.jet1_syms} | {s.name for s in ctx.jet2_syms}
    used = e.free_names() & jets
    if used:
        raise ValueError(f"jet variables not allowed in {what}: {sorted(used)}")


def _jet_sum(ctx: Context, coeff) -> Expr:
    """sum_m coeff(m) u^m_x."""
    return contract(ctx, ctx.n, lambda m: coeff(m) * Expr(ctx, ctx.jet1_syms[m]))


@dataclass(frozen=True)
class Density:
    """Hydrodynamic density h(x, u); jet-free but possibly x-dependent."""

    h: Expr

    def __post_init__(self):
        _require_jet_free(self.h.ctx, self.h, "densities")

    @property
    def ctx(self) -> Context:
        return self.h.ctx


@dataclass(frozen=True)
class Covector:
    components: tuple[Expr, ...]

    def __post_init__(self):
        for c in self.components:
            _require_jet_free(c.ctx, c, "covectors")

    @property
    def ctx(self) -> Context:
        return self.components[0].ctx

    @property
    def n(self) -> int:
        return len(self.components)


@dataclass(frozen=True)
class QuasilinearFlow:
    """u^i_t = V^i_j u^j_x + sigma^i with jet-free V and sigma."""

    V: tuple[tuple[Expr, ...], ...]
    sigma: tuple[Expr, ...]

    @property
    def ctx(self) -> Context:
        return self.sigma[0].ctx

    @property
    def n(self) -> int:
        return len(self.sigma)

    def component(self, i: int) -> Expr:
        """The right-hand side of u^i_t as an expression in (x, u, u_x)."""
        return self.sigma[i] + _jet_sum(self.ctx, lambda j: self.V[i][j])

    def equal(self, other: "QuasilinearFlow", sign: int = 1) -> bool:
        mine, theirs = ([(s, *row) for s, row in zip(f.sigma, f.V)] for f in (self, other))
        return self.n == other.n and first_nonzero(
            product(range(self.n), range(self.n + 1)),
            lambda i, j: mine[i][j] - sign * theirs[i][j],
        ) is None


@dataclass(frozen=True)
class OperatorSymbol:
    """coeff_dx * d_x + mult + sum_i left_i * dx^{-1} * right_i, where mult
    collects the multiplication terms (jet degree at most one)."""

    dx: Expr
    mult: Expr
    tails: tuple[tuple[Expr, Expr], ...]


@dataclass(frozen=True)
class RecursionOperator:
    """Matrix of operator symbols with a trailing formal dx^{-1} factor."""

    entries: tuple[tuple[OperatorSymbol, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    @property
    def ctx(self) -> Context:
        return self.entries[0][0].dx.ctx


def variational_gradient(h: Density) -> Covector:
    """Euler operator for jet-free densities: psi_j = dh/du^j."""
    ctx = h.ctx
    return Covector(tuple(sc.diff(h.h, f) for f in ctx.fields))


def apply_operator(B: NonlocalIsometryOp, psi: Covector) -> QuasilinearFlow:
    """(B psi)^i split into velocity matrix and source.

    Requires c = 0 and a field-variable-free nonlocal kernel f^j psi_j;
    the kernel's dx^{-1} becomes an explicit antiderivative in x.
    """
    ctx = B.ctx
    n = B.n
    if not sc.is_zero(B.c):
        raise ValueError("apply_operator requires c = 0")
    if psi.n != n:
        raise ValueError("covector length mismatch")
    kernel = contract(ctx, n, lambda j: B.isometry[j] * psi.components[j]).normalized()
    for f in ctx.fields:
        if kernel.depends_on(f):
            raise NonlocalUnresolvedError(
                f"nonlocal kernel f^j psi_j = {kernel} depends on {f}"
            )
    tail_primitive = sc.antiderivative(kernel, ctx.independents[0])
    g, p = B.metric.entries, psi.components
    V = tensor(n, 2, lambda i, j: contract(ctx, n, lambda s: (
        g[i][s] * sc.diff(p[s], ctx.fields[j]) + B.gamma[i][s][j] * p[s]
    )).normalized())
    sigma = tensor(n, 1, lambda i: (contract(
        ctx, n, lambda s: g[i][s] * sc.diff(p[s], ctx.independents[0])
    ) + B.epsilon * B.isometry[i] * tail_primitive).normalized())
    return QuasilinearFlow(V, sigma)


def flow_from_density(A: ConstantOp, h: Density) -> QuasilinearFlow:
    """u^i_t = eta^{ij} D_x(dh/du^j) expanded into velocity and source."""
    ctx = A.ctx
    n = A.n
    psi = variational_gradient(h).components
    V = tensor(n, 2, lambda i, k: contract(
        ctx, n, lambda j: A.entries[i][j] * sc.diff(psi[j], ctx.fields[k])
    ).normalized())
    sigma = tensor(n, 1, lambda i: contract(
        ctx, n, lambda j: A.entries[i][j] * sc.diff(psi[j], ctx.independents[0])
    ).normalized())
    return QuasilinearFlow(V, sigma)


def _invert_total_x(flow: QuasilinearFlow, i: int) -> Expr:
    """phi(x, u) with D_x phi equal to flow component i, or NotExactError."""
    ctx = flow.ctx
    comps = [flow.sigma[i], *flow.V[i]]
    coords = (ctx.independents[0],) + ctx.fields
    open_pair = first_nonzero(combinations(range(len(coords)), 2), lambda a, b: (
        sc.diff(comps[a], coords[b]) - sc.diff(comps[b], coords[a])
    ))
    if open_pair is not None:
        a, b, d = open_pair
        raise NotExactError(
            f"component {i + 1} is not a total x-derivative:"
            f" d/d{coords[b]} of {coords[a]}-part differs by {d}"
        )
    return poincare_potential(ctx, coords, comps)


def magri_step(A: ConstantOp, B: NonlocalIsometryOp, h_k: Density) -> Density:
    """Solves A grad(h_{k+1}) = B grad(h_k) for the next density.

    Each component of B grad(h_k) must be a total x-derivative D_x(phi^i);
    psi'_j = eta_{ji} phi^i must be closed in the field variables; the
    potential is integrated with zero constants, so the result is fixed up
    to Casimirs of A.
    """
    ctx = A.ctx
    n = A.n
    flow = apply_operator(B, variational_gradient(h_k))
    phi = [_invert_total_x(flow, i) for i in range(n)]
    eta_cov = A.covariant
    psi = tensor(n, 1, lambda j: contract(ctx, n, lambda i: eta_cov[j][i] * phi[i]).normalized())
    open_pair = first_nonzero(combinations(range(n), 2), lambda a, b: (
        sc.diff(psi[a], ctx.fields[b]) - sc.diff(psi[b], ctx.fields[a])
    ))
    if open_pair is not None:
        a, b, d = open_pair
        raise NotClosedError(
            f"candidate gradient not closed in ({ctx.fields[a]}, {ctx.fields[b]}): {d}"
        )
    return Density(poincare_potential(ctx, ctx.fields, psi))


def _symbol(B: NonlocalIsometryOp, i: int, dx: Expr, mult: Expr, right: Expr):
    """The OperatorSymbol dx * d_x + mult + (eps f^i) dx^{-1} right, its
    tail dropped when a side vanishes."""
    left = (B.epsilon * B.isometry[i]).normalized()
    right = right.normalized()
    tails = () if sc.is_zero(left) or sc.is_zero(right) else ((left, right),)
    return OperatorSymbol(dx.normalized(), mult.normalized(), tails)


def operator_symbols(B: NonlocalIsometryOp) -> tuple[tuple[OperatorSymbol, ...], ...]:
    """The matrix of formal symbols of B itself."""
    ctx = B.ctx
    return tensor(B.n, 2, lambda i, j: _symbol(
        B, i, B.metric.entries[i][j], _jet_sum(ctx, lambda k: B.gamma[i][j][k]), B.isometry[j]
    ))


def recursion_operator(A: ConstantOp, B: NonlocalIsometryOp) -> RecursionOperator:
    """R = B o A^{-1} as the symbol matrix M^i_k = sum_s B^{is} eta_{sk}
    followed by the trailing formal dx^{-1}."""
    ctx = B.ctx
    n = B.n
    eta_cov = A.covariant
    return RecursionOperator(tensor(n, 2, lambda i, k: _symbol(
        B, i,
        contract(ctx, n, lambda s: B.metric.entries[i][s] * eta_cov[s][k]),
        contract(ctx, n, lambda s: _jet_sum(
            ctx, lambda m: B.gamma[i][s][m] * eta_cov[s][k]
        )),
        contract(ctx, n, lambda s: B.isometry[s] * eta_cov[s][k]),
    )))


def _tails_equal(ctx: Context, t1, t2) -> bool:
    """Tensor equality of sum_i l_i dx^{-1} r_i against another tail sum,
    decided on doubled field variables."""
    if not t1 and not t2:
        return True
    copies = tuple(f + "_cpy" for f in ctx.fields)
    ext = ctx.extend(parameters=copies)
    mapping = {f: ext.var(c) for f, c in zip(ctx.fields, copies)}
    terms = [left * sc.substitute(right, mapping) for left, right in t1]
    terms += [-(left * sc.substitute(right, mapping)) for left, right in t2]
    return sc.is_zero(contract(ext, len(terms), terms.__getitem__))


def symbols_equal(a: OperatorSymbol, b: OperatorSymbol) -> bool:
    return (sc.is_zero(a.dx - b.dx) and sc.is_zero(a.mult - b.mult)
            and _tails_equal(a.dx.ctx, a.tails, b.tails))


def commute_check(F1: QuasilinearFlow, F2: QuasilinearFlow) -> bool:
    """u^i_{t y} - u^i_{y t} = 0 with each flow substituted into the other's
    total time derivative; the residual is polynomial in (u_x, u_xx)."""
    ctx = F1.ctx
    n = F1.n
    if F2.n != n:
        raise ValueError("flows have different component counts")
    e1 = [F1.component(i) for i in range(n)]
    e2 = [F2.component(i) for i in range(n)]
    dxe1 = [sc.total_x_derivative(e) for e in e1]
    dxe2 = [sc.total_x_derivative(e) for e in e2]
    return first_nonzero(((i,) for i in range(n)), lambda i: contract(ctx, n, lambda k: (
        sc.diff(e2[i], ctx.fields[k]) * e1[k] + F2.V[i][k] * dxe1[k]
        - sc.diff(e1[i], ctx.fields[k]) * e2[k] - F1.V[i][k] * dxe2[k]
    ))) is None


def wdvv_flow(F: Expr, eta: ConstantOp, k: int) -> QuasilinearFlow:
    """k-th flow of a potential: u^i_{t_k} = eta^{im} (d^2 F / du^m du^k)_x,
    expanded to V^i_j = eta^{im} F_{,mkj}; k is 1-based."""
    ctx = eta.ctx
    n = eta.n
    _require_jet_free(ctx, F, "potentials")
    if not 1 <= k <= n:
        raise ValueError(f"flow index {k} out of range 1..{n}")
    V = tensor(n, 2, lambda i, j: contract(ctx, n, lambda m: eta.entries[i][m] * sc.diff(
        sc.diff(sc.diff(F, ctx.fields[m]), ctx.fields[k - 1]), ctx.fields[j],
    )).normalized())
    return QuasilinearFlow(V, (ctx.number(0),) * n)
