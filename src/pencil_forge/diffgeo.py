"""Riemannian computations on contravariant metrics in flat-style coordinates.

Conventions (all indices 1-based in the docs, 0-based in code):

* metrics are stored contravariantly, entries g^{ij};
* lowered Christoffel symbols Gamma^i_{jk} come from the inverse metric by
  the standard Levi-Civita formula and are symmetric in (j, k);
* raised symbols follow Gamma^{ij}_k = -g^{is} Gamma^j_{sk};
* curvature uses R^i_{jkl} = d_k Gamma^i_{lj} - d_l Gamma^i_{kj}
  + Gamma^i_{ks} Gamma^s_{lj} - Gamma^i_{ls} Gamma^s_{kj}, raised to
  R^{ij}_{kl} = g^{is} R^j_{skl}.

The connection and the curvature are computed over a factor basis fixed
per metric (_Factored): the irreducible factors, by factor_list, of the
entries' denominators, of det(g)'s denominator and of the norm of its
numerator, of the radicand and of the denominators of function-atom
arguments.  Christoffel symbols and curvature only differentiate,
multiply and add, so every denominator they reach is a product of those
bases.  A value is a pair (num, exps), num * prod(bases[i]^exps[i]), num
a polynomial reduced modulo t^2 = s in one ring per metric: a product
adds exponents, a sum takes each base's least exponent and multiplies
each numerator by the powers it lacks, and d/du is the quotient rule on
the pair.  None of these runs a GCD or a cancel, and a value is zero
exactly when num is.  A value leaves the algebra as an Expr that carries
it (the entries of Connection and CurvatureTensor): is_zero reads num,
and only a read of its normal form or tree exports it, in lowest terms,
each denominator base divided out of each numerator component as often
as it divides exactly, to the normal form _normalize would give it.
Entries nothing reads are never exported.  A metric outside the
algebra's reach (an entry with a logarithm, two radicands, an entry
without a normal form, or a vanishing determinant) takes the tree path
instead: the same formulas on Exprs, each kept entry normalized.

The checks that read the connection are decided in the same algebra:
killing_defect, cyclic_defect and constant_curvature here, the
connection_symmetric and metric_compatible checks of
operators.validate_nonlocal, and the torsion of
pencil.almost_compatible.  Their quantities are Lifted: an Expr tree,
the one the Expr operators build, paired with its value, which comes
from the metric's own tables or is lifted from a normal form (the
operator's symbols, the isometry, the other metric of a pencil; an Expr
this algebra emitted lifts to the value it carries).  A zero test reads
the value's numerator on an Expr of that tree, so witnesses and the
oracle's probed trees are those of the tree formulas; the tree is built
only when the oracle probes it.  Where the metric has no algebra, or a
lift falls outside it (a symbol or function atom without a generator, a
denominator factor outside the basis, a logarithm or another radicand),
the value is None and the tree is normalized as on the tree path; Lifted
is the one place that makes this choice.

The inverse metric of Metric.covariant is the exact adjugate over the
determinant, as Expr trees.  Every other index contraction in the
package goes through contract (a sum of terms over one index, added left
to right onto zero) or Lifted.contract (the same sum of lifted terms,
with their values), and every tensor table is built by tensor (an
n x ... x n nested tuple from an index function); none of them
normalizes.
Every vanishing condition is decided by first_nonzero, the one scan: it
zero-tests components in a given order and returns the first nonzero one.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable, Iterable, Sequence

import sympy as sp
from sympy.core.function import AppliedUndef
from sympy.polys.domains import QQ
from sympy.polys.orderings import lex
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement, PolyRing

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
    "Lifted",
    "lifted_metric",
    "lifted_covariant",
    "lifted_connection",
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
        self._factored: "_Factored | None | bool" = False  # False: not yet built
        self._lower_values: tuple | None = None
        self._raised_values: tuple | None = None
        self._lifted: tuple | None = None

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

    def _algebra(self) -> "_Factored | None":
        """The metric's factored algebra, or None for a metric outside its
        reach (see the module docstring)."""
        if self._factored is False:
            self._factored = _Factored.of(self)
        return self._factored

    def __getitem__(self, ij: tuple[int, int]) -> Expr:
        return self.entries[ij[0]][ij[1]]

    def __repr__(self):
        rows = "; ".join(
            ", ".join(str(e) for e in row) for row in self.entries
        )
        return f"Metric[{rows}]"


# ---------------------------------------------------------------------------
# The factored algebra


Value = tuple[PolyElement, tuple[int, ...]]


class _Factored:
    """Values num * prod(bases[i]^exps[i]) over one metric's factor basis;
    see the module docstring."""

    @classmethod
    def of(cls, g: Metric) -> "_Factored | None":
        try:
            forms = [e.normal_form() for row in g.entries for e in row]
        except sc.NormalizationError:
            return None
        forms.append(g.det.normal_form())
        if forms[-1].is_zero:  # no inverse: the tree path raises DegenerateMetricError
            return None
        radicands = {f.radicand for f in forms} - {None}
        if len(radicands) > 1 or any(L is not None for f in forms for (L, _), _ in f.parts):
            return None
        ctx = functools.reduce(sc._join, (e.ctx for row in g.entries for e in row), g.ctx)
        return cls(ctx, forms, next(iter(radicands), None))

    def __init__(self, ctx: Context, forms: list, radicand: sp.Expr | None):
        self.ctx = ctx
        self.radicand = radicand
        exprs = [x for f in forms for _, pair in f.parts for x in pair]
        exprs += [radicand] if radicand is not None else []
        atoms = set().union(*(x.atoms(AppliedUndef) for x in exprs))
        # every field and parameter, so that an isometry or a symbol table
        # over them lifts even where the metric's entries lack them
        symbols = set().union(*(x.free_symbols for x in exprs), ctx.field_syms,
                              map(ctx.sym, ctx.parameters))
        # the curvature differentiates the entries twice, and
        # constant_curvature its value once more
        self.next_atom = {}
        for a in list(atoms):
            for _ in range(3):
                self.next_atom[a] = a = sp.Function(a.func.__name__ + "'")(*a.args)
                atoms.add(a)
        lead = [sc._RADICAL] if radicand is not None else []
        self.gens = tuple(lead) + _sort_gens(sorted(symbols | atoms, key=str))
        self.ring = ring = PolyRing(self.gens, QQ, lex)
        self.index = {s: i for i, s in enumerate(self.gens)}
        self.T = ring.gens[0] if radicand is not None else None
        self.S = self.poly(radicand) if radicand is not None else None

        self.atom_args = {a: sc._normalize(a.args[0]) for a in atoms}
        self.bases: list[PolyElement] = []
        self._powers: dict[tuple, PolyElement] = {}
        self._extend(self.S)
        for f in forms + list(self.atom_args.values()):
            for _, (_, den) in f.parts:
                self._extend(self.poly(den))
        # det(g) = (A + B*t) * prod(bases^e), so 1/det(g) = (A - B*t)/N *
        # prod(bases^-e) with N = A^2 - B^2*s, the norm of its numerator
        det, e = self._from_form(forms[-1])
        A, B = self._split_t(det)
        norm = A * A - B * B * self.S if B else A
        self._extend(norm)
        self.zeros = (0,) * len(self.bases)
        self.zero = (ring.zero, self.zeros)
        self.one = (ring.one, self.zeros)
        c, f = self.split(norm)
        self.inverse_det = (
            (A - B * self.T if B else ring.one).quo_ground(c),
            tuple(-a - b for a, b in zip(f, e + (0,) * (len(f) - len(e)))),
        )
        self.entries = [self._from_form(f) for f in forms[:-1]]
        self.n = math.isqrt(len(self.entries))
        self._dgens: dict[tuple[int, int], Value | None] = {}
        self._dbases: dict[tuple[int, int], Value] = {}
        self._dargs: dict[tuple[sp.Expr, int], Value] = {}

    # -- construction ---------------------------------------------------------

    def poly(self, e: sp.Expr) -> PolyElement:
        return sc._ring_poly(self.ring, self.index, e)

    def _extend(self, p: PolyElement | None):
        """Adds the irreducible factors of p missing from the basis."""
        if p is None or p.is_ground:
            return
        for f, _ in p.factor_list()[1]:
            f = f.monic()
            if f not in self.bases:
                self.bases.append(f)

    def split(self, p: PolyElement) -> tuple[object, tuple[int, ...]]:
        """(c, e) with p = c * prod(bases^e), by exact division."""
        e = [0] * len(self.bases)
        for i, b in enumerate(self.bases):
            while (q := sc._exact_quotient(p, b)) is not None:
                p, e[i] = q, e[i] + 1
        if not p.is_ground:
            raise ValueError(f"factor {p.as_expr()} is outside the metric's factor basis")
        return p.LC, tuple(e)

    def _from_form(self, form) -> Value:
        """The value of a log-free normal form, with exponents over the
        basis as it stands."""
        terms = []
        for (_, has_rad), (num, den) in form.parts:
            c, e = self.split(self.poly(den))
            p = self.poly(num).quo_ground(c)
            terms.append((p * self.T if has_rad else p, tuple(-k for k in e)))
        return self.sum(terms)

    def lift(self, e: Expr) -> Value | None:
        """The value of e, or None where e falls outside the algebra: no
        normal form, a logarithm, another radicand, a symbol without a
        generator, a function atom without one or without the next
        derivative order, or a denominator factor outside the basis.  An
        Expr this algebra emitted gives the value it carries."""
        if e._carried is not None and e._carried[0] is self:
            return e._carried[1]
        try:
            form = e.normal_form()
        except sc.NormalizationError:
            return None
        if form.radicand not in (None, self.radicand) or any(
                L is not None for (L, _), _ in form.parts):
            return None
        exprs = [x for _, pair in form.parts for x in pair]
        if any(a not in self.next_atom for x in exprs for a in x.atoms(AppliedUndef)) or any(
                s not in self.index for x in exprs for s in x.free_symbols):
            return None
        try:
            return self._from_form(form)
        except ValueError:  # a denominator factor outside the basis
            return None

    @functools.cached_property
    def covariant(self) -> tuple:
        """g_{ij} = adj(g)_{ij} / det(g) as values."""
        n = self.n
        rows = [self.entries[i * n:(i + 1) * n] for i in range(n)]
        if n == 1:
            return ((self.inverse_det,),)
        return tensor(n, 2, lambda i, j: self.mul(self.scale(_det_values(self, [
            [rows[r][c] for c in range(n) if c != i] for r in range(n) if r != j
        ]), (-1) ** (i + j)), self.inverse_det))

    def _split_t(self, p: PolyElement) -> tuple[PolyElement, PolyElement]:
        """(a, b) with p = a + b*t."""
        if self.T is None:
            return p, self.ring.zero
        a = self.ring.from_dict({m: c for m, c in p.items() if not m[0]})
        return a, self.ring.from_dict({(0,) + m[1:]: c for m, c in p.items() if m[0]})

    # -- arithmetic -------------------------------------------------------------

    def _reduce(self, p: PolyElement) -> PolyElement:
        """p modulo t^2 - s."""
        if self.T is None or p.degree(0) < 2:
            return p
        low = self.ring.from_dict({m: c for m, c in p.items() if m[0] < 2})
        high = self.ring.from_dict({(m[0] - 2,) + m[1:]: c for m, c in p.items() if m[0] >= 2})
        return low + self._reduce(high * self.S)

    def _power(self, e: tuple[int, ...]) -> PolyElement:
        """prod(bases^e) for e >= 0."""
        if e not in self._powers:
            self._powers[e] = functools.reduce(
                operator.mul, (b**k for b, k in zip(self.bases, e) if k), self.ring.one)
        return self._powers[e]

    def sum(self, terms: Iterable[Value]) -> Value:
        terms = [t for t in terms if t[0]]
        if len(terms) < 2:
            return terms[0] if terms else self.zero
        low = tuple(map(min, *(e for _, e in terms)))
        total = self.ring.zero
        for p, e in terms:
            if e != low:
                p = p * self._power(tuple(map(operator.sub, e, low)))
            total += p
        return (total, low) if total else self.zero

    def mul(self, x: Value, y: Value) -> Value:
        if not (x[0] and y[0]):
            return self.zero
        return self._reduce(x[0] * y[0]), tuple(map(operator.add, x[1], y[1]))

    def scale(self, x: Value, c) -> Value:
        return x[0].mul_ground(QQ.convert(c)), x[1]

    # -- derivatives --------------------------------------------------------------

    def d(self, x: Value, k: int) -> Value:
        """d/du^k of x by the quotient rule on the pair:
        D(num * B) = D(num) * B + num * sum_i e_i D(b_i)/b_i * B."""
        num, e = x
        if not num:
            return self.zero
        terms = [self.mul(self._d_poly(num, k), (self.ring.one, e))]
        for i, ei in enumerate(e):
            if ei and (db := self._d_base(i, k))[0]:
                unit = tuple(-(j == i) for j in range(len(e)))
                terms.append(self.mul((num.mul_ground(ei), e), (db[0], tuple(
                    map(operator.add, db[1], unit)))))
        return self.sum(terms)

    def _d_poly(self, p: PolyElement, k: int) -> Value:
        return self.sum(
            self.mul((p.diff(j), self.zeros), dg)
            for j, deg in enumerate(p.degrees())
            if deg and (dg := self._d_gen(j, k)) is not None
        )

    def _d_base(self, i: int, k: int) -> Value:
        if (i, k) not in self._dbases:
            self._dbases[i, k] = self._d_poly(self.bases[i], k)
        return self._dbases[i, k]

    def _d_gen(self, j: int, k: int) -> Value | None:
        """d/du^k of generator j: 1 on u^k, t * D(s)/(2*s) on the root
        generator t, f^(m+1)(arg) * D(arg) on an atom f^(m)(arg)."""
        if (j, k) not in self._dgens:
            gen, out = self.gens[j], None
            if gen == self.ctx.field_syms[k]:
                out = self.one
            elif self.T is not None and j == 0:
                c, e = self.split(self.S)
                out = self.mul(self._d_poly(self.S, k),
                               (self.T.quo_ground(2 * c), tuple(-a for a in e)))
            elif gen in self.atom_args:
                darg = self._d_arg(gen, k)
                if darg[0]:
                    nxt = self.ring.gens[self.index[self.next_atom[gen]]]
                    out = self.mul((nxt, self.zeros), darg)
            self._dgens[j, k] = out if out is None or out[0] else None
        return self._dgens[j, k]

    def _d_arg(self, atom: sp.Expr, k: int) -> Value:
        """d/du^k of the atom's argument."""
        if (atom, k) not in self._dargs:
            self._dargs[atom, k] = self.d(self._from_form(self.atom_args[atom]), k)
        return self._dargs[atom, k]

    # -- emission -------------------------------------------------------------------

    def emit(self, x: Value, tree: Expr | None = None, ctx: Context | None = None) -> Expr:
        """x as an Expr that carries it: its normal form is exported on
        first read, and is_zero reads the numerator.  tree, an Expr of the
        same value, gives the Expr's tree, unbuilt, and its context; without
        it the tree is the canonical one, in ctx (by default the
        algebra's)."""
        if tree is None:
            return Expr(ctx or self.ctx, None, carried=(self, x))
        return Expr(tree.ctx, lambda: tree.raw, carried=(self, x))

    def export(self, x: Value) -> sc._NormalForm:
        """The normal form of x, in lowest terms: each denominator base
        divided out of each numerator component as often as it divides
        exactly, so no cancel runs."""
        num, e = x
        num = num * self._power(tuple(max(k, 0) for k in e))
        parts = []
        for has_rad, comp in zip((False, True), self._split_t(num)):
            if not comp:
                continue
            den = self.ring.one
            for b, k in zip(self.bases, e):
                while k < 0 and (q := sc._exact_quotient(comp, b)) is not None:
                    comp, k = q, k + 1
                if k < 0:
                    den *= b**-k
            parts.append(((None, has_rad), sc._sympy_fraction(comp, den)))
        return sc._NormalForm(self.radicand if any(r for (_, r), _ in parts) else None,
                              tuple(parts))


class Lifted:
    """An Expr tree paired with its value in a metric's factored algebra,
    or with None where there is no algebra or a lift falls outside it.

    Arithmetic builds the tree the Expr operators build and, where both
    operands have one, the value.  expr() gives the tree carrying the
    value, so a zero test on it reads the numerator and an oracle probes
    the tree; without a value is_zero normalizes the tree, as on the tree
    path.  Trees are Exprs built on first read, so a quantity settled from
    its value, or zero-tested with the oracle off, never builds the tree it
    was computed from."""

    __slots__ = ("alg", "value", "tree", "_d")

    def __init__(self, alg: _Factored | None, value: Value | None, tree: Expr):
        self.alg, self.value, self.tree = alg, value, tree
        self._d: dict[int, Lifted] = {}

    @classmethod
    def of(cls, alg: _Factored | None, e: Expr) -> "Lifted":
        """e with its value, where alg reaches it."""
        return cls(alg, None if alg is None else alg.lift(e), e)

    @classmethod
    def contract(cls, alg: _Factored | None, ctx: Context, n: int,
                 term: Callable[[int], "Lifted"]) -> "Lifted":
        """contract over lifted terms: the same tree, and the sum of the values."""
        zero = cls(alg, None if alg is None else alg.zero, ctx.number(0))
        return sum((term(s) for s in range(n)), zero)

    @property
    def ctx(self) -> Context:
        return self.tree.ctx

    def _combine(self, other: "Lifted", op, value: Callable[[], Value]) -> "Lifted":
        both = self.value is not None and other.value is not None
        return Lifted(self.alg, value() if both else None, Expr(
            sc._join(self.ctx, other.ctx), lambda: op(self.tree.raw, other.tree.raw)))

    def __add__(self, other: "Lifted") -> "Lifted":
        return self._combine(other, operator.add,
                             lambda: self.alg.sum((self.value, other.value)))

    def __sub__(self, other: "Lifted") -> "Lifted":
        return self._combine(other, operator.sub, lambda: self.alg.sum(
            (self.value, self.alg.scale(other.value, -1))))

    def __mul__(self, other: "Lifted") -> "Lifted":
        return self._combine(other, operator.mul,
                             lambda: self.alg.mul(self.value, other.value))

    def __neg__(self) -> "Lifted":
        value = None if self.value is None else self.alg.scale(self.value, -1)
        return Lifted(self.alg, value, Expr(self.ctx, lambda: -self.tree.raw))

    def d(self, k: int) -> "Lifted":
        """d/du^k, its tree in lowest terms as diff gives it; kept for reuse."""
        if k not in self._d:
            if self.value is None:
                self._d[k] = Lifted(self.alg, None, sc.diff(self.tree, self.ctx.fields[k]))
            else:
                dv = self.alg.d(self.value, k)
                self._d[k] = Lifted(self.alg, dv, self.alg.emit(dv, ctx=self.ctx))
        return self._d[k]

    def settled(self) -> "Lifted":
        """Its tree in lowest terms, as Expr.normalized gives it."""
        if self.value is None:
            return Lifted(self.alg, None, self.tree.normalized())
        return Lifted(self.alg, self.value, self.alg.emit(self.value, ctx=self.ctx))

    def expr(self) -> Expr:
        """The tree, carrying the value where there is one."""
        return self.tree if self.value is None else self.alg.emit(self.value, self.tree)


def _leaves(alg: _Factored | None, table: tuple, values: tuple | None, n: int,
            rank: int) -> tuple:
    """The Expr table with its values, where there are values."""
    at = lambda t, ix: functools.reduce(operator.getitem, ix, t)  # noqa: E731
    return tensor(n, rank, lambda *ix: Lifted(
        alg, None if values is None else at(values, ix), at(table, ix)))


def lifted_metric(g: "Metric") -> tuple:
    """g^{ij}, lifted once per metric, so their derivatives are shared."""
    if g._lifted is None:
        alg = g._algebra()
        values = None if alg is None else tensor(
            g.n, 2, lambda i, j: alg.entries[i * g.n + j])
        g._lifted = _leaves(alg, g.entries, values, g.n, 2)
    return g._lifted


def lifted_covariant(g: "Metric") -> tuple:
    """g_{ij}, lifted; the tree Metric.covariant is built only where it is
    read, which a quantity with a value never does."""
    alg = g._algebra()
    ctx = functools.reduce(sc._join, (e.ctx for row in g.entries for e in row))
    return tensor(g.n, 2, lambda i, j: Lifted(
        alg, None if alg is None else alg.covariant[i][j],
        Expr(ctx, lambda: g.covariant[i][j].raw)))


def lifted_connection(g: "Metric") -> tuple[tuple, tuple]:
    """Gamma^i_{jk} and Gamma^{ij}_k of the Levi-Civita connection, lifted."""
    conn = levi_civita(g)
    alg = g._algebra()
    return (_leaves(alg, conn.lower, g._lower_values, g.n, 3),
            _leaves(alg, conn.raised, g._raised_values, g.n, 3))


def _det_values(alg: _Factored, rows: Sequence[Sequence[Value]]) -> Value:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    return alg.sum(
        alg.mul(rows[0][j], alg.scale(_det_values(alg, [r[:j] + r[j + 1:] for r in rows[1:]]),
                                      (-1) ** j))
        for j in range(n)
    )


# ---------------------------------------------------------------------------
# Connection and curvature


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
    is materialized on first access by the raise_ callable.  Both are
    antisymmetric in (k, l)."""

    def __init__(self, metric: "Metric", mixed: tuple, raise_: Callable[[], tuple]):
        self.ctx = metric.ctx
        self.metric = metric
        self.mixed = mixed
        self._raise = raise_
        self._raised: tuple | None = None
        self._raised_values: tuple | None = None  # k < l, on the factored path

    @property
    def n(self) -> int:
        return len(self.mixed)

    def raised_component(self, g: "Metric", i: int, j: int, k: int, l: int) -> Expr:
        """g^{is} R^j_{skl}, unnormalized, for any contravariant metric g."""
        return contract(self.ctx, self.n, lambda s: g.entries[i][s] * self.mixed[j][s][k][l])

    @property
    def raised(self) -> tuple:
        if self._raised is None:
            self._raised = self._raise()
        return self._raised

    def first_nonzero(self) -> tuple[int, int, int, int, Expr] | None:
        """(i, j, k, l, R^i_{jkl}) for the first nonzero mixed component
        with k < l, in lexicographic order; None when the metric is flat."""
        return first_nonzero(skew_indices(self.n), lambda i, j, k, l: self.mixed[i][j][k][l])


def _skew_tensor(ctx: Context, n: int, upper: Callable[..., Expr],
                 lower: Callable[..., Expr]) -> tuple:
    """T[i][j][k][l] antisymmetric in (k, l): upper(i, j, k, l) for k < l,
    lower(i, j, k, l) for k > l, zero on k = l."""
    return tensor(n, 4, lambda i, j, k, l: (
        upper(i, j, k, l) if k < l else lower(i, j, k, l) if k > l else ctx.number(0)
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
    alg = g._algebra()
    if alg is None:
        g._connection = _tree_connection(g)
        return g._connection
    n = g.n
    entries = tensor(n, 2, lambda i, j: alg.entries[i * n + j])
    cov = alg.covariant
    d_cov = tensor(n, 3, lambda i, j, k: alg.d(cov[i][j], k))
    lower = tensor(n, 3, lambda i, j, k: alg.scale(alg.sum(
        alg.mul(entries[i][s], alg.sum((
            d_cov[s][k][j], d_cov[s][j][k], alg.scale(d_cov[j][k][s], -1))))
        for s in range(n)
    ), QQ(1, 2)))
    raised = tensor(n, 3, lambda i, j, k: alg.scale(alg.sum(
        alg.mul(entries[i][s], lower[j][s][k]) for s in range(n)
    ), -1))
    g._lower_values, g._raised_values = lower, raised
    emit = alg.emit
    g._connection = Connection(
        alg.ctx,
        tensor(n, 3, lambda i, j, k: emit(lower[i][j][k])),
        tensor(n, 3, lambda i, j, k: emit(raised[i][j][k])),
    )
    return g._connection


def riemann(g: Metric) -> CurvatureTensor:
    """Curvature of the Levi-Civita connection; only k < l components are
    computed, the rest follow by antisymmetry."""
    if g._curvature is not None:
        return g._curvature
    levi_civita(g)
    alg = g._algebra()
    if alg is None:
        g._curvature = _tree_curvature(g)
        return g._curvature
    gamma = g._lower_values
    n = g.n
    d_gamma = functools.lru_cache(maxsize=None)(
        lambda i, j, k, m: alg.d(gamma[i][j][k], m))
    mixed = tensor(n, 4, lambda i, j, k, l: alg.sum((
        d_gamma(i, l, j, k), alg.scale(d_gamma(i, k, j, l), -1),
        *(alg.mul(gamma[i][k][s], gamma[s][l][j]) for s in range(n)),
        *(alg.scale(alg.mul(gamma[i][l][s], gamma[s][k][j]), -1) for s in range(n)),
    )) if k < l else None)
    entries = tensor(n, 2, lambda i, j: alg.entries[i * n + j])

    def raised():
        curv._raised_values = tensor(n, 4, lambda i, j, k, l: alg.sum(
            alg.mul(entries[i][s], mixed[j][s][k][l]) for s in range(n)
        ) if k < l else None)
        return _emitted_skew(g.ctx, alg, curv._raised_values)

    curv = g._curvature = CurvatureTensor(g, _emitted_skew(g.ctx, alg, mixed), raised)
    return curv


def _skew_value(alg: _Factored, values: tuple, i: int, j: int, k: int, l: int) -> Value:
    """Entry (i, j, k, l) of the antisymmetric table given for k < l."""
    if k == l:
        return alg.zero
    return values[i][j][k][l] if k < l else alg.scale(values[i][j][l][k], -1)


def _emitted_skew(ctx: Context, alg: _Factored, values: tuple) -> tuple:
    """The antisymmetric table of the values given for k < l, emitted."""
    upper = tensor(len(values), 4, lambda i, j, k, l: (
        alg.emit(values[i][j][k][l]) if k < l else None))
    return _skew_tensor(
        ctx, len(values), lambda i, j, k, l: upper[i][j][k][l],
        lambda i, j, k, l: alg.emit(alg.scale(values[i][j][l][k], -1)),
    )


def _tree_connection(g: Metric) -> Connection:
    """The connection on Expr trees, each kept entry normalized."""
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
    return Connection(ctx, lower, raised)


def _tree_curvature(g: Metric) -> CurvatureTensor:
    """The curvature on Expr trees, each kept entry normalized."""
    gamma = levi_civita(g).lower
    n = g.n
    ctx = g.ctx
    fields = ctx.fields
    d_gamma = functools.lru_cache(maxsize=None)(
        lambda i, j, k, m: sc.diff(gamma[i][j][k], fields[m]))

    def component(i: int, j: int, k: int, l: int) -> Expr:
        return d_gamma(i, l, j, k) - d_gamma(i, k, j, l) + contract(ctx, n, lambda s: (
            gamma[i][k][s] * gamma[s][l][j] - gamma[i][l][s] * gamma[s][k][j]
        ))

    def skew(component: Callable[..., Expr]) -> tuple:
        upper = tensor(n, 4, lambda i, j, k, l: (
            component(i, j, k, l).normalized() if k < l else None))
        return _skew_tensor(ctx, n, lambda i, j, k, l: upper[i][j][k][l],
                            lambda i, j, k, l: (-upper[i][j][l][k]).normalized())

    curv = CurvatureTensor(g, skew(component), lambda: skew(
        lambda i, j, k, l: curv.raised_component(g, i, j, k, l)))
    return curv


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
    alg = g._algebra()
    table = curv.raised  # sets curv._raised_values on the factored path

    def raised(i: int, j: int, k: int, l: int) -> Lifted:
        return Lifted(alg, None if alg is None else _skew_value(
            alg, curv._raised_values, i, j, k, l), table[i][j][k][l])

    c = raised(0, 1, 1, 0)
    delta = {d: Lifted.of(alg, c.ctx.number(d)) for d in (-1, 0, 1)}
    if first_nonzero(((k,) for k in range(n)), lambda k: c.d(k).tree) or first_nonzero(
        product(range(n), repeat=4), lambda i, j, k, l: (raised(i, j, k, l) - c * delta[
            (i == l and j == k) - (i == k and j == l)]).expr()
    ):
        return None
    return c.tree.normalized()


def killing_defect(g: Metric, f: VectorField) -> tuple[int, int, Expr] | None:
    """First nonzero component of the Lie derivative of the contravariant
    metric along f: f^k d_k g^{ij} - g^{kj} d_k f^i - g^{ik} d_k f^j."""
    n = g.n
    alg = g._algebra()
    entries = lifted_metric(g)
    field = [Lifted.of(alg, c) for c in f.components]
    return first_nonzero(
        ((i, j) for i, j in product(range(n), repeat=2) if i <= j),
        lambda i, j: Lifted.contract(alg, g.ctx, n, lambda k: (
            field[k] * entries[i][j].d(k)
            - entries[k][j] * field[i].d(k)
            - entries[i][k] * field[j].d(k)
        )).expr(),
    )


def killing_check(g: Metric, f: VectorField) -> bool:
    """Vanishing Lie derivative of the contravariant metric along f."""
    return killing_defect(g, f) is None


def cyclic_defect(g: Metric, f: VectorField) -> tuple[int, int, int, Expr] | None:
    """First nonzero component of f^j grad^i f^k + f^k grad^j f^i
    + f^i grad^k f^j, with grad^i = g^{is} grad_s and
    grad_s f^k = d_s f^k + Gamma^k_{sm} f^m."""
    n = g.n
    lower, _ = lifted_connection(g)
    alg = g._algebra()
    entries = lifted_metric(g)
    field = [Lifted.of(alg, c) for c in f.components]
    contract = partial(Lifted.contract, alg, g.ctx, n)
    nabla_lower = tensor(n, 2, lambda s, k: field[k].d(s) + contract(
        lambda m: lower[k][s][m] * field[m]
    ))
    nabla_upper = tensor(n, 2, lambda i, k: contract(
        lambda s: entries[i][s] * nabla_lower[s][k]
    ))
    return first_nonzero(product(range(n), repeat=3), lambda i, j, k: (
        field[j] * nabla_upper[i][k] + field[k] * nabla_upper[j][i]
        + field[i] * nabla_upper[k][j]
    ).expr())


def cyclic_check(g: Metric, f: VectorField) -> bool:
    """Vanishing cyclic sum over all index triples."""
    return cyclic_defect(g, f) is None
